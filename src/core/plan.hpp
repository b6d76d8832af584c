// The embedding plan y(R̃) produced by PLAN-VNE (paper §III-B).
//
// PLAN-VNE's LP relaxation is solved by column generation (see
// plan_solver.hpp), so the plan arrives naturally in *column* form: for each
// class r̃ a convex combination of concrete integral embeddings, each with a
// fraction f_k of the class's expected demand d(r̃), plus the per-quantile
// rejected fractions y_p(r̃) ∈ [0, 1/P].  This is exactly the splittable
// guidance §III-A calls for, and OLIVE consumes it directly: a planned
// allocation books capacity on one of the class's columns (Eq. 17).
#pragma once

#include <memory>
#include <unordered_map>
#include <vector>

#include "core/aggregation.hpp"
#include "core/load.hpp"
#include "net/embedding.hpp"

namespace olive::core {

/// One concrete embedding and its per-unit-demand element usage.  Built
/// once and never changed: an accepted request's outcome, the embedder's
/// ledger and its caches share one by pointer instead of each copying it,
/// and a plan column is one.
struct Placement {
  Usage usage;  ///< per-unit-demand element usage of the embedding
  net::Embedding embedding;
};

using PlacementPtr = std::shared_ptr<const Placement>;

/// A new placement for embedding `e` of `vn` on `s`.
PlacementPtr make_placement(const net::SubstrateNetwork& s,
                            const net::VirtualNetwork& vn, net::Embedding e);

struct PlanColumn : Placement {
  double unit_cost = 0; ///< Σ usage·cost (resource cost per demand unit)
  double fraction = 0;  ///< f_k: share of the class demand planned here
  /// Planned capacity of this column in demand units: fraction · d(r̃).
  double planned_demand = 0;
};

struct PlanClass {
  AggregateRequest aggregate;
  std::vector<PlanColumn> columns;
  /// y_p(r̃) for p = 1..P (index 0 is quantile 1).
  std::vector<double> rejected_per_quantile;

  double accepted_fraction() const;
  double rejected_fraction() const;
  /// Total planned demand across columns (== accepted_fraction · d(r̃)).
  double planned_demand() const;
};

/// The full plan: classes indexed by (app, ingress).
class Plan {
 public:
  Plan() = default;
  explicit Plan(std::vector<PlanClass> classes, double objective = 0);

  /// The empty plan (QUICKG runs OLIVE with this).
  static Plan empty() { return Plan{}; }

  int num_classes() const noexcept { return static_cast<int>(classes_.size()); }
  const PlanClass& cls(int i) const { return classes_.at(i); }
  const std::vector<PlanClass>& classes() const noexcept { return classes_; }

  /// Index of the class for (app, ingress), or -1 when the plan has no such
  /// class (unseen demand — OLIVE then falls back to GREEDYEMBED).
  int class_index(int app, net::NodeId ingress) const;

  /// LP objective value (resource + rejection cost of the plan).
  double objective() const noexcept { return objective_; }

  bool empty_plan() const noexcept { return classes_.empty(); }

 private:
  std::vector<PlanClass> classes_;
  std::unordered_map<long long, int> index_;
  double objective_ = 0;
};

}  // namespace olive::core
