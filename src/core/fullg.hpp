// FULLG — per-request exact embedding baseline (paper §IV-A).
//
// Like QUICKG but without the collocation restriction: each arriving request
// is embedded by solving an exact OFF-VNE instance on the residual
// capacities with an ILP (the paper uses CPLEX; we use lp::solve_mip).
// The paper evaluates FULLG only as a reference point — it "does not scale
// well" (130x slower than QUICKG in their runs) — so the bench harness uses
// it solely for Figs. 9 and 10.
//
// Formulation (per request, arc-flow):
//   x_{i,v} ∈ {0,1}   VNF i placed on node v (allowed placements only)
//   y_{l,a} ∈ {0,1}   virtual link l uses directed arc a
//   Σ_v x_{i,v} = 1                                        (placement)
//   Σ_out y − Σ_in y = x_{parent,v} − x_{child,v}  ∀ v,l   (flow, Eq. 14)
//   Σ_i x_{i,v}·d·β_i ≤ Res(v);  Σ_l (y_fwd+y_bwd)·d·β_l ≤ Res(vw)
//   min  Σ x·d·β·cost(v) + Σ y·d·β·cost(vw)
#pragma once

#include <unordered_map>

#include "core/algorithm.hpp"
#include "net/vnet.hpp"

namespace olive::core {

class FullGreedyEmbedder final : public OnlineEmbedder {
 public:
  FullGreedyEmbedder(const net::SubstrateNetwork& s,
                     const std::vector<net::Application>& apps);

  std::string name() const override { return "FullG"; }
  void reset() override;
  EmbedOutcome embed(const workload::Request& r) override;
  void depart(const workload::Request& r) override;
  const LoadTracker& load() const override { return load_; }
  bool set_element_capacity(int element, double capacity) override;
  std::optional<EmbedOutcome> adopt(const workload::Request& r,
                                    const net::Embedding& e) override;

 private:
  struct Active {
    PlacementPtr placement;
    double demand = 0;
  };

  /// Admits r under `placement`, which must fit the residuals.
  EmbedOutcome commit(const workload::Request& r, PlacementPtr placement);

  const net::SubstrateNetwork& substrate_;
  const std::vector<net::Application>& apps_;
  LoadTracker load_;
  std::unordered_map<workload::RequestId, Active> active_;
};

}  // namespace olive::core
