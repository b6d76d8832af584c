// Branch & bound mixed-integer solver on top of lp::Simplex.
//
// This plays the role of the paper's ILP solver (CPLEX) for the FULLG
// baseline, which solves an exact OFF-VNE instance per request (§IV-A).
// The per-request embedding LPs are small and near-integral, so plain
// depth-first branch & bound with most-fractional branching is adequate.
#pragma once

#include <vector>

#include "lp/model.hpp"
#include "lp/simplex.hpp"

namespace olive::lp {

struct MipOptions {
  long max_nodes = 20000;
  SimplexOptions lp;
};

struct MipResult {
  Status status = Status::IterationLimit;
  /// True if the returned solution was proven optimal (search exhausted).
  bool proven_optimal = false;
  double objective = 0;
  std::vector<double> x;
  long nodes_explored = 0;
};

/// Minimizes `model` with the columns in `integer_cols` restricted to
/// integral values.  Status is Optimal when an optimal integral solution was
/// proven, IterationLimit when the node budget ran out (x holds the best
/// incumbent if any was found), Infeasible when no integral solution exists.
MipResult solve_mip(const Model& model, const std::vector<int>& integer_cols,
                    MipOptions options = {});

}  // namespace olive::lp
