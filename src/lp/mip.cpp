#include "lp/mip.hpp"

#include <cmath>
#include <limits>
#include <utility>

#include "util/error.hpp"

namespace olive::lp {

namespace {

/// Integrality tolerance of a branching candidate's LP value.
constexpr double kIntTol = 1e-6;
/// Relative optimality gap at which search stops.
constexpr double kRelGap = 1e-9;

struct BoundFix {
  int col;
  double lo, up;
};

struct Node {
  std::vector<BoundFix> fixes;
  double parent_bound;  // LP bound inherited from the parent (for pruning)
};

}  // namespace

MipResult solve_mip(const Model& model, const std::vector<int>& integer_cols,
                    MipOptions options) {
  for (int c : integer_cols)
    OLIVE_REQUIRE(c >= 0 && c < model.num_cols(), "integer column out of range");

  Model work = model;  // bounds are mutated per node and restored afterwards
  MipResult best;
  best.objective = std::numeric_limits<double>::infinity();

  std::vector<Node> stack;
  stack.push_back({{}, -std::numeric_limits<double>::infinity()});

  bool any_node_unsolved = false;

  while (!stack.empty()) {
    if (best.nodes_explored >= options.max_nodes) {
      any_node_unsolved = true;
      break;
    }
    Node node = std::move(stack.back());
    stack.pop_back();
    ++best.nodes_explored;

    // Additive tolerance scaled by the incumbent's magnitude (a plain
    // relative gap misbehaves for negative objectives).  Zero while no
    // incumbent exists so that `inf - prune_tol` stays well-defined.
    const double prune_tol =
        std::isfinite(best.objective)
            ? kRelGap * std::max(1.0, std::abs(best.objective))
            : 0.0;
    if (std::isfinite(best.objective) &&
        node.parent_bound >= best.objective - prune_tol) {
      continue;  // cannot improve on the incumbent
    }

    // Apply this node's bound fixes.
    std::vector<BoundFix> saved;
    saved.reserve(node.fixes.size());
    for (const BoundFix& f : node.fixes) {
      saved.push_back({f.col, work.col_lo(f.col), work.col_up(f.col)});
      const double lo = std::max(work.col_lo(f.col), f.lo);
      const double up = std::min(work.col_up(f.col), f.up);
      if (lo > up) {  // contradictory fixes -> infeasible node
        for (auto it = saved.rbegin(); it != saved.rend(); ++it)
          work.set_col_bounds(it->col, it->lo, it->up);
        saved.clear();
        goto next_node;
      }
      work.set_col_bounds(f.col, lo, up);
    }

    {
      const SolveResult lp = solve_lp(work, options.lp);
      if (lp.status == Status::Unbounded && node.fixes.empty()) {
        for (auto it = saved.rbegin(); it != saved.rend(); ++it)
          work.set_col_bounds(it->col, it->lo, it->up);
        best.status = Status::Unbounded;
        return best;
      }
      if (lp.status == Status::IterationLimit) any_node_unsolved = true;
      if (lp.status == Status::Optimal &&
          lp.objective < best.objective - prune_tol) {
        // Find the most fractional integer column.
        int branch_col = -1;
        double branch_val = 0, worst_frac = kIntTol;
        for (int c : integer_cols) {
          const double v = lp.x[static_cast<std::size_t>(c)];
          const double frac = std::abs(v - std::round(v));
          if (frac > worst_frac) {
            worst_frac = frac;
            branch_col = c;
            branch_val = v;
          }
        }
        if (branch_col < 0) {
          // Integral solution -> new incumbent.
          best.objective = lp.objective;
          best.x = lp.x;
          for (int c : integer_cols) {
            auto& v = best.x[static_cast<std::size_t>(c)];
            v = std::round(v);
          }
        } else {
          const double fl = std::floor(branch_val);
          Node down, up_node;
          down.fixes = node.fixes;
          down.fixes.push_back({branch_col, -kInf, fl});
          down.parent_bound = lp.objective;
          up_node.fixes = node.fixes;
          up_node.fixes.push_back({branch_col, fl + 1, kInf});
          up_node.parent_bound = lp.objective;
          // Dive toward the nearer integer first (pushed last -> popped first).
          if (branch_val - fl < 0.5) {
            stack.push_back(std::move(up_node));
            stack.push_back(std::move(down));
          } else {
            stack.push_back(std::move(down));
            stack.push_back(std::move(up_node));
          }
        }
      }
    }

    for (auto it = saved.rbegin(); it != saved.rend(); ++it)
      work.set_col_bounds(it->col, it->lo, it->up);

  next_node:;
  }

  if (!std::isfinite(best.objective)) {
    best.status = any_node_unsolved || !stack.empty() ? Status::IterationLimit
                                                      : Status::Infeasible;
    return best;
  }
  best.proven_optimal = stack.empty() && !any_node_unsolved;
  best.status = best.proven_optimal ? Status::Optimal : Status::IterationLimit;
  return best;
}

}  // namespace olive::lp
