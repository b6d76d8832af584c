// Regression tests for the simplex pricing machinery: candidate-list
// partial pricing, the steepest-edge rule and incremental dual updates must
// reach a certified optimum (lp_certificate.hpp) on every model, including
// warm-started column generation and phase-1 instances.  The certificate
// prices every column, so it is the full-scan optimality check the
// candidate list defers to.
//
// Every model has more than the 192 internal columns (structural + slack)
// from which the candidate list engages, and more eligible columns than the
// list's 128 slots, so each solve runs minor iterations and refreshes the
// list at its capped size.
#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "lp/model.hpp"
#include "lp/simplex.hpp"
#include "lp_certificate.hpp"
#include "util/rng.hpp"

namespace olive::lp {
namespace {

SimplexOptions steepest_edge() {
  SimplexOptions o;
  o.pricing = PricingRule::SteepestEdge;
  return o;
}

/// A random column for the colgen loops: lower bound 0, so the model's
/// interior point stays feasible with the new column at 0.
SparseColumn random_column(Rng& rng, int rows, double* up, double* cost) {
  *up = rng.uniform(0.5, 2.0);
  *cost = rng.uniform(-6.0, 2.0);
  SparseColumn entries;
  for (int e = 0; e < 5; ++e)
    entries.emplace_back(static_cast<int>(rng.below(rows)),
                         rng.uniform(0.1, 1.5));
  return entries;
}

TEST(SimplexPricing, PartialMatchesFullOnRandomModels) {
  Rng rng(stable_hash("pricing-equivalence"));
  for (int draw = 0; draw < 20; ++draw) {
    SCOPED_TRACE("draw " + std::to_string(draw));
    const Model m = random_feasible_lp(rng, /*n_cols=*/320, /*n_rows=*/30);
    expect_kkt_certificate(m, solve_lp(m));
  }
}

TEST(SimplexPricing, PartialMatchesFullUnderColumnGeneration) {
  Rng rng(stable_hash("pricing-colgen"));
  for (int draw = 0; draw < 6; ++draw) {
    SCOPED_TRACE("draw " + std::to_string(draw));
    Model m = random_feasible_lp(rng, /*n_cols=*/300, /*n_rows=*/20);
    Simplex solver(m);
    expect_kkt_certificate(m, solver.solve());
    for (int batch = 0; batch < 4; ++batch) {
      SCOPED_TRACE("batch " + std::to_string(batch));
      for (int k = 0; k < 30; ++k) {
        double up, cost;
        const SparseColumn entries = random_column(rng, 20, &up, &cost);
        solver.add_column(0, up, cost, entries);
        m.add_col_with_entries(0, up, cost, entries);
      }
      expect_kkt_certificate(m, solver.resolve());
    }
  }
}

TEST(SimplexPricing, WeightedRulesReachTheDantzigOptimum) {
  // Steepest edge picks a different pivot path, never a different optimum:
  // on every random model (including phase-1 instances) both rules must
  // reach a certified optimum with the same objective.
  Rng rng(stable_hash("pricing-rules"));
  for (int draw = 0; draw < 12; ++draw) {
    SCOPED_TRACE("draw " + std::to_string(draw));
    const Model m = random_feasible_lp(rng, /*n_cols=*/320, /*n_rows=*/30);
    const auto dantzig = solve_lp(m);
    const auto steepest = solve_lp(m, steepest_edge());
    expect_kkt_certificate(m, dantzig);
    expect_kkt_certificate(m, steepest);
    EXPECT_NEAR(dantzig.objective, steepest.objective,
                1e-7 * (1.0 + std::abs(dantzig.objective)));
  }
}

TEST(SimplexPricing, SteepestEdgeUnderColumnGeneration) {
  // The weight framework must survive the colgen loop: appended columns get
  // their reference weights at the next run() start, and resolve() after
  // each batch still reaches the Dantzig optimum.
  Rng rng(stable_hash("pricing-rules-colgen"));
  for (int draw = 0; draw < 4; ++draw) {
    SCOPED_TRACE("draw " + std::to_string(draw));
    Model m = random_feasible_lp(rng, /*n_cols=*/300, /*n_rows=*/20);
    Simplex dantzig(m);
    Simplex steepest(m, steepest_edge());
    expect_kkt_certificate(m, dantzig.solve());
    expect_kkt_certificate(m, steepest.solve());
    for (int batch = 0; batch < 4; ++batch) {
      SCOPED_TRACE("batch " + std::to_string(batch));
      for (int k = 0; k < 30; ++k) {
        double up, cost;
        const SparseColumn entries = random_column(rng, 20, &up, &cost);
        dantzig.add_column(0, up, cost, entries);
        steepest.add_column(0, up, cost, entries);
        m.add_col_with_entries(0, up, cost, entries);
      }
      const auto rd = dantzig.resolve();
      const auto rs = steepest.resolve();
      expect_kkt_certificate(m, rd);
      expect_kkt_certificate(m, rs);
      EXPECT_NEAR(rd.objective, rs.objective,
                  1e-7 * (1.0 + std::abs(rd.objective)));
    }
  }
}

TEST(SimplexPricing, DualsAgreeBetweenPricingModes) {
  // Duals are recomputed exactly at optimality, so under either rule the
  // returned duals must certify the returned primal.
  Rng rng(stable_hash("pricing-duals"));
  const Model m = random_feasible_lp(rng, /*n_cols=*/320, /*n_rows=*/30);
  for (const auto& opts : {SimplexOptions{}, steepest_edge()}) {
    const auto res = solve_lp(m, opts);
    ASSERT_EQ(res.duals.size(), static_cast<std::size_t>(m.num_rows()));
    expect_kkt_certificate(m, res);
  }
}

}  // namespace
}  // namespace olive::lp
