// LP certificate suite: the simplex's answers are checked against the model
// itself (the KKT certificate of lp_certificate.hpp) and against cold
// solves, not against a second basis engine.
//
// Coverage: random LPs (feasible by construction, phase 1 included), every
// resolve() of a column-generation loop, and full PLAN-VNE solves across
// seeds × {Iris, CittaStudi, FatTree4} × pricing threads {1, 4}, where a
// warm-started master must reach the cold master's objective under demand
// churn and a chain of warm-started solves must be bit-identical at every
// thread count.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <tuple>
#include <vector>

#include "core/scenario.hpp"
#include "lp/simplex.hpp"
#include "lp_certificate.hpp"
#include "net/embedding.hpp"
#include "util/rng.hpp"

namespace olive {
namespace {

TEST(LpCertificate, RandomLpsAreOptimalAndCertified) {
  Rng rng(stable_hash("basis-differential-lp"));
  for (int draw = 0; draw < 12; ++draw) {
    SCOPED_TRACE("draw " + std::to_string(draw));
    const lp::Model m = lp::random_feasible_lp(rng, /*n_cols=*/80,
                                               /*n_rows=*/22);
    lp::expect_kkt_certificate(m, lp::solve_lp(m));
  }
}

TEST(LpCertificate, ColumnGenerationResolvesAreCertified) {
  // x = 0 satisfies every row, so each grown model is feasible and bounded.
  Rng rng(stable_hash("basis-differential-colgen"));
  lp::Model m;
  for (int c = 0; c < 50; ++c)
    m.add_col(0, rng.uniform(0.5, 2.0), rng.uniform(-4.0, 4.0));
  for (int r = 0; r < 18; ++r) {
    const int row = m.add_row(lp::Sense::LE, rng.uniform(2.0, 9.0));
    for (int k = 0; k < 5; ++k)
      m.add_entry(row, static_cast<int>(rng.below(50)), rng.uniform(0.1, 1.3));
  }
  lp::Simplex solver(m);
  lp::expect_kkt_certificate(m, solver.solve());
  for (int batch = 0; batch < 4; ++batch) {
    SCOPED_TRACE("batch " + std::to_string(batch));
    for (int k = 0; k < 20; ++k) {
      const double up = rng.uniform(0.5, 2.0);
      const double cost = rng.uniform(-6.0, 1.0);
      lp::SparseColumn entries;
      for (int e = 0; e < 4; ++e)
        entries.emplace_back(static_cast<int>(rng.below(18)),
                             rng.uniform(0.1, 1.4));
      solver.add_column(0, up, cost, entries);
      m.add_col_with_entries(0, up, cost, entries);
    }
    const lp::SolveResult warm = solver.resolve();
    lp::expect_kkt_certificate(m, warm);
    const lp::SolveResult cold = lp::solve_lp(m);
    ASSERT_EQ(cold.status, lp::Status::Optimal);
    EXPECT_NEAR(warm.objective, cold.objective,
                1e-9 * (1 + std::abs(cold.objective)));
  }
}

class PlanBasisDifferential
    : public ::testing::TestWithParam<std::tuple<std::string, int, int>> {};

core::ScenarioConfig differential_config(const std::string& topology,
                                         int seed, int threads) {
  core::ScenarioConfig cfg;
  cfg.topology = topology;
  cfg.seed = static_cast<std::uint64_t>(seed);
  cfg.trace.horizon = 260;
  cfg.trace.plan_slots = 200;
  cfg.plan.threads = threads;
  return cfg;
}

struct PlanInventory {
  /// Per class, in order: (embedding fingerprint, fraction).
  struct Col {
    std::uint64_t fingerprint;
    double fraction;
  };
  std::vector<std::vector<Col>> classes;
};

/// Solves `aggs` on the scenario's substrate at the given pricing thread
/// count, warm-started from (and updating) `warm` when given, and returns
/// the solve info plus the plan's full column inventory.
std::pair<core::PlanSolveInfo, PlanInventory> solve_with(
    const core::Scenario& sc, int threads,
    const std::vector<core::AggregateRequest>& aggs,
    core::PlanWarmStart* warm = nullptr) {
  core::PlanVneConfig cfg = sc.config.plan;
  cfg.threads = threads;
  core::PlanSolveInfo info;
  const core::Plan plan = core::solve_plan_vne(sc.substrate, sc.apps, aggs,
                                               cfg, &info, nullptr, warm);
  PlanInventory inventory;
  for (int c = 0; c < plan.num_classes(); ++c) {
    std::vector<PlanInventory::Col> cls;
    for (const auto& col : plan.cls(c).columns)
      cls.push_back({net::fingerprint64(col.embedding), col.fraction});
    inventory.classes.push_back(std::move(cls));
  }
  return {info, std::move(inventory)};
}

/// The consecutive-slot regime both tests below run: the scenario's
/// aggregates under a deterministic ±7% demand churn per rep.
std::vector<core::AggregateRequest> churned(const core::Scenario& sc,
                                            int seed, int rep) {
  Rng r = Rng(stable_hash("basis-differential-churn"))
              .fork(static_cast<std::uint64_t>(seed * 10 + rep));
  auto aggs = sc.aggregates;
  for (auto& a : aggs) a.demand *= r.uniform(0.93, 1.07);
  return aggs;
}

TEST_P(PlanBasisDifferential, ObjectivesAndColumnSetsBitIdentical) {
  // A chain of solves that carries the basis from rep to rep (rep 0 starts
  // cold) is bit-identical at the instance's pricing thread count and
  // serially: the LP optimum, the pricing and pivot trajectory, the warm
  // hits, and the plan's column inventory down to the fractions.
  const auto& [topology, seed, threads] = GetParam();
  const core::Scenario sc =
      core::build_scenario(differential_config(topology, seed, threads));

  core::PlanWarmStart serial_warm, warm;
  for (int rep = 0; rep < 3; ++rep) {
    SCOPED_TRACE("rep " + std::to_string(rep));
    const auto aggs = churned(sc, seed, rep);
    const auto [serial_info, serial_cols] =
        solve_with(sc, 1, aggs, &serial_warm);
    const auto [info, cols] = solve_with(sc, threads, aggs, &warm);
    EXPECT_EQ(serial_info.objective, info.objective);
    EXPECT_EQ(serial_info.columns_generated, info.columns_generated);
    EXPECT_EQ(serial_info.rounds, info.rounds);
    EXPECT_EQ(serial_info.simplex_iterations, info.simplex_iterations);
    EXPECT_EQ(serial_info.warm_start_hit, info.warm_start_hit);
    ASSERT_EQ(serial_cols.classes.size(), cols.classes.size());
    for (std::size_t c = 0; c < cols.classes.size(); ++c) {
      ASSERT_EQ(serial_cols.classes[c].size(), cols.classes[c].size())
          << "class " << c;
      for (std::size_t k = 0; k < cols.classes[c].size(); ++k) {
        EXPECT_EQ(serial_cols.classes[c][k].fingerprint,
                  cols.classes[c][k].fingerprint)
            << "class " << c << " col " << k;
        EXPECT_EQ(serial_cols.classes[c][k].fraction,
                  cols.classes[c][k].fraction)
            << "class " << c << " col " << k;
      }
    }
  }
}

TEST_P(PlanBasisDifferential, WarmStartedResolvesAgree) {
  // Basis carried across the churned reps.  A warm start changes where the
  // master's simplex starts, never where it ends: each warm-started solve
  // must reach the objective of a cold solve of the same aggregates.  Only
  // the objective is compared — from a repaired warm basis, degenerate ties
  // can land on a different vertex of the same optimal face (equal cost,
  // different per-class allocations).
  const auto& [topology, seed, threads] = GetParam();
  const core::Scenario sc =
      core::build_scenario(differential_config(topology, seed, threads));

  core::PlanWarmStart warm;
  for (int rep = 0; rep < 3; ++rep) {
    const auto aggs = churned(sc, seed, rep);
    const auto [warm_info, warm_cols] = solve_with(sc, threads, aggs, &warm);
    const auto [cold_info, cold_cols] = solve_with(sc, threads, aggs);
    EXPECT_EQ(warm_info.warm_start_attempted, rep > 0) << "rep " << rep;
    EXPECT_NEAR(warm_info.objective, cold_info.objective,
                1e-12 * std::abs(cold_info.objective))
        << "rep " << rep;
    EXPECT_EQ(warm_cols.classes.size(), cold_cols.classes.size())
        << "rep " << rep;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Topologies, PlanBasisDifferential,
    ::testing::Combine(::testing::Values(std::string("Iris"),
                                         std::string("CittaStudi"),
                                         std::string("FatTree4")),
                       ::testing::Values(3, 17),
                       ::testing::Values(1, 4)),
    [](const auto& info) {
      return std::get<0>(info.param) + "_seed" +
             std::to_string(std::get<1>(info.param)) + "_t" +
             std::to_string(std::get<2>(info.param));
    });

}  // namespace
}  // namespace olive
