// Golden-trace regression: a tiny, fully hand-written SLOTOFF scenario
// (Iris, 10 slots, 13 requests, 2 hand-built applications) with its exact
// expected accept/reject/preempt tallies, per-slot allocation sequence, and
// costs checked in.  Solver changes that silently alter the rounding
// trajectory — equal-cost column choices, LP pivot order, quantile handling
// — fail here instead of only drifting BENCH_perf.json.
//
// The expectations were captured from the serial solver; the determinism
// contract (tests/parallel_determinism_test.cpp) guarantees every thread
// count reproduces them.  Costs use a tight *relative* tolerance rather
// than bit equality so the goldens survive compiler/libm differences; the
// discrete sequences (counts, per-slot allocations) are exact.
#include <gtest/gtest.h>

#include "core/simulator.hpp"
#include "engine/engine.hpp"
#include "topo/topologies.hpp"
#include "util/rng.hpp"

namespace olive::core {
namespace {

constexpr double kRelTol = 1e-9;

void expect_rel_eq(double expected, double actual, const char* what) {
  EXPECT_NEAR(expected, actual, std::abs(expected) * kRelTol) << what;
}

/// The SLOTOFF run settings every golden test varies.
struct GoldenConfig {
  SimulatorConfig sim;
  PlanVneConfig plan;
  bool warm_start = true;
};

GoldenConfig golden_config() {
  GoldenConfig so;
  so.sim.measure_from = 0;
  so.sim.measure_to = 10;
  so.sim.drain_slots = 0;
  so.plan.max_rounds = 8;
  return so;
}

struct GoldenScenario {
  net::SubstrateNetwork substrate;
  std::vector<net::Application> apps;
  workload::Trace trace;
};

GoldenScenario golden_scenario() {
  Rng rng(stable_hash("golden-trace"));
  GoldenScenario g;
  g.substrate = topo::iris(rng);

  g.apps.push_back(
      {"golden-chain", net::VirtualNetwork::chain({2.0, 1.0}, {1.0, 0.5})});
  g.apps.push_back(
      {"golden-star", net::VirtualNetwork({0, 0}, {1.0, 3.0}, {2.0, 1.0})});

  // Demands are sized against Iris's edge tier (node 200k CU, link 100k CU)
  // so the window oversubscribes: some requests must be dropped, and at
  // least one established request must be preempted by a later re-plan.
  // {id, arrival, duration, ingress, app, demand}
  g.trace.push_back({0, 0, 4, 3, 0, 80000});
  g.trace.push_back({1, 0, 6, 17, 1, 150000});
  g.trace.push_back({2, 1, 3, 3, 0, 120000});
  g.trace.push_back({3, 1, 5, 8, 1, 70000});
  g.trace.push_back({4, 2, 4, 3, 0, 150000});
  g.trace.push_back({5, 2, 2, 29, 0, 130000});
  g.trace.push_back({6, 3, 6, 17, 1, 110000});
  g.trace.push_back({7, 4, 3, 3, 1, 90000});
  g.trace.push_back({8, 5, 4, 8, 0, 130000});
  g.trace.push_back({9, 6, 2, 29, 1, 80000});
  g.trace.push_back({10, 7, 3, 17, 0, 120000});
  g.trace.push_back({11, 8, 2, 3, 0, 150000});
  g.trace.push_back({12, 9, 1, 8, 1, 140000});
  return g;
}

SimMetrics run_golden(const GoldenScenario& g, const GoldenConfig& so) {
  engine::Engine eng(g.substrate, g.apps, engine::EngineConfig{so.sim, {}, {}});
  return eng.run_slotoff(g.trace, so.plan, so.warm_start);
}

void expect_golden_outcomes(const SimMetrics& m) {
  // Outcome tallies (exact).
  EXPECT_EQ(m.offered, 13);
  EXPECT_EQ(m.accepted, 7);
  EXPECT_EQ(m.rejected, 5);
  EXPECT_EQ(m.preempted, 1);
  EXPECT_DOUBLE_EQ(m.offered_demand, 1520000.0);
  EXPECT_DOUBLE_EQ(m.rejected_demand, 680000.0);

  // Per-slot accepted allocation (exact: demands are integers and the
  // rounding step allocates whole requests).
  const std::vector<double> expected_alloc{80000,  270000, 420000, 420000,
                                           310000, 370000, 220000, 250000,
                                           400000, 270000};
  EXPECT_EQ(m.allocated_series, expected_alloc);

  // Solver work (exact integers).
  EXPECT_EQ(m.plan_solves, 10);
  EXPECT_EQ(m.plan_rounds, 7);
  EXPECT_EQ(m.plan_columns_generated, 8);

  // Costs (tight relative tolerance).
  expect_rel_eq(8741503.5961576905, m.resource_cost, "resource_cost");
  expect_rel_eq(713855581.82998705, m.rejection_cost, "rejection_cost");
  expect_rel_eq(21718310.407213915, m.plan_objective_sum,
                "plan_objective_sum");
}

TEST(GoldenTrace, SlotOffTenSlotIrisWindow) {
  const GoldenScenario g = golden_scenario();
  const SimMetrics m = run_golden(g, golden_config());
  expect_golden_outcomes(m);
  // Basis warm starts: the first slot is necessarily cold; every later slot
  // re-starts from the previous optimal basis and the pivot count drops by
  // more than half relative to the cold-start path pinned below.
  EXPECT_EQ(m.plan_warm_start_hits, 9);
  EXPECT_EQ(m.plan_simplex_iterations, 152);
}

TEST(GoldenTrace, EngineDrivenSlotOffReproducesTheGoldenWindow) {
  // An observer watches the window without changing a golden number.
  const GoldenScenario g = golden_scenario();
  const GoldenConfig so = golden_config();
  engine::Engine eng(g.substrate, g.apps, engine::EngineConfig{so.sim, {}, {}});
  engine::Observer passive;
  eng.add_observer(&passive);
  const SimMetrics m = eng.run_slotoff(g.trace, so.plan, so.warm_start);
  expect_golden_outcomes(m);
  EXPECT_EQ(m.plan_warm_start_hits, 9);
  EXPECT_EQ(m.plan_simplex_iterations, 152);
}

TEST(GoldenTrace, ColdStartsReproduceTheSameWindowWithMorePivots) {
  const GoldenScenario g = golden_scenario();
  GoldenConfig so = golden_config();
  so.warm_start = false;
  const SimMetrics m = run_golden(g, so);
  // Identical outcomes, costs, and per-slot LP objective sums — the warm
  // start changes only where the simplex starts, never where it ends.
  expect_golden_outcomes(m);
  EXPECT_EQ(m.plan_warm_start_hits, 0);
  EXPECT_EQ(m.plan_simplex_iterations, 336);
}

}  // namespace
}  // namespace olive::core
