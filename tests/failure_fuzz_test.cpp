// Randomized fuzz/differential sweep over substrate-dynamics scenarios
// (part of the `concurrency` CTest label; runs under TSan and ASan+UBSan
// in CI).
//
// Each seeded case draws a random scenario shape — topology, demand drift,
// failure intensity (node/link outages + rescales, sometimes hitting edge
// nodes), correlated shared-risk groups, scheduled maintenance, repair
// policy (batched / per-request / drop), and mid-run re-planning with the
// failure-burst trigger and capacity-aware masters — and asserts the
// determinism contract end to end: bit-identical SimMetrics at
// OLIVE_THREADS-equivalent pricing thread counts {1, 4} (the engine's
// install slots are policy-fixed and failure handling is trace-driven, so
// threading must be invisible).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "core/olive.hpp"
#include "core/scenario.hpp"
#include "core/simulator.hpp"
#include "engine/engine.hpp"
#include "util/rng.hpp"

namespace olive {
namespace {

struct FuzzShape {
  core::ScenarioConfig cfg;
  bool replan = false;
};

/// Derives one random-but-reproducible scenario shape from a seed.
FuzzShape shape_from_seed(std::uint64_t seed) {
  Rng rng(seed);
  FuzzShape shape;
  core::ScenarioConfig& cfg = shape.cfg;
  cfg.topology = rng.chance(0.5) ? "Iris" : "CittaStudi";
  cfg.utilization = rng.uniform(0.8, 1.2);
  cfg.seed = seed;
  cfg.trace.horizon = 300;
  cfg.trace.plan_slots = 220;
  cfg.sim.measure_from = 5;
  cfg.sim.measure_to = 60;
  cfg.sim.drain_slots = 15;
  cfg.drift = rng.chance(0.5) ? rng.uniform(0.5, 1.5) : 0.0;
  cfg.failures.node_mtbf = rng.uniform(150, 500);
  cfg.failures.link_mtbf = rng.uniform(300, 900);
  cfg.failures.repair_mean = rng.uniform(5, 30);
  cfg.failures.rescale_rate = rng.chance(0.5) ? 0.05 : 0.0;
  cfg.failures.fail_edge = rng.chance(0.3);
  if (rng.chance(0.5)) {
    // Correlated dimension: derived rack/pod shared-risk groups.
    cfg.failures.derive_groups = true;
    cfg.failures.group_mtbf = rng.uniform(400, 1200);
  }
  if (rng.chance(0.5)) {
    // Deterministic dimension: a scheduled transport maintenance window.
    workload::MaintenanceWindow w;
    w.slot = static_cast<int>(rng.uniform(10, 60));
    w.duration = static_cast<int>(rng.uniform(5, 20));
    w.tier = net::Tier::Transport;
    w.count = rng.chance(0.5) ? 1 : 2;
    cfg.failures.maintenance.push_back(w);
  }
  const double policy = rng.uniform(0.0, 1.0);
  cfg.failure_repair = policy < 0.5   ? core::RepairPolicy::Batched
                       : policy < 0.8 ? core::RepairPolicy::Migrate
                                      : core::RepairPolicy::Drop;
  shape.replan = rng.chance(0.5);
  return shape;
}

/// One full engine-driven run of the shape at the given pricing thread
/// count.  `opt` selects the OLIVE admission path — the fast-path
/// differential below runs the same shape with the cache / speculation
/// machinery on and off.
core::SimMetrics run_shape(const FuzzShape& shape, int threads,
                           core::OliveOptions opt = {}) {
  core::ScenarioConfig cfg = shape.cfg;
  cfg.plan.threads = threads;
  const core::Scenario sc = core::build_scenario(cfg);

  engine::EngineConfig ecfg;
  ecfg.sim = cfg.sim;
  ecfg.failures.trace = sc.failure_trace;
  ecfg.failures.repair = cfg.failure_repair;
  if (shape.replan) {
    ecfg.replan.period = 25;
    ecfg.replan.failure_burst = 4;
    ecfg.replan.plan = cfg.plan;
    ecfg.replan.plan.max_rounds = 6;
    ecfg.replan.seed = cfg.seed;
  }
  engine::Engine eng(sc.substrate, sc.apps, ecfg);
  core::OliveEmbedder algo(sc.substrate, sc.apps, sc.plan, "OLIVE", opt);
  return eng.run(algo, sc.online);
}

/// Full bitwise comparison over every deterministic SimMetrics field,
/// including the substrate-dynamics counters.
void expect_identical(const core::SimMetrics& a, const core::SimMetrics& b,
                      const std::string& what) {
  EXPECT_EQ(a.offered, b.offered) << what;
  EXPECT_EQ(a.accepted, b.accepted) << what;
  EXPECT_EQ(a.rejected, b.rejected) << what;
  EXPECT_EQ(a.preempted, b.preempted) << what;
  EXPECT_EQ(a.offered_demand, b.offered_demand) << what;
  EXPECT_EQ(a.rejected_demand, b.rejected_demand) << what;
  EXPECT_EQ(a.resource_cost, b.resource_cost) << what;
  EXPECT_EQ(a.rejection_cost, b.rejection_cost) << what;
  EXPECT_EQ(a.offered_series, b.offered_series) << what;
  EXPECT_EQ(a.allocated_series, b.allocated_series) << what;
  EXPECT_EQ(a.rejected_by_node_app, b.rejected_by_node_app) << what;
  EXPECT_EQ(a.requests_by_node, b.requests_by_node) << what;
  EXPECT_EQ(a.plan_solves, b.plan_solves) << what;
  EXPECT_EQ(a.plan_objective_sum, b.plan_objective_sum) << what;
  EXPECT_EQ(a.replans, b.replans) << what;
  EXPECT_EQ(a.failures, b.failures) << what;
  EXPECT_EQ(a.failure_hit, b.failure_hit) << what;
  EXPECT_EQ(a.migrations, b.migrations) << what;
  EXPECT_EQ(a.sla_violations, b.sla_violations) << what;
  EXPECT_EQ(a.repairs_patched, b.repairs_patched) << what;
  EXPECT_EQ(a.repairs_reembedded, b.repairs_reembedded) << what;
  EXPECT_EQ(a.repairs_batched, b.repairs_batched) << what;
}

class FailureFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FailureFuzzTest, BitIdenticalAcrossThreadCounts) {
  const FuzzShape shape = shape_from_seed(GetParam());
  const core::SimMetrics serial = run_shape(shape, 1);
  EXPECT_GT(serial.offered, 0);
  EXPECT_GT(serial.failures, 0);
  const core::SimMetrics parallel = run_shape(shape, 4);
  expect_identical(serial, parallel,
                   "threads 1 vs 4, seed " + std::to_string(GetParam()));
}

TEST_P(FailureFuzzTest, FastPathCacheBitIdentical) {
  // The admission fast path (docs/olive-fastpath.md) under the full
  // substrate-dynamics gauntlet: failures, preemption, rescales, plan
  // hot-swaps.  Decisions must be bit-identical with the cache off, with it
  // on but unspeculated (spec_threads = 1), and with forced 4-wide
  // speculation — FastPathStats are diagnostics and excluded on purpose.
  const FuzzShape shape = shape_from_seed(GetParam());
  core::OliveOptions off;
  off.enable_fastpath = false;
  core::OliveOptions cache_only;
  cache_only.spec_threads = 1;
  core::OliveOptions spec4;
  spec4.spec_threads = 4;
  const core::SimMetrics base = run_shape(shape, 1, off);
  EXPECT_GT(base.offered, 0);
  expect_identical(base, run_shape(shape, 1, cache_only),
                   "fastpath off vs cache, seed " + std::to_string(GetParam()));
  expect_identical(base, run_shape(shape, 1, spec4),
                   "fastpath off vs spec4, seed " + std::to_string(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, FailureFuzzTest,
                         ::testing::Values(11ULL, 23ULL, 37ULL, 58ULL,
                                           71ULL),
                         [](const auto& info) {
                           return "seed" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace olive
