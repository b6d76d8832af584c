// The determinism contract of parallel pricing (docs/parallelism.md): for
// any thread count, solve_plan_vne must return *bit-identical* results to
// the serial run — same LP objective, same columns in the same order, same
// pricing/simplex counters, same column-cache contents — and a SLOTOFF
// window driven by the parallel solver must produce identical SimMetrics.
// This is what makes OLIVE_THREADS purely a wall-clock knob.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/olive.hpp"
#include "core/plan_solver.hpp"
#include "core/scenario.hpp"
#include "core/simulator.hpp"
#include "engine/engine.hpp"
#include "net/embedding.hpp"
#include "serve/server.hpp"

namespace olive::core {
namespace {

constexpr int kThreadCounts[] = {1, 2, 4, 8};

ScenarioConfig small_config(const std::string& topology, std::uint64_t seed) {
  ScenarioConfig cfg;
  cfg.topology = topology;
  cfg.utilization = 1.0;
  cfg.seed = seed;
  cfg.trace.horizon = 400;
  cfg.trace.plan_slots = 300;
  cfg.sim.measure_from = 10;
  cfg.sim.measure_to = 60;
  return cfg;
}

/// Everything observable about one solve, flattened for exact comparison.
struct SolveTrace {
  double objective = 0;
  int rounds = 0;
  int columns_generated = 0;
  long simplex_iterations = 0;
  std::vector<std::uint64_t> fingerprints;  // per class, in column order
  std::vector<double> fractions;
  std::vector<double> rejected_quantiles;
};

bool operator==(const SolveTrace& a, const SolveTrace& b) {
  return a.objective == b.objective && a.rounds == b.rounds &&
         a.columns_generated == b.columns_generated &&
         a.simplex_iterations == b.simplex_iterations &&
         a.fingerprints == b.fingerprints && a.fractions == b.fractions &&
         a.rejected_quantiles == b.rejected_quantiles;
}

SolveTrace solve_with_threads(const Scenario& sc, int threads,
                              PlanColumnCache* cache = nullptr) {
  PlanVneConfig config = sc.config.plan;
  config.threads = threads;
  PlanSolveInfo info;
  const Plan plan = solve_plan_vne(sc.substrate, sc.apps, sc.aggregates,
                                   config, &info, cache);
  EXPECT_EQ(info.pricing_threads, threads);
  SolveTrace t;
  t.objective = info.objective;
  t.rounds = info.rounds;
  t.columns_generated = info.columns_generated;
  t.simplex_iterations = info.simplex_iterations;
  for (const auto& cls : plan.classes()) {
    for (const auto& col : cls.columns) {
      t.fingerprints.push_back(net::fingerprint64(col.embedding));
      t.fractions.push_back(col.fraction);
    }
    for (const double y : cls.rejected_per_quantile)
      t.rejected_quantiles.push_back(y);
  }
  return t;
}

class ParallelDeterminismTest
    : public ::testing::TestWithParam<std::tuple<std::string, std::uint64_t>> {
};

TEST_P(ParallelDeterminismTest, PlanSolveBitIdenticalAcrossThreadCounts) {
  const auto& [topology, seed] = GetParam();
  const Scenario sc = build_scenario(small_config(topology, seed));
  const SolveTrace serial = solve_with_threads(sc, 1);
  ASSERT_FALSE(serial.fingerprints.empty());
  for (const int threads : kThreadCounts) {
    const SolveTrace parallel = solve_with_threads(sc, threads);
    EXPECT_TRUE(serial == parallel) << topology << " seed=" << seed
                                    << " threads=" << threads;
    // Spelled-out diagnostics for the fields that explain a mismatch.
    EXPECT_EQ(serial.objective, parallel.objective) << threads;
    EXPECT_EQ(serial.rounds, parallel.rounds) << threads;
    EXPECT_EQ(serial.columns_generated, parallel.columns_generated) << threads;
    EXPECT_EQ(serial.simplex_iterations, parallel.simplex_iterations)
        << threads;
    EXPECT_EQ(serial.fingerprints, parallel.fingerprints) << threads;
  }
}

TEST_P(ParallelDeterminismTest, WarmCacheSolvesStayBitIdentical) {
  const auto& [topology, seed] = GetParam();
  const Scenario sc = build_scenario(small_config(topology, seed));
  // Column caches are populated during the solve, so cache contents feed
  // back into the *next* solve; two warmed solves per thread count verify
  // the cache trajectory matches too.
  PlanColumnCache serial_cache;
  const SolveTrace s1 = solve_with_threads(sc, 1, &serial_cache);
  const SolveTrace s2 = solve_with_threads(sc, 1, &serial_cache);
  for (const int threads : kThreadCounts) {
    PlanColumnCache cache;
    const SolveTrace p1 = solve_with_threads(sc, threads, &cache);
    const SolveTrace p2 = solve_with_threads(sc, threads, &cache);
    EXPECT_TRUE(s1 == p1) << topology << " threads=" << threads << " (cold)";
    EXPECT_TRUE(s2 == p2) << topology << " threads=" << threads << " (warm)";
  }
}

TEST_P(ParallelDeterminismTest, SlotOffWindowProducesIdenticalSimMetrics) {
  const auto& [topology, seed] = GetParam();
  const Scenario sc = build_scenario(small_config(topology, seed));
  // A short window of the online trace, as in bench/perf_smoke.
  workload::Trace window;
  const int base = sc.online.empty() ? 0 : sc.online.front().arrival;
  for (const auto& r : sc.online)
    if (r.arrival - base < 12) window.push_back(r);
  ASSERT_FALSE(window.empty());

  const auto run_window = [&](int threads) {
    SimulatorConfig sim = sc.config.sim;
    sim.measure_from = 0;
    sim.measure_to = 12;
    sim.drain_slots = 0;
    PlanVneConfig plan = sc.config.plan;
    plan.max_rounds = 8;
    plan.threads = threads;
    engine::Engine eng(sc.substrate, sc.apps, {sim, {}, {}});
    return eng.run_slotoff(window, plan);
  };

  const SimMetrics serial = run_window(1);
  for (const int threads : kThreadCounts) {
    const SimMetrics parallel = run_window(threads);
    EXPECT_EQ(serial.offered, parallel.offered) << threads;
    EXPECT_EQ(serial.accepted, parallel.accepted) << threads;
    EXPECT_EQ(serial.rejected, parallel.rejected) << threads;
    EXPECT_EQ(serial.preempted, parallel.preempted) << threads;
    EXPECT_EQ(serial.rejected_demand, parallel.rejected_demand) << threads;
    EXPECT_EQ(serial.resource_cost, parallel.resource_cost) << threads;
    EXPECT_EQ(serial.rejection_cost, parallel.rejection_cost) << threads;
    EXPECT_EQ(serial.plan_solves, parallel.plan_solves) << threads;
    EXPECT_EQ(serial.plan_simplex_iterations, parallel.plan_simplex_iterations)
        << threads;
    EXPECT_EQ(serial.plan_rounds, parallel.plan_rounds) << threads;
    EXPECT_EQ(serial.plan_columns_generated, parallel.plan_columns_generated)
        << threads;
    EXPECT_EQ(serial.plan_objective_sum, parallel.plan_objective_sum)
        << threads;
    EXPECT_EQ(serial.allocated_series, parallel.allocated_series) << threads;
  }
}

// Async mid-run re-planning must honor the same contract: the install slot
// is fixed by the policy (never by solver latency) and the re-plan solves
// are bit-identical across pricing thread counts, so an Engine run with
// ReplanPolicy on produces identical SimMetrics at every OLIVE_THREADS
// value — whether the solve overlaps the embedding loop or runs inline.
TEST(ReplanDeterminism, EngineRunBitIdenticalAcrossThreadCounts) {
  ScenarioConfig cfg = small_config("Iris", 7);
  cfg.drift = 1.5;  // drifting demand, so every re-plan changes the plan
  cfg.sim.drain_slots = 10;
  const Scenario sc = build_scenario(cfg);

  // The same slot loop under its other drivers: Engine::run_stream, and
  // serve::Server::run_simulated, whose solves read a SimulatedClock from
  // the pool threads.  The sweep covers the async re-plan path of each.
  enum Driver { kRun, kStream, kSimulated };
  const auto run_with_threads = [&](int threads, Driver driver) {
    engine::EngineConfig ecfg;
    ecfg.sim = cfg.sim;
    ecfg.replan.period = 20;
    ecfg.replan.plan = cfg.plan;
    ecfg.replan.plan.max_rounds = 8;
    ecfg.replan.plan.threads = threads;
    ecfg.replan.seed = cfg.seed;
    engine::Engine eng(sc.substrate, sc.apps, ecfg);
    OliveEmbedder algo(sc.substrate, sc.apps, sc.plan, "OLIVE");
    if (driver == kRun) return eng.run(algo, sc.online);
    workload::VectorTraceStream stream(sc.online, cfg.trace.horizon);
    if (driver == kStream) return eng.run_stream(algo, stream);
    serve::ServerConfig scfg;
    scfg.sim = ecfg.sim;
    scfg.replan = ecfg.replan;
    serve::Server server(sc.substrate, sc.apps, scfg);
    return server.run_simulated(algo, stream);
  };

  const SimMetrics serial = run_with_threads(1, kRun);
  ASSERT_GT(serial.replans, 0);
  for (const auto& [threads, driver] :
       {std::pair{4, kRun}, std::pair{1, kStream}, std::pair{4, kStream},
        std::pair{1, kSimulated}, std::pair{4, kSimulated}}) {
    SCOPED_TRACE(driver == kRun      ? "run"
                 : driver == kStream ? "run_stream"
                                     : "run_simulated");
    const SimMetrics parallel = run_with_threads(threads, driver);
    EXPECT_EQ(serial.offered, parallel.offered) << threads;
    EXPECT_EQ(serial.accepted, parallel.accepted) << threads;
    EXPECT_EQ(serial.rejected, parallel.rejected) << threads;
    EXPECT_EQ(serial.preempted, parallel.preempted) << threads;
    EXPECT_EQ(serial.rejected_demand, parallel.rejected_demand) << threads;
    EXPECT_EQ(serial.resource_cost, parallel.resource_cost) << threads;
    EXPECT_EQ(serial.rejection_cost, parallel.rejection_cost) << threads;
    EXPECT_EQ(serial.replans, parallel.replans) << threads;
    EXPECT_EQ(serial.plan_solves, parallel.plan_solves) << threads;
    EXPECT_EQ(serial.plan_simplex_iterations,
              parallel.plan_simplex_iterations)
        << threads;
    EXPECT_EQ(serial.plan_rounds, parallel.plan_rounds) << threads;
    EXPECT_EQ(serial.plan_columns_generated, parallel.plan_columns_generated)
        << threads;
    EXPECT_EQ(serial.plan_objective_sum, parallel.plan_objective_sum)
        << threads;
    EXPECT_EQ(serial.plan_warm_start_hits, parallel.plan_warm_start_hits)
        << threads;
    EXPECT_EQ(serial.allocated_series, parallel.allocated_series) << threads;
    EXPECT_EQ(serial.rejected_by_node_app, parallel.rejected_by_node_app)
        << threads;
  }
}

// Portfolio re-planning widens each launch to K concurrent candidate
// solves scored by world-snapshot replays — all of it still under the same
// contract.  Sweep K ∈ {1, 2, 4} × pricing threads {1, 4}: for every K the
// run must be bitwise stable across thread counts (the candidate recipes,
// the replay scores, and the winner pick are pure functions of the trace
// prefix and the launch-slot snapshot, so concurrency only moves wall
// clock).  K = 1 runs the same candidate loop with a single, unscored
// candidate.
TEST(ReplanDeterminism, PortfolioSweepBitwiseStableAcrossThreadCounts) {
  ScenarioConfig cfg = small_config("Iris", 7);
  cfg.drift = 1.5;
  cfg.sim.drain_slots = 10;
  const Scenario sc = build_scenario(cfg);

  const auto run_with = [&](int candidates, int threads) {
    engine::EngineConfig ecfg;
    ecfg.sim = cfg.sim;
    ecfg.replan.period = 20;
    ecfg.replan.plan = cfg.plan;
    ecfg.replan.plan.max_rounds = 8;
    ecfg.replan.plan.threads = threads;
    ecfg.replan.seed = cfg.seed;
    ecfg.replan.candidates = candidates;
    engine::Engine eng(sc.substrate, sc.apps, ecfg);
    OliveEmbedder algo(sc.substrate, sc.apps, sc.plan, "OLIVE");
    return eng.run(algo, sc.online);
  };

  for (const int candidates : {1, 2, 4}) {
    const SimMetrics serial = run_with(candidates, 1);
    ASSERT_GT(serial.replans, 0) << "K=" << candidates;
    for (const int threads : {4}) {
      const SimMetrics parallel = run_with(candidates, threads);
      const std::string tag =
          "K=" + std::to_string(candidates) +
          " threads=" + std::to_string(threads);
      EXPECT_EQ(serial.offered, parallel.offered) << tag;
      EXPECT_EQ(serial.accepted, parallel.accepted) << tag;
      EXPECT_EQ(serial.rejected, parallel.rejected) << tag;
      EXPECT_EQ(serial.preempted, parallel.preempted) << tag;
      EXPECT_EQ(serial.rejected_demand, parallel.rejected_demand) << tag;
      EXPECT_EQ(serial.resource_cost, parallel.resource_cost) << tag;
      EXPECT_EQ(serial.rejection_cost, parallel.rejection_cost) << tag;
      EXPECT_EQ(serial.replans, parallel.replans) << tag;
      EXPECT_EQ(serial.allocated_series, parallel.allocated_series) << tag;
      EXPECT_EQ(serial.rejected_by_node_app, parallel.rejected_by_node_app)
          << tag;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Topologies, ParallelDeterminismTest,
    ::testing::Values(std::make_tuple(std::string("Iris"), 7ULL),
                      std::make_tuple(std::string("Iris"), 1234ULL),
                      std::make_tuple(std::string("CittaStudi"), 7ULL),
                      std::make_tuple(std::string("CittaStudi"), 99ULL)),
    [](const auto& info) {
      return std::get<0>(info.param) + "_seed" +
             std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace olive::core
