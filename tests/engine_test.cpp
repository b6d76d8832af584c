// The engine's contracts: the EmbedderRegistry resolves the built-ins (and
// one-file plugins) by name, observers see every slot and outcome without
// perturbing the run, on the drifting-utilization scenario the asynchronous
// ReplanPolicy beats the static plan, every re-plan window clipped from
// the slot loop's admission log equals the clip of the full trace, and a
// run that ends early by the end rule loses nothing a live drive sees.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/olive.hpp"
#include "core/scenario.hpp"
#include "core/simulator.hpp"
#include "engine/engine.hpp"
#include "engine/registry.hpp"
#include "engine/slot_loop.hpp"
#include "net/embedding.hpp"
#include "serve/clock.hpp"
#include "workload/failures.hpp"
#include "workload/stream.hpp"

namespace olive::engine {
namespace {

core::ScenarioConfig small_config(std::uint64_t seed = 7) {
  core::ScenarioConfig cfg;
  cfg.topology = "Iris";
  cfg.utilization = 1.0;
  cfg.seed = seed;
  cfg.trace.horizon = 400;
  cfg.trace.plan_slots = 300;
  cfg.sim.measure_from = 10;
  cfg.sim.measure_to = 60;
  return cfg;
}

/// Bitwise equality over every deterministic SimMetrics field (wall-clock
/// fields are excluded: algo_seconds/replan_seconds measure elapsed time).
void expect_metrics_identical(const core::SimMetrics& a,
                              const core::SimMetrics& b) {
  EXPECT_EQ(a.algorithm, b.algorithm);
  EXPECT_EQ(a.offered, b.offered);
  EXPECT_EQ(a.accepted, b.accepted);
  EXPECT_EQ(a.rejected, b.rejected);
  EXPECT_EQ(a.preempted, b.preempted);
  EXPECT_EQ(a.offered_demand, b.offered_demand);
  EXPECT_EQ(a.rejected_demand, b.rejected_demand);
  EXPECT_EQ(a.resource_cost, b.resource_cost);
  EXPECT_EQ(a.rejection_cost, b.rejection_cost);
  EXPECT_EQ(a.offered_series, b.offered_series);
  EXPECT_EQ(a.allocated_series, b.allocated_series);
  EXPECT_EQ(a.rejected_by_node_app, b.rejected_by_node_app);
  EXPECT_EQ(a.requests_by_node, b.requests_by_node);
  EXPECT_EQ(a.plan_solves, b.plan_solves);
  EXPECT_EQ(a.plan_simplex_iterations, b.plan_simplex_iterations);
  EXPECT_EQ(a.plan_rounds, b.plan_rounds);
  EXPECT_EQ(a.plan_columns_generated, b.plan_columns_generated);
  EXPECT_EQ(a.plan_objective_sum, b.plan_objective_sum);
  EXPECT_EQ(a.plan_warm_start_hits, b.plan_warm_start_hits);
  EXPECT_EQ(a.plan_refactorizations, b.plan_refactorizations);
  EXPECT_EQ(a.plan_eta_length_max, b.plan_eta_length_max);
  EXPECT_EQ(a.replans, b.replans);
}

TEST(Registry, KnowsTheBuiltins) {
  auto& registry = EmbedderRegistry::instance();
  for (const std::string name :
       {"OLIVE", "OLIVE-NoBorrow", "OLIVE-NoPreempt", "OLIVE-PlanOnly",
        "QuickG", "FullG", "SlotOff"}) {
    EXPECT_TRUE(registry.contains(name)) << name;
  }
  EXPECT_FALSE(registry.contains("nope"));
  const auto names = registry.names();
  EXPECT_GE(names.size(), 7u);
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
}

// A one-file plugin: registering an embedder factory at namespace scope
// makes the name reachable from run_algorithm and every name-dispatching
// bench.
OLIVE_REGISTER_EMBEDDER("EngineTest-QuickG", [](const core::Scenario& sc) {
  return std::make_unique<core::OliveEmbedder>(
      sc.substrate, sc.apps, core::Plan::empty(), "EngineTest-QuickG");
});

TEST(Registry, PluginRegistrationReachesRunAlgorithm) {
  const core::Scenario sc = core::build_scenario(small_config());
  const core::SimMetrics plugin =
      core::run_algorithm(sc, "EngineTest-QuickG");
  core::SimMetrics reference = core::run_algorithm(sc, "QuickG");
  reference.algorithm = "EngineTest-QuickG";  // names differ by design
  expect_metrics_identical(reference, plugin);
}

TEST(Registry, RunAlgorithmMatchesDirectEngineUse) {
  const core::Scenario sc = core::build_scenario(small_config());
  const core::SimMetrics by_name = core::run_algorithm(sc, "OLIVE");
  core::OliveEmbedder algo(sc.substrate, sc.apps, sc.plan, "OLIVE");
  Engine engine(sc.substrate, sc.apps, EngineConfig{sc.config.sim, {}, {}});
  const core::SimMetrics direct = engine.run(algo, sc.online);
  expect_metrics_identical(by_name, direct);
}

struct CountingObserver final : Observer {
  int slots = 0;
  int outcomes = 0;
  int accepted = 0;
  std::vector<ReplanEvent> replans;

  void on_slot_begin(int) override { ++slots; }
  void on_outcome(const workload::Request&, const core::EmbedOutcome& out,
                  int) override {
    ++outcomes;
    if (out.accepted()) ++accepted;
  }
  void on_replan(const ReplanEvent& event) override {
    replans.push_back(event);
  }
};

TEST(EngineObserver, SeesEverySlotAndOutcomeWithoutPerturbingTheRun) {
  const core::Scenario sc = core::build_scenario(small_config());

  core::OliveEmbedder plain(sc.substrate, sc.apps, sc.plan, "OLIVE");
  Engine plain_engine(sc.substrate, sc.apps,
                      EngineConfig{sc.config.sim, {}, {}});
  const core::SimMetrics reference = plain_engine.run(plain, sc.online);

  core::OliveEmbedder observed(sc.substrate, sc.apps, sc.plan, "OLIVE");
  Engine engine(sc.substrate, sc.apps, EngineConfig{sc.config.sim, {}, {}});
  CountingObserver counter;
  engine.add_observer(&counter);
  const core::SimMetrics metrics = engine.run(observed, sc.online);

  expect_metrics_identical(reference, metrics);
  EXPECT_EQ(counter.slots,
            static_cast<int>(metrics.offered_series.size()));
  const int base = sc.online.front().arrival;
  int processed = 0;
  for (const auto& r : sc.online)
    if (r.arrival - base < counter.slots) ++processed;
  EXPECT_EQ(counter.outcomes, processed);
  EXPECT_GT(counter.accepted, 0);
  EXPECT_TRUE(counter.replans.empty());  // policy off
}

/// The drifting-utilization scenario (acceptance criterion): online demand
/// ramps to 2.5x the plan's expectation, so the static plan goes stale and
/// periodic re-planning must lower OLIVE's total cost.
core::ScenarioConfig drifting_config() {
  core::ScenarioConfig cfg;
  cfg.topology = "Iris";
  cfg.utilization = 1.0;
  cfg.drift = 1.5;
  cfg.seed = 7;
  cfg.trace.horizon = 700;
  cfg.trace.plan_slots = 400;
  cfg.sim.measure_from = 20;
  cfg.sim.measure_to = 280;
  cfg.sim.drain_slots = 20;
  return cfg;
}

ReplanConfig drifting_replan(const core::ScenarioConfig& cfg) {
  ReplanConfig replan;
  replan.period = 100;
  replan.plan = cfg.plan;
  replan.plan.max_rounds = 8;
  replan.seed = cfg.seed;
  return replan;
}

TEST(EngineReplan, BeatsTheStaticPlanUnderDriftingUtilization) {
  const core::ScenarioConfig cfg = drifting_config();
  const core::Scenario sc = core::build_scenario(cfg);
  const core::SimMetrics static_plan = core::run_algorithm(sc, "OLIVE");

  EngineConfig ecfg{cfg.sim, drifting_replan(cfg), {}};
  Engine engine(sc.substrate, sc.apps, ecfg);
  CountingObserver counter;
  engine.add_observer(&counter);
  core::OliveEmbedder algo(sc.substrate, sc.apps, sc.plan, "OLIVE");
  const core::SimMetrics replanned = engine.run(algo, sc.online);

  // Two launches (slots 100, 200) inside the 300-slot test period, both
  // installed one slot later; the second re-plan starts from the first's
  // carried basis.
  EXPECT_EQ(replanned.replans, 2);
  EXPECT_EQ(replanned.plan_solves, 2);
  EXPECT_EQ(replanned.plan_warm_start_hits, 1);
  ASSERT_EQ(counter.replans.size(), 2u);
  for (const ReplanEvent& ev : counter.replans) {
    EXPECT_TRUE(ev.installed);
    EXPECT_EQ(ev.install_slot, ev.launch_slot + 1);
    EXPECT_GT(ev.classes, 0);
  }
  EXPECT_EQ(counter.replans[0].launch_slot, 100);
  EXPECT_EQ(counter.replans[1].launch_slot, 200);

  // The payoff: fresher guarantees shed rejections faster than the swap
  // churn adds preemptions.
  EXPECT_LT(replanned.total_cost(), static_plan.total_cost());
  EXPECT_LT(replanned.rejection_rate(), static_plan.rejection_rate());
}

/// An embedder with no notion of a plan: install_plan keeps the default
/// refusal, so the engine must disable re-planning after the first swap
/// attempt instead of solving windows nobody consumes.
struct PlanlessEmbedder final : core::OnlineEmbedder {
  core::LoadTracker load_;
  explicit PlanlessEmbedder(const net::SubstrateNetwork& s) : load_(s) {}
  std::string name() const override { return "planless"; }
  void reset() override {}
  core::EmbedOutcome embed(const workload::Request&) override { return {}; }
  void depart(const workload::Request&) override {}
  const core::LoadTracker& load() const override { return load_; }
};

TEST(EngineReplan, PlanlessEmbedderDisablesThePolicyAfterOneRefusal) {
  const core::ScenarioConfig cfg = small_config();
  const core::Scenario sc = core::build_scenario(cfg);

  EngineConfig ecfg{cfg.sim, {}, {}};
  ecfg.replan.period = 10;
  ecfg.replan.plan = cfg.plan;
  ecfg.replan.plan.max_rounds = 4;
  Engine engine(sc.substrate, sc.apps, ecfg);
  CountingObserver counter;
  engine.add_observer(&counter);
  PlanlessEmbedder algo(sc.substrate);
  const core::SimMetrics metrics = engine.run(algo, sc.online);

  EXPECT_EQ(metrics.replans, 0);
  EXPECT_EQ(metrics.plan_solves, 0);
  ASSERT_EQ(counter.replans.size(), 1u);  // one refused swap, then silence
  EXPECT_FALSE(counter.replans[0].installed);
  EXPECT_EQ(metrics.accepted, 0);  // it rejects everything
}

// ----------------------------------------------- clip_window boundaries
//
// The demand-window clip every re-plan aggregates over.  Both boundary
// rules were audited in PR 10 and are pinned here exactly:
//  * a request with arrival + duration == from departed at the instant the
//    window opens and contributes nothing — it must be excluded;
//  * an arrival before `from` that is still active inside the window is
//    kept, re-based to arrival 0, with its duration clipped to the part
//    overlapping [from, slot).

workload::Request make_req(workload::RequestId id, int arrival, int duration) {
  workload::Request r;
  r.id = id;
  r.arrival = arrival;
  r.duration = duration;
  r.ingress = 0;
  r.app = 0;
  r.demand = 1.0;
  return r;
}

TEST(ClipWindow, DepartureExactlyAtWindowStartIsExcluded) {
  workload::Trace trace;
  trace.push_back(make_req(1, 0, 10));  // departure == 10 == from: excluded
  trace.push_back(make_req(2, 0, 11));  // departure 11 > from: one slot left
  const workload::Trace clipped = clip_window(trace, /*base=*/0,
                                              /*from=*/10, /*slot=*/20);
  ASSERT_EQ(clipped.size(), 1u);
  EXPECT_EQ(clipped[0].id, 2);
  EXPECT_EQ(clipped[0].arrival, 0);   // re-based to window coordinates
  EXPECT_EQ(clipped[0].duration, 1);  // only the overlap survives

  // The admission log drops exactly the request the clip excludes.
  workload::Trace log = trace;
  trim_admission_log(log, /*base=*/0, /*from=*/10);
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0].id, 2);
}

TEST(ClipWindow, PreWindowArrivalIsClippedToTheOverlap) {
  workload::Trace trace;
  trace.push_back(make_req(1, 5, 100));  // spans the whole window and past it
  trace.push_back(make_req(2, 12, 3));   // fully inside
  trace.push_back(make_req(3, 20, 5));   // arrival == slot: not yet visible
  const workload::Trace clipped = clip_window(trace, /*base=*/0,
                                              /*from=*/10, /*slot=*/20);
  ASSERT_EQ(clipped.size(), 2u);
  EXPECT_EQ(clipped[0].id, 1);
  EXPECT_EQ(clipped[0].arrival, 0);    // 5 < from: re-based to the start
  EXPECT_EQ(clipped[0].duration, 10);  // clipped to [from, slot)
  EXPECT_EQ(clipped[1].id, 2);
  EXPECT_EQ(clipped[1].arrival, 2);
  EXPECT_EQ(clipped[1].duration, 3);

  // The admission log keeps the pre-window arrival that is still active
  // (pruning by arrival slot would lose it), and it clips the same way.
  workload::Trace log = trace;
  trim_admission_log(log, /*base=*/0, /*from=*/10);
  ASSERT_EQ(log.size(), 3u);
  const workload::Trace from_log = clip_window(log, 0, 10, 20);
  ASSERT_EQ(from_log.size(), 2u);
  EXPECT_EQ(from_log[0].id, 1);
  EXPECT_EQ(from_log[0].arrival, 0);
  EXPECT_EQ(from_log[0].duration, 10);
}

TEST(ClipWindow, RespectsTraceBaseAnd64BitSlots) {
  workload::Trace trace;
  trace.push_back(make_req(1, 1000, 4));  // slot 0 once re-based
  trace.push_back(make_req(2, 1015, 4));
  const workload::Trace clipped = clip_window(trace, /*base=*/1000,
                                              /*from=*/14, /*slot=*/18);
  ASSERT_EQ(clipped.size(), 1u);
  EXPECT_EQ(clipped[0].id, 2);
  EXPECT_EQ(clipped[0].arrival, 1);
  EXPECT_EQ(clipped[0].duration, 3);  // departure 19 clips at slot 18
}

// On a drifted Iris run with a K = 4 portfolio, the window every launch
// clips — the baseline's and the half-length one of candidate 2 — is the
// same from the slot loop's trimmed admission log as from the full trace.
// The check runs at each install, the first boundary after the launch: the
// log has only grown by the launch slot's own arrivals, which the clip
// excludes.
TEST(EngineReplan, AdmissionLogClipsLikeTheFullTraceAtEveryLaunch) {
  const core::ScenarioConfig cfg = drifting_config();
  const core::Scenario sc = core::build_scenario(cfg);
  EngineConfig ecfg{cfg.sim, drifting_replan(cfg), {}};
  ecfg.replan.candidates = 4;
  const int period = ecfg.replan.period;

  struct LogCheck final : Observer {
    const SlotLoop* loop = nullptr;
    const workload::Trace* trace = nullptr;
    int base = 0;
    int period = 0;
    std::vector<std::int64_t> launches;

    void on_replan(const ReplanEvent& event) override {
      const std::int64_t launch = event.launch_slot;
      launches.push_back(launch);
      const workload::Trace& log = loop->admission_log();
      for (const int window : {period, period / 2}) {
        const std::int64_t from = std::max<std::int64_t>(0, launch - window);
        const workload::Trace a = clip_window(log, base, from, launch);
        const workload::Trace b = clip_window(*trace, base, from, launch);
        ASSERT_EQ(a.size(), b.size()) << "launch " << launch;
        for (std::size_t i = 0; i < a.size(); ++i) {
          EXPECT_EQ(a[i].id, b[i].id);
          EXPECT_EQ(a[i].arrival, b[i].arrival);
          EXPECT_EQ(a[i].duration, b[i].duration);
        }
      }
      // Trimmed to the launch's widest window: nothing older stays.
      for (const auto& r : log)
        EXPECT_GT(r.departure() - base, launch - period) << "request " << r.id;
    }
  } check;
  check.trace = &sc.online;
  check.base = sc.online.front().arrival;
  check.period = period;

  serve::SteadyClock clock;
  core::OliveEmbedder algo(sc.substrate, sc.apps, sc.plan, "OLIVE");
  SlotLoop loop(sc.substrate, sc.apps, ecfg, algo, clock, {&check});
  check.loop = &loop;
  workload::VectorTraceStream stream(sc.online);
  const core::SimMetrics m = loop.run(stream);

  EXPECT_EQ(m.replans, 2);
  EXPECT_EQ(check.launches, (std::vector<std::int64_t>{100, 200}));
}

// ------------------------------------------------- portfolio re-planning

TEST(EngineReplanPortfolio, WinnerInstallsAndEventsCarryScores) {
  const core::ScenarioConfig cfg = drifting_config();
  const core::Scenario sc = core::build_scenario(cfg);

  EngineConfig ecfg{cfg.sim, drifting_replan(cfg), {}};
  ecfg.replan.candidates = 4;
  Engine engine(sc.substrate, sc.apps, ecfg);
  CountingObserver counter;
  engine.add_observer(&counter);
  core::OliveEmbedder algo(sc.substrate, sc.apps, sc.plan, "OLIVE");
  const core::SimMetrics portfolio = engine.run(algo, sc.online);

  EXPECT_EQ(portfolio.replans, 2);
  ASSERT_EQ(counter.replans.size(), 2u);
  for (const ReplanEvent& ev : counter.replans) {
    EXPECT_TRUE(ev.installed);
    EXPECT_EQ(ev.candidates, 4);
    ASSERT_EQ(ev.scores.size(), 4u);
    EXPECT_GE(ev.winner, 0);
    EXPECT_LT(ev.winner, 4);
    // The winner really is the portfolio argmin (ties to the lowest index).
    for (int k = 0; k < 4; ++k) {
      EXPECT_LE(ev.scores[ev.winner], ev.scores[k]) << "candidate " << k;
      if (ev.scores[k] == ev.scores[ev.winner]) {
        EXPECT_LE(ev.winner, k);
      }
    }
  }

  // Acceptance criterion: on the drifting workload the portfolio winner
  // must not lose to the single-candidate policy on rejections.
  EngineConfig single_cfg{cfg.sim, drifting_replan(cfg), {}};
  Engine single_engine(sc.substrate, sc.apps, single_cfg);
  CountingObserver single_counter;
  single_engine.add_observer(&single_counter);
  core::OliveEmbedder single_algo(sc.substrate, sc.apps, sc.plan, "OLIVE");
  const core::SimMetrics single = single_engine.run(single_algo, sc.online);
  EXPECT_LE(portfolio.rejection_rate(), single.rejection_rate());

  // K = 1 is the same candidate loop with one candidate: it wins unscored.
  ASSERT_EQ(single_counter.replans.size(), 2u);
  for (const ReplanEvent& ev : single_counter.replans) {
    EXPECT_TRUE(ev.installed);
    EXPECT_EQ(ev.candidates, 1);
    EXPECT_EQ(ev.winner, 0);
    EXPECT_TRUE(ev.scores.empty());
  }
}

TEST(EngineReplanPortfolio, RefusesEmbeddersWithoutWorldSnapshots) {
  const core::ScenarioConfig cfg = drifting_config();
  const core::Scenario sc = core::build_scenario(cfg);
  EngineConfig ecfg{cfg.sim, drifting_replan(cfg), {}};
  ecfg.replan.candidates = 2;
  Engine engine(sc.substrate, sc.apps, ecfg);
  PlanlessEmbedder algo(sc.substrate);
  // Same rejection style as failure traces vs set_element_capacity: the
  // run refuses outright rather than silently degrading to K = 1.
  EXPECT_THROW(engine.run(algo, sc.online), std::exception);
}

// ------------------------------------------------------- dry_run_plan

TEST(EngineDryRun, ScoresACandidatePlanWithoutDisturbingTheLiveRun) {
  const core::ScenarioConfig cfg = drifting_config();
  const core::Scenario sc = core::build_scenario(cfg);
  Engine engine(sc.substrate, sc.apps, EngineConfig{cfg.sim, {}, {}});

  core::OliveEmbedder algo(sc.substrate, sc.apps, sc.plan, "OLIVE");
  algo.reset();
  // Bring the embedder into a non-trivial mid-run state.
  const int base = sc.online.front().arrival;
  workload::Trace prefix;
  for (const auto& r : sc.online)
    if (r.arrival - base < 60) prefix.push_back(r);
  for (const auto& r : prefix) algo.embed(r);
  const core::WorldState before = algo.snapshot();

  const workload::Trace window =
      clip_window(sc.online, base, /*from=*/30, /*slot=*/60);
  ASSERT_FALSE(window.empty());

  // Score the current plan and the empty plan (QUICKG behavior) —
  // both what-ifs must leave the live embedder untouched.
  const DryRunReport keep = engine.dry_run_plan(algo, sc.plan, window);
  const DryRunReport drop =
      engine.dry_run_plan(algo, core::Plan::empty(), window);
  EXPECT_TRUE(keep.supported);
  EXPECT_TRUE(keep.installed);
  EXPECT_TRUE(drop.supported);
  EXPECT_GT(keep.score.accepted + keep.score.rejected, 0);
  EXPECT_GE(keep.score.total(), 0.0);

  // The live embedder is bit-identical to before the dry runs: a restore
  // from the pre-dry-run snapshot must be a no-op for future decisions.
  const core::WorldState after = algo.snapshot();
  core::OliveEmbedder replayed(sc.substrate, sc.apps, sc.plan, "OLIVE");
  ASSERT_TRUE(replayed.restore(before));
  core::OliveEmbedder replayed2(sc.substrate, sc.apps, sc.plan, "OLIVE");
  ASSERT_TRUE(replayed2.restore(after));
  for (const auto& r : sc.online) {
    if (r.arrival - base < 60 || r.arrival - base >= 90) continue;
    const core::EmbedOutcome a = replayed.embed(r);
    const core::EmbedOutcome b = replayed2.embed(r);
    EXPECT_EQ(a.kind, b.kind);
    EXPECT_EQ(net::fingerprint64(a.embedding), net::fingerprint64(b.embedding));
  }

  // Unsupported embedders report so instead of lying with a zero score.
  PlanlessEmbedder planless(sc.substrate);
  const DryRunReport unsupported =
      engine.dry_run_plan(planless, sc.plan, window);
  EXPECT_FALSE(unsupported.supported);
}

// ----------------------------------------------------------- end rule
//
// SlotLoop::run stops before slot t once the stream is spent, t is past
// the last departure, no failure event is left, no re-plan is in flight
// and no launch window from t on can hold demand.  Each case below leaves
// a different condition to hold last, so a run that drops any one of them
// ends too soon and loses a request, a departure, an install or a failure.

/// Iris arrivals of slots [0, 5) and [20, 25), re-based to slot 0 and cut
/// to depart by slots 8 and 33: a gap no lease spans, then a last
/// departure at slot 33.
workload::Trace gapped_trace(const workload::Trace& online) {
  const int base = online.front().arrival;
  workload::Trace trace;
  for (workload::Request r : online) {
    r.arrival -= base;
    if (r.arrival >= 25 || (r.arrival >= 5 && r.arrival < 20)) continue;
    r.duration = std::min(r.duration, (r.arrival < 5 ? 8 : 33) - r.arrival);
    trace.push_back(r);
  }
  return trace;
}

TEST(SlotLoopEndRule, EndingEarlyLosesNothing) {
  const core::ScenarioConfig cfg = small_config();
  const core::Scenario sc = core::build_scenario(cfg);
  const workload::Trace trace = gapped_trace(sc.online);
  std::int64_t last_departure = 0;
  for (const auto& r : trace)
    last_departure = std::max<std::int64_t>(last_departure, r.departure());
  ASSERT_EQ(last_departure, 33);
  constexpr int kPeriod = 10;

  struct Case {
    const char* name;
    bool replan;
    bool failures;
    std::size_t slots;  ///< where run(stream) ends
    long replans;
  };
  // Without re-planning the gap and the last departure bind: slot 34.
  // K = 1 re-planning launches every 10 slots over 20-slot windows and
  // installs 5 slots later.  The launch at 40 reaches back to the
  // departures, and the launch at 50 (window [30, 50)) installs at 55,
  // after the window has passed them at 53: slot 56.  A node down at 58
  // and up again at 61 outlasts both: slot 62.
  for (const Case& c : {Case{"plain", false, false, 34, 0},
                        Case{"replan", true, false, 56, 5},
                        Case{"replan+failures", true, true, 62, 5}}) {
    SCOPED_TRACE(c.name);
    EngineConfig ecfg;
    ecfg.sim.measure_from = 0;
    ecfg.sim.measure_to = 1 << 30;  // the live idiom
    if (c.replan) {
      ecfg.replan.period = kPeriod;
      ecfg.replan.window = 2 * kPeriod;
      ecfg.replan.install_delay = 5;
      ecfg.replan.plan = cfg.plan;
      ecfg.replan.plan.max_rounds = 4;
      ecfg.replan.seed = cfg.seed;
    }
    if (c.failures)
      ecfg.failures.trace = {{58, workload::FailureKind::NodeDown, 0},
                             {61, workload::FailureKind::NodeUp, 0}};

    // (a) the bounded drive, which ends by the rule.
    serve::SimulatedClock clock_a;
    core::OliveEmbedder algo_a(sc.substrate, sc.apps, sc.plan, "OLIVE");
    workload::VectorTraceStream stream(trace);
    const core::SimMetrics a =
        SlotLoop(sc.substrate, sc.apps, ecfg, algo_a, clock_a).run(stream);

    // (b) the live drive, three periods past the last departure.
    serve::SimulatedClock clock_b;
    core::OliveEmbedder algo_b(sc.substrate, sc.apps, sc.plan, "OLIVE");
    SlotLoop live(sc.substrate, sc.apps, ecfg, algo_b, clock_b, {}, nullptr,
                  /*series_window=*/1000);
    std::size_t next = 0;
    for (std::int64_t t = 0; t <= last_departure + 3 * kPeriod; ++t) {
      live.begin_slot(t);
      const std::size_t first = next;
      while (next < trace.size() && trace[next].arrival == t) ++next;
      live.admit(trace.data() + first, next - first);
      live.end_slot();
    }
    const core::SimMetrics b = live.finish();

    EXPECT_EQ(a.offered_series.size(), c.slots);
    EXPECT_EQ(b.replans, c.replans);
    EXPECT_EQ(b.failures, c.failures ? 2 : 0);
    EXPECT_EQ(a.offered, b.offered);
    EXPECT_EQ(a.accepted, b.accepted);
    EXPECT_EQ(a.rejected, b.rejected);
    EXPECT_EQ(a.preempted, b.preempted);
    EXPECT_EQ(a.offered_demand, b.offered_demand);
    EXPECT_EQ(a.rejected_demand, b.rejected_demand);
    EXPECT_EQ(a.rejection_cost, b.rejection_cost);
    EXPECT_EQ(a.failures, b.failures);
    EXPECT_EQ(a.failure_hit, b.failure_hit);
    EXPECT_EQ(a.sla_violations, b.sla_violations);
    EXPECT_EQ(a.replans, b.replans);
    EXPECT_EQ(a.plan_solves, b.plan_solves);
    EXPECT_EQ(a.plan_simplex_iterations, b.plan_simplex_iterations);
    EXPECT_EQ(a.plan_rounds, b.plan_rounds);
    EXPECT_EQ(a.plan_columns_generated, b.plan_columns_generated);
    EXPECT_EQ(a.plan_objective_sum, b.plan_objective_sum);
    EXPECT_EQ(a.plan_warm_start_hits, b.plan_warm_start_hits);
    EXPECT_EQ(a.plan_refactorizations, b.plan_refactorizations);
    EXPECT_EQ(a.plan_eta_length_max, b.plan_eta_length_max);
    // The live drive keeps accruing the empty substrate's rounding residue.
    EXPECT_NEAR(a.resource_cost, b.resource_cost, 1e-9 * b.resource_cost);
    EXPECT_GT(b.resource_cost, 0.0);

    // (a)'s series are the start of (b)'s, and the rest of (b)'s is flat.
    ASSERT_FALSE(a.offered_series.empty());
    ASSERT_LT(a.offered_series.size(), b.offered_series.size());
    for (std::size_t i = 0; i < b.offered_series.size(); ++i) {
      const std::size_t j = std::min(i, a.offered_series.size() - 1);
      EXPECT_EQ(b.offered_series[i], a.offered_series[j]) << "slot " << i;
      EXPECT_EQ(b.allocated_series[i], a.allocated_series[j]) << "slot " << i;
    }
  }
}

}  // namespace
}  // namespace olive::engine
