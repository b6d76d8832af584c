// The scale_xl streaming contracts (workload/stream.hpp, Engine::run_stream):
// with the same seed, the streamed and materialized trace paths are
// bit-identical — identical request vectors from the generators, identical
// SimMetrics from the engine, failures, re-plans and records included — and
// the CAIDA generator is deterministic across identical RNG forks.
#include <gtest/gtest.h>

#include <vector>

#include "core/olive.hpp"
#include "core/scenario.hpp"
#include "core/simulator.hpp"
#include "engine/engine.hpp"
#include "topo/topologies.hpp"
#include "workload/appgen.hpp"
#include "workload/caida.hpp"
#include "workload/stream.hpp"
#include "workload/tracegen.hpp"

namespace olive {
namespace {

void expect_traces_identical(const workload::Trace& a,
                             const workload::Trace& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, b[i].id) << "request " << i;
    EXPECT_EQ(a[i].arrival, b[i].arrival) << "request " << i;
    EXPECT_EQ(a[i].duration, b[i].duration) << "request " << i;
    EXPECT_EQ(a[i].ingress, b[i].ingress) << "request " << i;
    EXPECT_EQ(a[i].app, b[i].app) << "request " << i;
    EXPECT_EQ(a[i].demand, b[i].demand) << "request " << i;  // bitwise
  }
}

/// Bitwise equality over every deterministic SimMetrics field (wall-clock
/// fields and the thread-dependent fast-path counters excluded).
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
  EXPECT_EQ(a.failures, b.failures);
  EXPECT_EQ(a.failure_hit, b.failure_hit);
  EXPECT_EQ(a.migrations, b.migrations);
  EXPECT_EQ(a.sla_violations, b.sla_violations);
  EXPECT_EQ(a.repairs_patched, b.repairs_patched);
  EXPECT_EQ(a.repairs_reembedded, b.repairs_reembedded);
  EXPECT_EQ(a.repairs_batched, b.repairs_batched);
  ASSERT_EQ(a.records.size(), b.records.size());
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    const core::RequestRecord& x = a.records[i];
    const core::RequestRecord& y = b.records[i];
    EXPECT_EQ(x.id, y.id) << "record " << i;
    EXPECT_EQ(x.arrival, y.arrival) << "record " << i;
    EXPECT_EQ(x.duration, y.duration) << "record " << i;
    EXPECT_EQ(x.app, y.app) << "record " << i;
    EXPECT_EQ(x.ingress, y.ingress) << "record " << i;
    EXPECT_EQ(x.demand, y.demand) << "record " << i;
    EXPECT_EQ(x.kind, y.kind) << "record " << i;
    EXPECT_EQ(x.preempted_at, y.preempted_at) << "record " << i;
  }
}

class StreamFixture : public ::testing::Test {
 protected:
  StreamFixture() : topo_rng_(42), substrate_(topo::citta_studi(topo_rng_)) {
    Rng app_rng(7);
    apps_ = workload::sample_application_set(workload::default_mix(), {},
                                             app_rng);
    config_.horizon = 600;
    config_.plan_slots = 500;
  }
  Rng topo_rng_;
  net::SubstrateNetwork substrate_;
  std::vector<net::Application> apps_;
  workload::TraceConfig config_;
};

TEST_F(StreamFixture, MmppStreamMatchesMaterializedGenerator) {
  workload::TraceGenerator gen(substrate_, apps_, config_);
  Rng a(123), b(123);
  const workload::Trace materialized = gen.generate(a);
  workload::MmppTraceStream stream(substrate_, apps_, config_, b);
  EXPECT_EQ(stream.end_slot(), config_.horizon);
  const workload::Trace streamed = workload::materialize(stream);
  expect_traces_identical(materialized, streamed);
}

TEST_F(StreamFixture, CaidaStreamMatchesMaterializedGenerator) {
  const workload::CaidaConfig caida;
  Rng a(400), b(400);
  const workload::Trace materialized =
      workload::generate_caida_trace(substrate_, apps_, config_, caida, a);
  workload::CaidaTraceStream stream(substrate_, apps_, config_, caida, b);
  const workload::Trace streamed = workload::materialize(stream);
  expect_traces_identical(materialized, streamed);
}

TEST_F(StreamFixture, CaidaGeneratorDeterministicAcrossIdenticalForks) {
  // fork() is const on the parent: forking the same tag twice yields two
  // independent-but-identical generators, so trace generation is a pure
  // function of (parent state, tag) no matter how many consumers fork.
  const Rng root(777);
  Rng f1 = root.fork(stable_hash("caida-trace"));
  Rng f2 = root.fork(stable_hash("caida-trace"));
  const workload::Trace t1 =
      workload::generate_caida_trace(substrate_, apps_, config_, {}, f1);
  const workload::Trace t2 =
      workload::generate_caida_trace(substrate_, apps_, config_, {}, f2);
  expect_traces_identical(t1, t2);
}

TEST_F(StreamFixture, VectorStreamRoundTrips) {
  workload::TraceGenerator gen(substrate_, apps_, config_);
  Rng rng(321);
  const workload::Trace trace = gen.generate(rng);
  workload::VectorTraceStream stream(trace);
  EXPECT_EQ(stream.end_slot(), trace.back().arrival + 1);
  const workload::Trace replayed = workload::materialize(stream);
  expect_traces_identical(trace, replayed);
}

TEST_F(StreamFixture, RunStreamBitIdenticalToRun) {
  workload::TraceGenerator gen(substrate_, apps_, config_);
  Rng a(911), b(911);
  const workload::Trace trace = gen.generate(a);

  // measure_to + drain (60 + 50) is far below the 600-slot horizon, so the
  // drain cap binds for both paths — the regime run_stream's equivalence
  // contract covers.
  engine::EngineConfig ec;
  ec.sim.measure_from = 10;
  ec.sim.measure_to = 60;
  engine::Engine eng(substrate_, apps_, ec);

  core::OliveEmbedder run_algo(substrate_, apps_, core::Plan::empty(),
                               "QuickG");
  const core::SimMetrics run_metrics = eng.run(run_algo, trace);

  {  // replayed materialized trace through the streaming loop
    core::OliveEmbedder algo(substrate_, apps_, core::Plan::empty(), "QuickG");
    workload::VectorTraceStream stream(trace, config_.horizon);
    const core::SimMetrics m = eng.run_stream(algo, stream);
    expect_metrics_identical(run_metrics, m);
  }
  {  // live generator stream, same seed: never materializes the trace
    core::OliveEmbedder algo(substrate_, apps_, core::Plan::empty(), "QuickG");
    workload::MmppTraceStream stream(substrate_, apps_, config_, b);
    const core::SimMetrics m = eng.run_stream(algo, stream);
    expect_metrics_identical(run_metrics, m);
  }

  // The stateful modes on a drifting, failing Iris scenario: a failure
  // trace with batched repair, drift re-planning at K = 1 and K = 4, and
  // per-request records — streamed exactly as materialized.
  core::ScenarioConfig scfg;
  scfg.topology = "Iris";
  scfg.seed = 7;
  scfg.drift = 1.5;
  scfg.trace.horizon = 400;
  scfg.trace.plan_slots = 300;
  scfg.sim.measure_from = 10;
  scfg.sim.measure_to = 60;
  scfg.sim.drain_slots = 20;
  scfg.failures.node_mtbf = 200;
  scfg.failures.link_mtbf = 400;
  scfg.failures.repair_mean = 15;
  const core::Scenario sc = core::build_scenario(scfg);
  ASSERT_FALSE(sc.failure_trace.empty());
  enum Mode { kFailures, kReplan, kPortfolio, kRecords };
  for (const Mode mode : {kFailures, kReplan, kPortfolio, kRecords}) {
    SCOPED_TRACE(mode);
    engine::EngineConfig mc;
    mc.sim = scfg.sim;
    if (mode == kFailures) {
      mc.failures.trace = sc.failure_trace;
      mc.failures.repair = core::RepairPolicy::Batched;
    } else if (mode == kRecords) {
      mc.sim.record_requests = true;
    } else {
      mc.replan.period = 20;
      mc.replan.plan = scfg.plan;
      mc.replan.plan.max_rounds = 6;
      mc.replan.seed = scfg.seed;
      mc.replan.candidates = mode == kReplan ? 1 : 4;
    }
    engine::Engine mode_eng(sc.substrate, sc.apps, mc);
    core::OliveEmbedder ran_algo(sc.substrate, sc.apps, sc.plan, "OLIVE");
    const core::SimMetrics ran = mode_eng.run(ran_algo, sc.online);
    core::OliveEmbedder algo(sc.substrate, sc.apps, sc.plan, "OLIVE");
    workload::VectorTraceStream stream(sc.online, scfg.trace.horizon);
    const core::SimMetrics streamed = mode_eng.run_stream(algo, stream);
    expect_metrics_identical(ran, streamed);
    switch (mode) {
      case kFailures:
        EXPECT_GT(ran.migrations, 0);
        break;
      case kReplan:
      case kPortfolio:
        EXPECT_GT(ran.replans, 0);
        break;
      case kRecords:
        EXPECT_FALSE(ran.records.empty());
        break;
    }
  }
}

}  // namespace
}  // namespace olive
