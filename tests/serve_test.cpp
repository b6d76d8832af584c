// The serving layer's deterministic contracts (docs/serving.md):
//  * SimulatedClock starts at the epoch and consumes zero wall entropy;
//  * the log-linear latency histogram's buckets and conservative
//    percentiles;
//  * the Server constructor's refusal of non-positive settings;
//  * the equivalence lockdown — serve::Server under SimulatedClock is
//    bit-identical to Engine::run_stream on the same Mmpp/Caida configs
//    (the two-mode determinism contract's simulated half), the live
//    config's open measurement window included;
//  * pre-drawn open-loop arrival schedules are deterministic and match the
//    requested rate.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <vector>

#include "core/olive.hpp"
#include "core/simulator.hpp"
#include "engine/engine.hpp"
#include "serve/clock.hpp"
#include "serve/latency.hpp"
#include "serve/server.hpp"
#include "topo/topologies.hpp"
#include "workload/appgen.hpp"
#include "workload/caida.hpp"
#include "workload/stream.hpp"
#include "workload/tracegen.hpp"

namespace olive {
namespace {

using namespace std::chrono_literals;

// ---------------------------------------------------------------- Clock

TEST(SimulatedClock, StartsAtTheEpochAndAdvancesDeterministically) {
  // Zero wall entropy: a fresh simulated clock always reads the epoch —
  // never steady_clock::now() — so two runs see identical time_points.
  serve::SimulatedClock a, b;
  EXPECT_EQ(a.now(), serve::Clock::time_point{});
  EXPECT_EQ(a.now(), b.now());
  EXPECT_TRUE(a.simulated());

  a.advance(10ms);
  b.advance(10ms);
  EXPECT_EQ(a.now(), b.now());
  EXPECT_EQ(a.now() - serve::Clock::time_point{}, 10ms);
}

TEST(SimulatedClock, SleepUntilAdvancesButNeverRewinds) {
  serve::SimulatedClock c;
  const auto t1 = serve::Clock::time_point{} + 5ms;
  c.sleep_until(t1);
  EXPECT_EQ(c.now(), t1);
  c.sleep_until(t1 - 2ms);  // a past deadline returns immediately
  EXPECT_EQ(c.now(), t1);
}

TEST(SteadyClock, IsMonotoneAndNotSimulated) {
  serve::SteadyClock c;
  EXPECT_FALSE(c.simulated());
  const auto t1 = c.now();
  const auto t2 = c.now();
  EXPECT_LE(t1, t2);
  c.sleep_until(t1);  // already past: returns immediately
}

// ------------------------------------------------------------- Histogram

TEST(LatencyHistogram, BucketsByBitWidth) {
  // Bucket 16 * bit_width + sub-bucket: one nanosecond wide below 32 ns,
  // a sixteenth of the power-of-two range above.
  serve::LatencyHistogram h;
  h.record(0);     // bucket 0
  h.record(1);     // bit_width 1 -> bucket 16, upper 2ns
  h.record(2);     // bit_width 2 -> bucket 32, upper 3ns
  h.record(17);    // bit_width 5, 1 past 16 -> bucket 81, upper 18ns
  h.record(600);   // bit_width 10, (600 >> 5) - 16 = 2 -> bucket 162
  h.record(1000);  // bit_width 10, (1000 >> 5) - 16 = 15 -> bucket 175
  EXPECT_EQ(h.count(), 6u);
  EXPECT_EQ(h.bucket_count(0), 1u);
  EXPECT_EQ(h.bucket_count(16), 1u);
  EXPECT_EQ(h.bucket_count(32), 1u);
  EXPECT_EQ(h.bucket_count(81), 1u);
  EXPECT_EQ(h.bucket_count(162), 1u);
  EXPECT_EQ(h.bucket_count(175), 1u);
  EXPECT_DOUBLE_EQ(serve::LatencyHistogram::bucket_upper_us(0), 0.0);
  EXPECT_DOUBLE_EQ(serve::LatencyHistogram::bucket_upper_us(16), 0.002);
  EXPECT_DOUBLE_EQ(serve::LatencyHistogram::bucket_upper_us(32), 0.003);
  EXPECT_DOUBLE_EQ(serve::LatencyHistogram::bucket_upper_us(81), 0.018);
  EXPECT_DOUBLE_EQ(serve::LatencyHistogram::bucket_upper_us(162), 0.608);
  EXPECT_DOUBLE_EQ(serve::LatencyHistogram::bucket_upper_us(175), 1.024);
}

TEST(LatencyHistogram, PercentilesAreBucketUpperBounds) {
  serve::LatencyHistogram h;
  // 99 samples of 2ns (bucket 32), one of 2^19 ns (~0.5ms, bucket 320).
  for (int i = 0; i < 99; ++i) h.record(2);
  h.record(1u << 19);  // bit_width 20, first sub-bucket
  EXPECT_DOUBLE_EQ(serve::LatencyHistogram::bucket_upper_us(320), 557.056);
  EXPECT_DOUBLE_EQ(h.percentile_us(0.50),
                   serve::LatencyHistogram::bucket_upper_us(32));
  EXPECT_DOUBLE_EQ(h.percentile_us(0.99),
                   serve::LatencyHistogram::bucket_upper_us(32));
  EXPECT_DOUBLE_EQ(h.percentile_us(0.999),
                   serve::LatencyHistogram::bucket_upper_us(320));
  EXPECT_DOUBLE_EQ(h.percentile_us(1.0),
                   serve::LatencyHistogram::bucket_upper_us(320));
}

TEST(LatencyHistogram, EmptyAndOverflowAreSafe) {
  serve::LatencyHistogram h;
  EXPECT_EQ(serve::LatencyHistogram::kBuckets, 1024);
  EXPECT_DOUBLE_EQ(h.percentile_us(0.99), 0.0);
  h.record(~std::uint64_t{0});  // clamps into the last bucket
  EXPECT_EQ(h.bucket_count(serve::LatencyHistogram::kBuckets - 1), 1u);
  EXPECT_DOUBLE_EQ(h.percentile_us(1.0), 0x1p63 / 1000.0);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
}

TEST(LatencyHistogram, LogUniformPercentilesWithinASixteenth) {
  // Samples log-uniform from 1 ns to 10 s: each reported percentile is at
  // least the true order statistic and at most 1/16 above it (1 ns in the
  // one-nanosecond buckets).
  Rng rng(2026);
  for (int rep = 0; rep < 20; ++rep) {
    serve::LatencyHistogram h;
    std::vector<std::uint64_t> samples(5000);
    for (auto& x : samples) {
      x = static_cast<std::uint64_t>(
          std::exp(rng.uniform(0.0, std::log(1e10))));
      h.record(x);
    }
    std::sort(samples.begin(), samples.end());
    for (const double p : {0.5, 0.9, 0.99, 0.999}) {
      const auto rank = static_cast<std::size_t>(
          std::ceil(p * static_cast<double>(samples.size())));
      const auto truth = static_cast<double>(samples[rank - 1]);
      const double reported = h.percentile_us(p) * 1000.0;
      EXPECT_LE(truth, reported) << "rep " << rep << " p=" << p;
      EXPECT_LE(reported, 1.0625 * truth + 1.0) << "rep " << rep << " p=" << p;
    }
  }
}

// PR-10 audit pin: with total_ == 0 every percentile is defined as 0 — no
// bucket scan, no division by zero — and the property holds again right
// after a reset(), not just on a never-touched histogram.
TEST(LatencyHistogram, EmptyHistogramReportsZeroAtEveryPercentile) {
  serve::LatencyHistogram h;
  for (const double q : {0.0, 0.5, 0.9, 0.99, 0.999, 1.0})
    EXPECT_DOUBLE_EQ(h.percentile_us(q), 0.0) << "q=" << q;
  h.record(1000);
  EXPECT_GT(h.percentile_us(0.5), 0.0);
  h.reset();
  for (const double q : {0.0, 0.5, 1.0})
    EXPECT_DOUBLE_EQ(h.percentile_us(q), 0.0) << "after reset, q=" << q;
}

// ---------------------------------------------------------- ServerConfig

TEST(ServerConfig, ConstructorRejectsNonPositiveSettings) {
  Rng topo_rng(42), app_rng(7);
  const net::SubstrateNetwork substrate = topo::citta_studi(topo_rng);
  const std::vector<net::Application> apps = workload::sample_application_set(
      workload::default_mix(), {}, app_rng);
  const auto refused = [&](void (*edit)(serve::ServerConfig&)) {
    serve::ServerConfig c;
    edit(c);
    EXPECT_THROW({ serve::Server s(substrate, apps, c); }, InvalidArgument);
  };
  refused([](serve::ServerConfig& c) { c.slot_duration = 0ns; });
  EXPECT_NO_THROW({ serve::Server s(substrate, apps); });
}

// -------------------------------------------------- Equivalence lockdown

/// Bitwise equality over every deterministic SimMetrics field (wall-clock
/// diagnostics excluded — the same exclusion the stream tests use).
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
  ASSERT_EQ(a.records.size(), b.records.size());
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    EXPECT_EQ(a.records[i].id, b.records[i].id) << "record " << i;
    EXPECT_EQ(a.records[i].arrival, b.records[i].arrival) << "record " << i;
    EXPECT_EQ(a.records[i].kind, b.records[i].kind) << "record " << i;
    EXPECT_EQ(a.records[i].preempted_at, b.records[i].preempted_at)
        << "record " << i;
  }
}

class ServeEquivalence : public ::testing::Test {
 protected:
  ServeEquivalence() : topo_rng_(42), substrate_(topo::citta_studi(topo_rng_)) {
    Rng app_rng(7);
    apps_ = workload::sample_application_set(workload::default_mix(), {},
                                             app_rng);
    config_.horizon = 600;
    config_.plan_slots = 500;
    // measure_to + drain (60 + 50) far below the horizon, so the drain cap
    // binds — the regime the run_stream equivalence contract covers.
    sim_.measure_from = 10;
    sim_.measure_to = 60;
  }

  core::SimMetrics engine_run(workload::TraceStream& stream) {
    engine::EngineConfig ec;
    ec.sim = sim_;
    engine::Engine eng(substrate_, apps_, ec);
    core::OliveEmbedder algo(substrate_, apps_, core::Plan::empty(), "QuickG");
    return eng.run_stream(algo, stream);
  }

  core::SimMetrics server_run(workload::TraceStream& stream) {
    serve::ServerConfig scfg;
    scfg.sim = sim_;
    serve::Server server(substrate_, apps_, scfg);
    core::OliveEmbedder algo(substrate_, apps_, core::Plan::empty(), "QuickG");
    const core::SimMetrics m = server.run_simulated(algo, stream);
    // Simulated runs read no wall clock: the timing diagnostic stays 0.
    EXPECT_EQ(m.algo_seconds, 0.0);
    return m;
  }

  Rng topo_rng_;
  net::SubstrateNetwork substrate_;
  std::vector<net::Application> apps_;
  workload::TraceConfig config_;
  core::SimulatorConfig sim_;
};

TEST_F(ServeEquivalence, SimulatedServerBitIdenticalToRunStreamOnMmpp) {
  Rng a(911), b(911);
  workload::MmppTraceStream s1(substrate_, apps_, config_, a);
  const core::SimMetrics engine_m = engine_run(s1);
  workload::MmppTraceStream s2(substrate_, apps_, config_, b);
  const core::SimMetrics serve_m = server_run(s2);
  expect_metrics_identical(engine_m, serve_m);
  EXPECT_GT(engine_m.offered, 0);
}

TEST_F(ServeEquivalence, SimulatedServerBitIdenticalToRunStreamOnCaida) {
  const workload::CaidaConfig caida;
  sim_.record_requests = true;  // the simulated server keeps them too
  Rng a(400), b(400);
  workload::CaidaTraceStream s1(substrate_, apps_, config_, caida, a);
  const core::SimMetrics engine_m = engine_run(s1);
  workload::CaidaTraceStream s2(substrate_, apps_, config_, caida, b);
  const core::SimMetrics serve_m = server_run(s2);
  expect_metrics_identical(engine_m, serve_m);
  EXPECT_GT(engine_m.offered, 0);
  EXPECT_FALSE(serve_m.records.empty());
}

TEST_F(ServeEquivalence, LiveConfigSimulatesToTheLastDeparture) {
  // The live idiom measures everything (measure_to = 1 << 30), yet the run
  // ends with its work, one slot past the last departure: one ServerConfig
  // drives both modes, bit-identical to run_stream.
  config_.horizon = 3000;
  sim_.measure_from = 0;
  sim_.measure_to = 1 << 30;
  Rng a(911), b(911), c(911);
  workload::MmppTraceStream s1(substrate_, apps_, config_, a);
  const core::SimMetrics engine_m = engine_run(s1);
  workload::MmppTraceStream s2(substrate_, apps_, config_, b);
  const core::SimMetrics serve_m = server_run(s2);
  expect_metrics_identical(engine_m, serve_m);

  workload::MmppTraceStream s3(substrate_, apps_, config_, c);
  std::vector<workload::Request> slot;
  long requests = 0;
  int first = -1, last_departure = 0;
  for (int t = s3.next_slot(slot); t >= 0; t = s3.next_slot(slot))
    for (const workload::Request& r : slot) {
      if (first < 0) first = t;
      ++requests;
      last_departure = std::max(last_departure, r.departure());
    }
  EXPECT_EQ(serve_m.offered, requests);
  EXPECT_EQ(serve_m.offered_series.size(),
            static_cast<std::size_t>(last_departure - first + 1));
}

TEST_F(ServeEquivalence, TwoSimulatedRunsAreBitIdentical) {
  // Full determinism of the serving path itself, including ServerStats.
  Rng a(1234), b(1234);
  serve::ServerConfig scfg;
  scfg.sim = sim_;
  core::SimMetrics m1, m2;
  serve::ServerStats st1, st2;
  {
    serve::Server server(substrate_, apps_, scfg);
    core::OliveEmbedder algo(substrate_, apps_, core::Plan::empty(), "QuickG");
    workload::MmppTraceStream s(substrate_, apps_, config_, a);
    m1 = server.run_simulated(algo, s);
    st1 = server.stats();
  }
  {
    serve::Server server(substrate_, apps_, scfg);
    core::OliveEmbedder algo(substrate_, apps_, core::Plan::empty(), "QuickG");
    workload::MmppTraceStream s(substrate_, apps_, config_, b);
    m2 = server.run_simulated(algo, s);
    st2 = server.stats();
  }
  expect_metrics_identical(m1, m2);
  EXPECT_EQ(st1.decided, st2.decided);
  EXPECT_EQ(st1.accepted, st2.accepted);
  EXPECT_EQ(st1.rejected, st2.rejected);
  EXPECT_EQ(st1.departed, st2.departed);
  EXPECT_EQ(st1.slots, st2.slots);
  EXPECT_EQ(st1.serve_seconds, st2.serve_seconds);  // simulated -> exact
  EXPECT_EQ(st1.admission_latency.count(),
            static_cast<std::uint64_t>(st1.decided));
  EXPECT_GT(st1.decided, 0);
}

TEST_F(ServeEquivalence, EmptyStreamYieldsEmptyMetrics) {
  const workload::Trace empty;
  workload::VectorTraceStream stream(empty, /*horizon=*/5);
  serve::ServerConfig scfg;
  scfg.sim = sim_;
  serve::Server server(substrate_, apps_, scfg);
  core::OliveEmbedder algo(substrate_, apps_, core::Plan::empty(), "QuickG");
  const core::SimMetrics m = server.run_simulated(algo, stream);
  EXPECT_EQ(m.offered, 0);
  EXPECT_EQ(m.accepted, 0);
  EXPECT_TRUE(m.offered_series.empty());
}

// -------------------------------------------------- Open-loop schedule

TEST(OpenLoopArrivals, DeterministicAndRateMatched) {
  Rng a(99), b(99);
  const auto s1 = workload::draw_open_loop_arrivals(10000.0, 1.0, a);
  const auto s2 = workload::draw_open_loop_arrivals(10000.0, 1.0, b);
  ASSERT_EQ(s1.size(), s2.size());
  EXPECT_EQ(s1, s2);  // bitwise: pre-drawn schedules are reproducible

  // ~rate * duration arrivals (Poisson; 10 sigma of slack), strictly
  // increasing and inside [0, duration).
  EXPECT_NEAR(static_cast<double>(s1.size()), 10000.0, 1000.0);
  for (std::size_t i = 0; i < s1.size(); ++i) {
    EXPECT_GE(s1[i], 0.0);
    EXPECT_LT(s1[i], 1.0);
    if (i > 0) {
      EXPECT_GT(s1[i], s1[i - 1]);
    }
  }
}

TEST(OpenLoopArrivals, RejectsNonPositiveInputs) {
  Rng rng(1);
  EXPECT_THROW(workload::draw_open_loop_arrivals(0.0, 1.0, rng),
               InvalidArgument);
  EXPECT_THROW(workload::draw_open_loop_arrivals(100.0, 0.0, rng),
               InvalidArgument);
}

}  // namespace
}  // namespace olive
