// Thread-heavy serving-layer suite (CTest label `concurrency`, so the TSan
// CI job runs it): MPSC queue fuzz — multi-producer interleavings,
// full-queue backpressure, drain-on-shutdown — and the live serve::Server
// under real producer threads: every submission is decided or explicitly
// bounced, graceful drain empties the queue, and plan hot-swaps land
// mid-run without corrupting the counters.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <limits>
#include <thread>
#include <vector>

#include "core/olive.hpp"
#include "core/scenario.hpp"
#include "serve/clock.hpp"
#include "serve/queue.hpp"
#include "serve/server.hpp"
#include "topo/topologies.hpp"
#include "workload/appgen.hpp"
#include "workload/tracegen.hpp"

namespace olive {
namespace {

using namespace std::chrono_literals;

// ----------------------------------------------------------- Queue fuzz

TEST(MpscQueue, CapacityRoundsUpToPowerOfTwo) {
  serve::MpscQueue<int> q(5);
  EXPECT_EQ(q.capacity(), 8u);
  EXPECT_EQ(serve::MpscQueue<int>(2).capacity(), 2u);
  EXPECT_THROW(serve::MpscQueue<int>(1), InvalidArgument);
}

TEST(MpscQueue, BackpressureWhenFullNeverBlocks) {
  serve::MpscQueue<int> q(4);
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(q.try_push(i));
  EXPECT_FALSE(q.try_push(99)) << "full queue must bounce, not block";
  EXPECT_EQ(q.approx_size(), 4u);

  int v = -1;
  EXPECT_TRUE(q.try_pop(v));
  EXPECT_EQ(v, 0);             // FIFO
  EXPECT_TRUE(q.try_push(4));  // freed cell is reusable immediately
  for (const int expect : {1, 2, 3, 4}) {
    ASSERT_TRUE(q.try_pop(v));
    EXPECT_EQ(v, expect);
  }
  EXPECT_FALSE(q.try_pop(v));
  EXPECT_EQ(q.approx_size(), 0u);
}

TEST(MpscQueue, MultiProducerInterleavingsKeepPerProducerFifo) {
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 20000;
  serve::MpscQueue<std::pair<int, int>> q(1024);

  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&q, p] {
      for (int i = 0; i < kPerProducer; ++i)
        while (!q.try_push({p, i})) std::this_thread::yield();
    });
  }

  // Single consumer (this thread) pops concurrently with the producers.
  std::vector<int> next_seq(kProducers, 0);
  long popped = 0;
  std::pair<int, int> item;
  while (popped < kProducers * kPerProducer) {
    if (!q.try_pop(item)) {
      std::this_thread::yield();
      continue;
    }
    ++popped;
    ASSERT_GE(item.first, 0);
    ASSERT_LT(item.first, kProducers);
    // Per-producer FIFO: each producer's items surface in push order.
    ASSERT_EQ(item.second, next_seq[item.first]);
    ++next_seq[item.first];
  }
  for (auto& t : producers) t.join();
  EXPECT_FALSE(q.try_pop(item));
  for (int p = 0; p < kProducers; ++p) EXPECT_EQ(next_seq[p], kPerProducer);
}

TEST(MpscQueue, DrainOnShutdownDeliversEverythingPushed) {
  constexpr int kProducers = 3;
  constexpr int kPerProducer = 5000;
  serve::MpscQueue<int> q(512);
  std::atomic<long> pushed{0};

  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&] {
      for (int i = 0; i < kPerProducer; ++i) {
        while (!q.try_push(i)) std::this_thread::yield();
        pushed.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  // Consumer drains concurrently, then producers stop, then the final
  // drain must deliver every element that was ever pushed.
  long popped = 0;
  int v;
  while (pushed.load(std::memory_order_relaxed) <
         static_cast<long>(kProducers) * kPerProducer) {
    while (q.try_pop(v)) ++popped;
    std::this_thread::yield();
  }
  for (auto& t : producers) t.join();
  while (q.try_pop(v)) ++popped;  // shutdown drain
  EXPECT_EQ(popped, static_cast<long>(kProducers) * kPerProducer);
  EXPECT_EQ(q.approx_size(), 0u);
}

// ----------------------------------------------------------- Live server

class LiveServer : public ::testing::Test {
 protected:
  LiveServer() : topo_rng_(42), substrate_(topo::citta_studi(topo_rng_)) {
    Rng app_rng(7);
    apps_ = workload::sample_application_set(workload::default_mix(), {},
                                             app_rng);
    workload::TraceConfig tcfg;
    tcfg.horizon = 200;
    tcfg.plan_slots = 150;
    workload::TraceGenerator gen(substrate_, apps_, tcfg);
    Rng trace_rng(55);
    bodies_ = gen.generate(trace_rng);
  }

  Rng topo_rng_;
  net::SubstrateNetwork substrate_;
  std::vector<net::Application> apps_;
  workload::Trace bodies_;  ///< request bodies the producers cycle through
};

TEST_F(LiveServer, DrainsEverySubmissionOrBouncesExplicitly) {
  serve::ServerConfig scfg;
  scfg.sim.measure_from = 0;
  scfg.sim.measure_to = 1 << 30;
  scfg.slot_duration = 1ms;
  scfg.queue_capacity = 1 << 10;
  serve::Server server(substrate_, apps_, scfg);
  core::OliveEmbedder algo(substrate_, apps_, core::Plan::empty(), "QuickG");
  serve::SteadyClock clock;
  server.start(algo, clock);
  ASSERT_TRUE(server.running());

  constexpr int kProducers = 4;
  constexpr int kPerProducer = 5000;
  std::atomic<long> enqueued{0}, bounced{0};
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        const auto& body = bodies_[(p * kPerProducer + i) % bodies_.size()];
        switch (server.submit(body)) {
          case serve::Server::Submit::Enqueued:
            enqueued.fetch_add(1, std::memory_order_relaxed);
            break;
          case serve::Server::Submit::QueueFull:
            bounced.fetch_add(1, std::memory_order_relaxed);
            break;
          case serve::Server::Submit::Stopped:
            ADD_FAILURE() << "server reported Stopped while running";
            return;
          case serve::Server::Submit::Invalid:
            ADD_FAILURE() << "a generated request was refused as invalid";
            return;
        }
      }
    });
  }
  for (auto& t : producers) t.join();
  server.stop(/*drain=*/true);
  EXPECT_FALSE(server.running());

  const serve::ServerStats& st = server.stats();
  // Conservation: every submission was decided or explicitly bounced.
  EXPECT_EQ(st.submitted, enqueued.load());
  EXPECT_EQ(st.queue_rejects, bounced.load());
  EXPECT_EQ(st.decided, st.submitted) << "graceful drain must decide all";
  EXPECT_EQ(st.decided, st.accepted + st.rejected);
  EXPECT_EQ(st.admission_latency.count(),
            static_cast<std::uint64_t>(st.decided));
  EXPECT_GT(st.decided, 0);
  EXPECT_GT(st.slots, 0);
  // Submitting after stop() reports Stopped.
  EXPECT_EQ(server.submit(bodies_.front()), serve::Server::Submit::Stopped);
}

TEST_F(LiveServer, StopWithoutDrainStaysConsistent) {
  serve::ServerConfig scfg;
  scfg.sim.measure_from = 0;
  scfg.sim.measure_to = 1 << 30;
  scfg.slot_duration = 1ms;
  scfg.queue_capacity = 1 << 8;
  serve::Server server(substrate_, apps_, scfg);
  core::OliveEmbedder algo(substrate_, apps_, core::Plan::empty(), "QuickG");
  serve::SteadyClock clock;
  server.start(algo, clock);

  long enqueued = 0;
  for (int i = 0; i < 20000; ++i)
    if (server.submit(bodies_[i % bodies_.size()]) ==
        serve::Server::Submit::Enqueued)
      ++enqueued;
  server.stop(/*drain=*/false);

  const serve::ServerStats& st = server.stats();
  EXPECT_EQ(st.submitted, enqueued);
  EXPECT_LE(st.decided, st.submitted);  // abandoning the queue is allowed...
  EXPECT_EQ(st.decided, st.accepted + st.rejected);  // ...but stays coherent
  // The backlog is discarded, never silently lost: the ledger is exact.
  EXPECT_EQ(st.decided + st.abandoned, st.submitted);
  EXPECT_EQ(st.admission_latency.count(),
            static_cast<std::uint64_t>(st.decided));
}

TEST_F(LiveServer, SubmitRacingStopNeverStrandsARequest) {
  // Producers keep submitting WHILE stop() runs — the exact interleaving
  // the in-flight handshake exists for: a submit that passed the stop
  // check must still be decided by the graceful drain, and late ones must
  // bounce with Stopped, so enqueued == decided exactly.
  serve::ServerConfig scfg;
  scfg.sim.measure_from = 0;
  scfg.sim.measure_to = 1 << 30;
  scfg.slot_duration = 1ms;
  scfg.queue_capacity = 1 << 10;
  serve::Server server(substrate_, apps_, scfg);
  core::OliveEmbedder algo(substrate_, apps_, core::Plan::empty(), "QuickG");
  serve::SteadyClock clock;
  server.start(algo, clock);

  constexpr int kProducers = 4;
  std::atomic<long> enqueued{0};
  std::atomic<bool> saw_stopped{false};
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      // Run until the server turns us away (well past the stop() below).
      for (std::size_t i = 0; !saw_stopped.load(std::memory_order_relaxed);
           ++i) {
        const auto& body =
            bodies_[(p + i * kProducers) % bodies_.size()];
        switch (server.submit(body)) {
          case serve::Server::Submit::Enqueued:
            enqueued.fetch_add(1, std::memory_order_relaxed);
            break;
          case serve::Server::Submit::Stopped:
            saw_stopped.store(true, std::memory_order_relaxed);
            break;
          case serve::Server::Submit::QueueFull:
            std::this_thread::yield();
            break;
          case serve::Server::Submit::Invalid:
            ADD_FAILURE() << "a generated request was refused as invalid";
            return;
        }
      }
    });
  }
  std::this_thread::sleep_for(20ms);
  server.stop(/*drain=*/true);  // races the producers by design
  for (auto& t : producers) t.join();

  const serve::ServerStats& st = server.stats();
  EXPECT_EQ(st.submitted, enqueued.load());
  EXPECT_EQ(st.decided, st.submitted)
      << "graceful drain must decide every submission that enqueued, even "
         "ones racing stop()";
  EXPECT_EQ(st.decided, st.accepted + st.rejected);
  EXPECT_EQ(st.abandoned, 0);
  EXPECT_TRUE(saw_stopped.load());
}

TEST_F(LiveServer, ConcurrentStopCallsAreSafeAndIdempotent) {
  serve::ServerConfig scfg;
  scfg.sim.measure_from = 0;
  scfg.sim.measure_to = 1 << 30;
  scfg.slot_duration = 1ms;
  serve::Server server(substrate_, apps_, scfg);
  core::OliveEmbedder algo(substrate_, apps_, core::Plan::empty(), "QuickG");
  serve::SteadyClock clock;
  server.start(algo, clock);
  for (int i = 0; i < 1000; ++i) server.submit(bodies_[i % bodies_.size()]);

  // Both threads race stop(); exactly one joins, the other must return
  // cleanly (double-join would terminate the process).
  std::thread a([&] { server.stop(/*drain=*/true); });
  std::thread b([&] { server.stop(/*drain=*/true); });
  a.join();
  b.join();
  EXPECT_FALSE(server.running());
  server.stop();  // and a third, sequential call is still a no-op
  const serve::ServerStats& st = server.stats();
  EXPECT_EQ(st.decided, st.submitted);
}

TEST_F(LiveServer, StartRefusesPerRequestRecords) {
  // Live records would grow with the uptime, so start() refuses them on
  // the caller's thread instead of silently ignoring the flag.
  serve::ServerConfig scfg;
  scfg.sim.record_requests = true;
  serve::Server server(substrate_, apps_, scfg);
  core::OliveEmbedder algo(substrate_, apps_, core::Plan::empty(), "QuickG");
  serve::SteadyClock clock;
  EXPECT_THROW(server.start(algo, clock), InvalidArgument);
  EXPECT_FALSE(server.running());
}

TEST_F(LiveServer, SubmitRefusesMalformedRequests) {
  // A bad app, ingress or demand would throw on the serving thread (and
  // terminate the process); a non-positive duration would be admitted and
  // never released.  submit() refuses each one before it is enqueued.
  serve::ServerConfig scfg;
  scfg.sim.measure_from = 0;
  scfg.sim.measure_to = 1 << 30;
  scfg.slot_duration = 1ms;
  serve::Server server(substrate_, apps_, scfg);
  core::OliveEmbedder algo(substrate_, apps_, core::Plan::empty(), "QuickG");
  // Simulated time moves only while the serving thread idles, so waiting
  // for it below waits for the serving thread itself, not for a timer.
  serve::SimulatedClock clock;
  server.start(algo, clock);

  workload::Request good = bodies_.front();
  good.duration = 1;
  std::vector<workload::Request> bad(8, good);
  bad[0].app = 999;
  bad[1].app = -1;
  bad[2].ingress = 9999;
  bad[3].demand = -1;
  bad[4].demand = std::numeric_limits<double>::infinity();
  bad[5].demand = std::numeric_limits<double>::quiet_NaN();
  bad[6].duration = 0;
  bad[7].duration = -5;
  for (std::size_t i = 0; i < bad.size(); ++i)
    EXPECT_EQ(server.submit(bad[i]), serve::Server::Submit::Invalid)
        << "request " << i;
  ASSERT_EQ(server.submit(good), serve::Server::Submit::Enqueued);

  // Let the good request's lease run out before stopping.
  const auto released = clock.now() + 8 * scfg.slot_duration;
  while (clock.now() < released) std::this_thread::yield();
  server.stop(/*drain=*/true);

  const serve::ServerStats& st = server.stats();
  EXPECT_EQ(st.submitted, 1);
  EXPECT_EQ(st.decided, 1);
  EXPECT_EQ(st.accepted, 1);
  EXPECT_EQ(st.departed, 1);
  for (int e = 0; e < substrate_.element_count(); ++e)
    EXPECT_NEAR(algo.load().residual(e), algo.load().capacity(e), 1e-6)
        << "element " << e;
}

TEST_F(LiveServer, PlanHotSwapLandsUnderLoad) {
  core::ScenarioConfig cfg;
  cfg.topology = "Iris";
  cfg.trace.horizon = 300;
  cfg.trace.plan_slots = 200;
  const core::Scenario sc = core::build_scenario(cfg, 0);

  serve::ServerConfig scfg;
  scfg.sim.measure_from = 0;
  scfg.sim.measure_to = 1 << 30;
  scfg.slot_duration = 10ms;
  // Launch at slot 10, install at slot 13 (~130 ms in); if the async solve
  // is still flying at the install slot the serving thread blocks on it —
  // the swap still lands, it just shows up as swap stall.
  scfg.replan.period = 10;
  scfg.replan.install_delay = 3;
  scfg.replan.plan = sc.config.plan;
  scfg.replan.plan.max_rounds = 4;
  scfg.replan.aggregation = sc.config.aggregation;

  serve::Server server(sc.substrate, sc.apps, scfg);
  core::OliveEmbedder algo(sc.substrate, sc.apps, sc.plan);
  serve::SteadyClock clock;
  server.start(algo, clock);

  // Produce load well past the first install slot.
  const auto until = std::chrono::steady_clock::now() + 400ms;
  std::size_t i = 0;
  while (std::chrono::steady_clock::now() < until) {
    server.submit(sc.online[i++ % sc.online.size()]);
    if (i % 64 == 0) std::this_thread::sleep_for(100us);
  }
  server.stop(/*drain=*/true);

  const serve::ServerStats& st = server.stats();
  EXPECT_GE(st.plan_swaps, 1) << "no re-plan was installed in "
                              << st.slots << " slots";
  EXPECT_EQ(server.metrics().replans, st.plan_swaps);
  EXPECT_EQ(st.decided, st.submitted);
  EXPECT_EQ(st.decided, st.accepted + st.rejected);
  EXPECT_GE(st.swap_stall_seconds, 0.0);
}

}  // namespace
}  // namespace olive
