// Thread-heavy serving-layer suite (CTest label `concurrency`, so the TSan
// CI job runs it): MPSC queue fuzz — multi-producer interleavings,
// full-queue backpressure, drain-on-shutdown — and the live serve::Server
// under real producer threads: every submission is decided or explicitly
// bounced, graceful drain empties the queue, racing start() calls start one
// serving thread, a simulation and the serving thread never overlap, plan
// hot-swaps land mid-run without corrupting the counters, and the idle
// naps are short only while traffic flows.
#include <gtest/gtest.h>
#include <sys/prctl.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <latch>
#include <limits>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/olive.hpp"
#include "core/scenario.hpp"
#include "serve/clock.hpp"
#include "serve/queue.hpp"
#include "serve/server.hpp"
#include "topo/topologies.hpp"
#include "workload/appgen.hpp"
#include "workload/stream.hpp"
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

/// Forwards to another embedder, but reset() — which start() calls while it
/// builds the slot loop — takes 20 ms, so racing start() calls overlap.
class SlowResetEmbedder final : public core::OnlineEmbedder {
 public:
  explicit SlowResetEmbedder(core::OnlineEmbedder& inner) : inner_(inner) {}
  std::string name() const override { return inner_.name(); }
  void reset() override {
    std::this_thread::sleep_for(20ms);
    inner_.reset();
  }
  core::EmbedOutcome embed(const workload::Request& r) override {
    return inner_.embed(r);
  }
  void depart(const workload::Request& r) override { inner_.depart(r); }
  const core::LoadTracker& load() const override { return inner_.load(); }

 private:
  core::OnlineEmbedder& inner_;
};

TEST_F(LiveServer, ConcurrentStartCallsStartOneServingThread) {
  // A start() that checked running() before taking its lock let a second
  // caller reset the stats and the embedder of a live serving thread, then
  // move-assign a joinable std::thread, which terminates the process.
  serve::ServerConfig scfg;
  scfg.sim.measure_from = 0;
  scfg.sim.measure_to = 1 << 30;
  scfg.slot_duration = 1ms;
  serve::Server server(substrate_, apps_, scfg);
  core::OliveEmbedder olive(substrate_, apps_, core::Plan::empty(), "QuickG");
  SlowResetEmbedder algo(olive);
  serve::SteadyClock clock;

  constexpr int kCallers = 4;
  std::latch go(kCallers);
  std::atomic<int> started{0}, refused{0};
  std::vector<std::thread> callers;
  for (int i = 0; i < kCallers; ++i) {
    callers.emplace_back([&] {
      go.arrive_and_wait();
      try {
        server.start(algo, clock);
        started.fetch_add(1);
      } catch (const InvalidArgument&) {
        refused.fetch_add(1);
      }
    });
  }
  for (auto& c : callers) c.join();
  EXPECT_EQ(started.load(), 1);
  EXPECT_EQ(refused.load(), kCallers - 1);
  ASSERT_TRUE(server.running());

  long enqueued = 0;
  for (int i = 0; i < 2000; ++i)
    if (server.submit(bodies_[i % bodies_.size()]) ==
        serve::Server::Submit::Enqueued)
      ++enqueued;
  server.stop(/*drain=*/true);

  const serve::ServerStats& st = server.stats();
  EXPECT_EQ(st.submitted, enqueued);
  EXPECT_EQ(st.decided + st.abandoned, st.submitted);
  EXPECT_EQ(st.decided, st.submitted);
  EXPECT_EQ(st.decided, st.accepted + st.rejected);
  EXPECT_EQ(st.admission_latency.count(),
            static_cast<std::uint64_t>(st.decided));
}

/// Forwards to another embedder; reset(), which start() and run_simulated
/// call while they build the slot loop, counts `entered` down and then
/// lingers 200 ms, so a second drive can be aimed inside the first one's
/// setup.
class LingeringResetEmbedder final : public core::OnlineEmbedder {
 public:
  explicit LingeringResetEmbedder(core::OnlineEmbedder& inner)
      : inner_(inner) {}
  std::string name() const override { return inner_.name(); }
  void reset() override {
    if (!entered.try_wait()) entered.count_down();
    std::this_thread::sleep_for(200ms);
    inner_.reset();
  }
  core::EmbedOutcome embed(const workload::Request& r) override {
    return inner_.embed(r);
  }
  void depart(const workload::Request& r) override { inner_.depart(r); }
  const core::LoadTracker& load() const override { return inner_.load(); }

  std::latch entered{1};

 private:
  core::OnlineEmbedder& inner_;
};

/// The trace's 200 slots, measured whole; 1 ms live slots.
serve::ServerConfig one_drive_config() {
  serve::ServerConfig scfg;
  scfg.sim.measure_from = 0;
  scfg.sim.measure_to = 200;
  scfg.slot_duration = 1ms;
  return scfg;
}

TEST_F(LiveServer, RunSimulatedRefusedWhileStartBuildsTheLoop) {
  // One drive at a time: a simulation aimed inside start()'s setup must
  // neither run beside the serving thread nor touch its stats.
  serve::Server server(substrate_, apps_, one_drive_config());
  core::OliveEmbedder olive(substrate_, apps_, core::Plan::empty(), "QuickG");
  LingeringResetEmbedder live_algo(olive);
  serve::SteadyClock clock;
  std::thread starter([&] { server.start(live_algo, clock); });
  live_algo.entered.wait();  // start() is building the loop

  core::OliveEmbedder sim_algo(substrate_, apps_, core::Plan::empty(),
                               "QuickG");
  workload::VectorTraceStream stream(bodies_);
  EXPECT_THROW(server.run_simulated(sim_algo, stream), InvalidArgument);
  starter.join();
  ASSERT_TRUE(server.running());

  long enqueued = 0;
  for (int i = 0; i < 2000; ++i)
    if (server.submit(bodies_[i % bodies_.size()]) ==
        serve::Server::Submit::Enqueued)
      ++enqueued;
  server.stop(/*drain=*/true);
  EXPECT_FALSE(server.running());

  const serve::ServerStats& st = server.stats();
  EXPECT_EQ(st.submitted, enqueued);
  EXPECT_EQ(st.decided + st.abandoned, st.submitted);
  EXPECT_EQ(st.decided, st.accepted + st.rejected);
}

TEST_F(LiveServer, StartRefusedWhileSimulating) {
  // The other order: while run_simulated builds its loop, start() is
  // refused and stop() leaves the simulation alone; it runs whole, and
  // the server is idle again afterwards.
  serve::Server server(substrate_, apps_, one_drive_config());
  core::OliveEmbedder olive(substrate_, apps_, core::Plan::empty(), "QuickG");
  LingeringResetEmbedder sim_algo(olive);
  workload::VectorTraceStream stream(bodies_);
  core::SimMetrics simulated;
  std::thread simulator(
      [&] { simulated = server.run_simulated(sim_algo, stream); });
  sim_algo.entered.wait();  // run_simulated is building the loop

  core::OliveEmbedder live_algo(substrate_, apps_, core::Plan::empty(),
                                "QuickG");
  serve::SteadyClock clock;
  EXPECT_THROW(server.start(live_algo, clock), InvalidArgument);
  EXPECT_FALSE(server.running());
  server.stop(/*drain=*/false);  // nothing is serving: a no-op
  simulator.join();

  serve::Server fresh(substrate_, apps_, one_drive_config());
  core::OliveEmbedder fresh_algo(substrate_, apps_, core::Plan::empty(),
                                 "QuickG");
  workload::VectorTraceStream fresh_stream(bodies_);
  const core::SimMetrics reference =
      fresh.run_simulated(fresh_algo, fresh_stream);
  EXPECT_EQ(simulated.offered, reference.offered);
  EXPECT_EQ(simulated.accepted, reference.accepted);
  EXPECT_EQ(simulated.rejected, reference.rejected);
  EXPECT_EQ(simulated.preempted, reference.preempted);
  EXPECT_EQ(simulated.resource_cost, reference.resource_cost);
  EXPECT_EQ(simulated.offered_series, reference.offered_series);
  const serve::ServerStats& st = server.stats();
  EXPECT_EQ(st.decided, fresh.stats().decided);
  EXPECT_EQ(st.slots, fresh.stats().slots);
  EXPECT_EQ(st.decided + st.abandoned, st.submitted);
  EXPECT_EQ(st.decided, st.accepted + st.rejected);
  EXPECT_GT(st.decided, 0);

  server.start(live_algo, clock);
  EXPECT_TRUE(server.running());
  server.stop(/*drain=*/true);
  EXPECT_FALSE(server.running());
}

/// SimulatedClock semantics plus two test hooks: every nap is recorded with
/// its slot and the napping thread's timer slack, and a nap that would
/// carry time past the hold blocks until the test moves the hold on — so
/// the test fixes the slot in which the serving thread drains a request.
class NapRecordingClock final : public serve::Clock {
 public:
  struct Nap {
    std::int64_t slot;
    duration length;       ///< deadline - now
    duration to_slot_end;  ///< slot end - now
    int timer_slack_ns;    ///< PR_GET_TIMERSLACK of the napping thread
  };

  explicit NapRecordingClock(duration slot) : slot_(slot) {}

  time_point now() override { return time_point{duration{now_.load()}}; }

  void sleep_until(time_point deadline) override {
    const duration now{now_.load()};
    const std::int64_t slot = now / slot_;
    naps.push_back({slot, deadline.time_since_epoch() - now,
                    (slot + 1) * slot_ - now,
                    prctl(PR_GET_TIMERSLACK, 0, 0, 0, 0)});
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (deadline > hold_) {
        ++parks_;
        cv_.notify_all();
        cv_.wait(lock, [&] { return deadline <= hold_; });
      }
    }
    now_.store(std::max(now_.load(), deadline.time_since_epoch().count()));
  }

  bool simulated() const noexcept override { return true; }

  /// Naps may carry time up to `t` and no further.
  void hold_at(time_point t) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      hold_ = t;
    }
    cv_.notify_all();
  }

  /// Blocks until the serving thread has been held `n` times in all.
  void wait_held(int n) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return parks_ >= n; });
  }

  std::vector<Nap> naps;  ///< written by the serving thread; read after stop

 private:
  const duration slot_;
  std::atomic<duration::rep> now_{0};
  std::mutex mu_;
  std::condition_variable cv_;
  time_point hold_ = time_point::max();
  int parks_ = 0;
};

TEST_F(LiveServer, NapsShortOnlyWhileTrafficFlows) {
  serve::ServerConfig scfg;
  scfg.sim.measure_from = 0;
  scfg.sim.measure_to = 1 << 30;
  scfg.slot_duration = 1ms;
  serve::Server server(substrate_, apps_, scfg);
  core::OliveEmbedder algo(substrate_, apps_, core::Plan::empty(), "QuickG");
  NapRecordingClock clock(scfg.slot_duration);
  const auto slot_start = [&](int s) {
    return serve::Clock::time_point{} + s * scfg.slot_duration;
  };

  // Idle through slots 0-2; the first nap of slot 3 is held while the
  // request goes in, so the serving thread drains it in slot 3.
  clock.hold_at(slot_start(3));
  server.start(algo, clock);
  clock.wait_held(1);
  workload::Request r = bodies_.front();
  r.duration = 1;
  ASSERT_EQ(server.submit(r), serve::Server::Submit::Enqueued);
  clock.hold_at(slot_start(8));
  clock.wait_held(2);
  clock.hold_at(serve::Clock::time_point::max());
  server.stop(/*drain=*/true);
  ASSERT_EQ(server.stats().decided, 1);

  constexpr auto kBusyNap = 5us;
  constexpr auto idle = 50us;  // the server's idle nap
  std::int64_t drain_slot = -1;  // slot of the first 5 us nap
  std::vector<int> busy_naps(10, 0), idle_naps(10, 0);
  for (const auto& nap : clock.naps) {
    EXPECT_EQ(nap.timer_slack_ns, 1000) << "slot " << nap.slot;
    if (drain_slot < 0 && nap.length == kBusyNap) drain_slot = nap.slot;
    const bool busy = drain_slot >= 0 && nap.slot <= drain_slot + 1;
    EXPECT_EQ(nap.length,
              std::min<serve::Clock::duration>(busy ? kBusyNap : idle,
                                               nap.to_slot_end))
        << "slot " << nap.slot;
    if (nap.slot < 10) ++(busy ? busy_naps : idle_naps)[nap.slot];
  }
  ASSERT_EQ(drain_slot, 3);
  // Slot 3: the held 50 us nap, then 5 us naps for the remaining 950 us;
  // slot 4 follows a draining slot and naps 5 us throughout; from slot 5
  // on the server is idle again.
  EXPECT_EQ(idle_naps[3], 1);
  EXPECT_EQ(busy_naps[3], 190);
  EXPECT_EQ(busy_naps[4], 200);
  for (int s = 5; s < 8; ++s) EXPECT_EQ(idle_naps[s], 20) << "slot " << s;
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
