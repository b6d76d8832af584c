#include "serve/server.hpp"

#include <sys/prctl.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <utility>

#include "engine/slot_loop.hpp"
#include "util/error.hpp"

namespace olive::serve {

namespace {

/// Max requests drained per batch (and hinted to the embedder) between
/// deadline checks.
constexpr std::size_t kMaxBatch = 1024;

/// Nap once a whole slot passed with an empty queue: short, so stop() is
/// prompt, and positive, so a simulated clock reaches the slot deadline.
constexpr std::chrono::nanoseconds kIdleNap = std::chrono::microseconds(50);
/// Nap while traffic flows: in a slot that drained a request, or the next.
constexpr std::chrono::nanoseconds kBusyNap = std::chrono::microseconds(5);

/// Trailing series slots a live run keeps: uptime must not grow state.
constexpr std::size_t kSeriesWindowSlots = 4096;

/// The serving thread's timer slack.  Linux's default of 50 us would
/// stretch every short nap by up to that much.
constexpr unsigned long kTimerSlackNs = 1000;

}  // namespace

Server::Server(const net::SubstrateNetwork& substrate,
               const std::vector<net::Application>& apps, ServerConfig config)
    : substrate_(substrate), apps_(apps), config_(std::move(config)) {
  OLIVE_REQUIRE(config_.slot_duration.count() > 0,
                "slot_duration must be positive");
  queue_ = std::make_unique<MpscQueue<Queued>>(config_.queue_capacity);
}

Server::~Server() {
  if (running()) stop(/*drain=*/false);
}

core::SimMetrics Server::run_simulated(core::OnlineEmbedder& algo,
                                       workload::TraceStream& stream) {
  {
    std::lock_guard<std::mutex> lock(lifecycle_mu_);
    OLIVE_REQUIRE(mode_ == Mode::Idle, "run_simulated on a busy server");
    mode_ = Mode::Simulating;
  }
  struct Idle {  // on every exit, exceptions included
    Server& s;
    ~Idle() {
      std::lock_guard<std::mutex> lock(s.lifecycle_mu_);
      s.mode_ = Mode::Idle;
    }
  } idle{*this};

  // Zero wall entropy on this whole path: the only clock is simulated and
  // starts at the epoch, and the re-plan solves read it too.  No work moves
  // it, so algo_seconds and replan_seconds stay 0 and a run lasts exactly
  // its slot count in slot_duration ticks.
  SimulatedClock clock;
  stats_ = ServerStats{};
  metrics_ = engine::SlotLoop(substrate_, apps_,
                              {config_.sim, config_.replan, {}}, algo, clock,
                              {}, &stats_)
                 .run(stream);
  stats_.submitted = stats_.decided;  // every request "arrived" in-process
  stats_.serve_seconds =
      std::chrono::duration<double>(stats_.slots * config_.slot_duration)
          .count();
  stats_.sustained_rps = stats_.serve_seconds > 0
                             ? static_cast<double>(stats_.decided) /
                                   stats_.serve_seconds
                             : 0.0;
  return metrics_;
}

void Server::start(core::OnlineEmbedder& algo, Clock& clock) {
  // Checked under the lock, before any state is touched: a second caller
  // must not reset the stats or the embedder of a running drive.
  std::lock_guard<std::mutex> lock(lifecycle_mu_);
  OLIVE_REQUIRE(mode_ == Mode::Idle, "start() on a busy server");
  OLIVE_REQUIRE(!config_.sim.record_requests,
                "live serving keeps no per-request records (they would grow "
                "without bound over the uptime)");
  stats_ = ServerStats{};
  // Built here, on the caller's thread, so an invalid config throws to the
  // caller instead of terminating the process from the serving thread.
  auto loop = std::make_unique<engine::SlotLoop>(
      substrate_, apps_, engine::EngineConfig{config_.sim, config_.replan, {}},
      algo, clock, std::vector<engine::Observer*>{}, &stats_,
      kSeriesWindowSlots);
  // Portfolio re-planning snapshots the embedder at every launch slot; an
  // embedder without WorldState support would only be discovered inside
  // the serving thread, so refuse it here as well.
  OLIVE_REQUIRE(config_.replan.period == 0 || config_.replan.candidates == 1 ||
                    !algo.snapshot().empty(),
                "portfolio re-planning (candidates > 1) requires an "
                "embedder with world snapshot support");
  stop_requested_.store(false, std::memory_order_seq_cst);
  drain_on_stop_.store(true, std::memory_order_release);
  submitted_.store(0, std::memory_order_relaxed);
  queue_rejects_.store(0, std::memory_order_relaxed);
  clock_.store(&clock, std::memory_order_release);
  mode_ = Mode::Serving;
  thread_ = std::thread(
      [this, loop = std::move(loop), &clock] { serve_loop(*loop, clock); });
}

Server::Submit Server::submit(const workload::Request& r) {
  // The in-flight window is the submit/stop handshake: the serving thread
  // waits for in_flight_ == 0 after observing stop_requested_, so a call
  // that slipped past the checks below finishes its push (and is drained
  // or counted abandoned) before the final queue pass, and clock_ is
  // never torn down while we hold it — nothing is ever stranded.
  in_flight_.fetch_add(1, std::memory_order_seq_cst);
  struct InFlight {
    std::atomic<long>& n;
    ~InFlight() { n.fetch_sub(1, std::memory_order_seq_cst); }
  } guard{in_flight_};
  if (!running() || stop_requested_.load(std::memory_order_seq_cst))
    return Submit::Stopped;
  // Refused here, on the producer's thread: the serving thread would throw
  // on a bad app or ingress and never release a non-positive duration.
  if (workload::request_defect(r, substrate_.num_nodes(),
                               static_cast<int>(apps_.size())))
    return Submit::Invalid;
  Clock* const clock = clock_.load(std::memory_order_acquire);
  if (clock == nullptr) return Submit::Stopped;
  Queued q{r, clock->now()};
  if (!queue_->try_push(std::move(q))) {
    queue_rejects_.fetch_add(1, std::memory_order_relaxed);
    return Submit::QueueFull;
  }
  submitted_.fetch_add(1, std::memory_order_relaxed);
  return Submit::Enqueued;
}

void Server::stop(bool drain) {
  // The lock makes stop() idempotent under concurrency: only one caller
  // reaches join(), later ones find the server idle and return.
  std::lock_guard<std::mutex> lock(lifecycle_mu_);
  if (mode_ != Mode::Serving) return;
  drain_on_stop_.store(drain, std::memory_order_release);
  stop_requested_.store(true, std::memory_order_seq_cst);
  thread_.join();
  mode_ = Mode::Idle;
  clock_.store(nullptr, std::memory_order_release);
}

void Server::serve_loop(engine::SlotLoop& loop, Clock& clock) {
  // The engine's slot loop, driven live: no horizon until stop(), the
  // loop's calendar frees each slot as it passes and the series is a
  // trailing ring of kSeriesWindowSlots.  Re-plans aggregate the loop's own
  // admission log, the same trailing window an engine run clips.  The loop
  // writes its counters and latency samples into stats_.
  //
  // Short naps need a tight timer slack (per thread, no privilege needed).
  // A failed call only makes wake-ups later, which is no error here.
  prctl(PR_SET_TIMERSLACK, kTimerSlackNs, 0, 0, 0);
  std::vector<workload::Request> batch;
  std::vector<Clock::time_point> enq;
  batch.reserve(kMaxBatch);
  enq.reserve(kMaxBatch);
  workload::RequestId next_id = 0;

  const auto t0 = clock.now();
  // Slots are 64-bit: a live run has no horizon, and an int would overflow
  // (UB) after ~2^31 slots — about 8 months at the default 10 ms slot.
  std::int64_t t = 0;
  constexpr std::int64_t kMaxIntSlot = std::numeric_limits<int>::max();
  bool stopping = false;
  std::int64_t last_drain_slot = -2;  // no drain yet: naps start long

  // Pops up to kMaxBatch queued requests into batch/enq, stamping ids and
  // the current slot (Request::arrival is an int and saturates at INT_MAX;
  // the loop's own bookkeeping runs on the 64-bit slot).
  const auto fill_batch = [&] {
    batch.clear();
    enq.clear();
    Queued q;
    while (batch.size() < kMaxBatch && queue_->try_pop(q)) {
      q.req.id = next_id++;
      q.req.arrival = static_cast<int>(std::min(t, kMaxIntSlot));
      batch.push_back(q.req);
      enq.push_back(q.enqueued);
    }
  };

  while (!stopping) {
    // Plan swap, re-plan launch and departures at the slot boundary, in the
    // engine's order.  A swap still waiting for its solve pauses admissions
    // (ServerStats::swap_stall_seconds).
    loop.begin_slot(t);

    // Drain until this slot's wall deadline.  If the serving thread falls
    // behind (overload), deadlines in the past make the slot advance
    // immediately — slots never stretch, they are wall time.  A stop
    // request breaks out at once, whatever the backlog: the final pass
    // below settles the queue.  An empty queue naps: briefly while traffic
    // flows (this slot or the last one drained a request), longer once a
    // whole slot passed empty, so an idle server stays cheap.
    const auto deadline = t0 + (t + 1) * config_.slot_duration;
    for (;;) {
      if (stop_requested_.load(std::memory_order_seq_cst)) {
        stopping = true;
        break;
      }
      const auto now = clock.now();
      if (now >= deadline) break;
      stats_.queue_high_water =
          std::max(stats_.queue_high_water, queue_->approx_size());
      fill_batch();
      if (batch.empty()) {
        const auto nap = t - last_drain_slot <= 1 ? kBusyNap : kIdleNap;
        clock.sleep_until(std::min(deadline, now + nap));
        continue;
      }
      last_drain_slot = t;
      loop.admit(batch.data(), batch.size(), enq.data());
    }

    if (stopping) {
      // Quiesce producers: submit() bounces with Stopped from the moment
      // stop_requested_ is set, and any call that slipped past that check
      // is inside the in-flight window — wait it out, after which no push
      // can still be in flight and the queue can only shrink to empty.
      while (in_flight_.load(std::memory_order_seq_cst) != 0)
        std::this_thread::yield();
      if (drain_on_stop_.load(std::memory_order_acquire)) {
        // Graceful drain: decide everything still enqueued at this slot.
        for (;;) {
          fill_batch();
          if (batch.empty()) break;
          loop.admit(batch.data(), batch.size(), enq.data());
        }
      } else {
        // Prompt abandon: discard the backlog undecided, but keep the
        // conservation ledger exact (decided + abandoned == submitted).
        Queued q;
        while (queue_->try_pop(q)) ++stats_.abandoned;
      }
    }

    loop.end_slot();
    ++t;
  }

  stats_.serve_seconds =
      std::chrono::duration<double>(clock.now() - t0).count();
  stats_.submitted = submitted_.load(std::memory_order_relaxed);
  stats_.queue_rejects = queue_rejects_.load(std::memory_order_relaxed);
  stats_.sustained_rps =
      stats_.serve_seconds > 0
          ? static_cast<double>(stats_.decided) / stats_.serve_seconds
          : 0.0;
  metrics_ = loop.finish();
  rusage ru{};
  if (getrusage(RUSAGE_THREAD, &ru) == 0)
    stats_.serving_cpu_seconds =
        static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
        1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

}  // namespace olive::serve
