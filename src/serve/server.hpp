// serve::Server — the Engine's slot loop as a long-lived service
// (docs/serving.md).
//
// The slot body is engine::SlotLoop, the same one Engine::run and
// Engine::run_stream run; the server runs it in two ways, from one
// ServerConfig:
//
//  * run_simulated(algo, stream) drives a TraceStream under an internal
//    SimulatedClock and is bit-identical to Engine::run_stream on the same
//    inputs (pinned by tests/serve_test.cpp) — the determinism contract
//    extends unchanged to the serving layer, and a live config simulates
//    too, since the run ends with its work;
//  * start(algo, clock) drives the loop against wall deadlines: producer
//    threads submit() Requests through the lock-free MPSC queue, the
//    serving thread drains them in batches, decides each admission via the
//    OLIVE fast path, expires leases at slot boundaries (wall deadlines),
//    hot-swaps re-planned allocations between batch drains, and records
//    per-request admission latency into a log-linear histogram.
//
// A server is idle, simulating or serving, and changes mode only under its
// lifecycle lock: neither drive begins while the other runs.
//
// Two-mode determinism contract: the SimulatedClock path reads no wall
// time at all, re-plan solves included (bit-identical runs, zero wall
// entropy); the SteadyClock path is inherently timing-dependent and is
// gated on throughput/latency (bench/serve_load.cpp, CI cliff gate)
// instead of bit identity.  Both paths re-plan, at K = 1 or as a
// portfolio; only the simulated path keeps per-request records.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/algorithm.hpp"
#include "core/simulator.hpp"
#include "engine/replan.hpp"
#include "net/substrate.hpp"
#include "net/vnet.hpp"
#include "serve/clock.hpp"
#include "serve/latency.hpp"
#include "serve/queue.hpp"
#include "workload/request.hpp"
#include "workload/stream.hpp"

namespace olive::engine {
class SlotLoop;
}  // namespace olive::engine

namespace olive::serve {

struct ServerConfig {
  /// Measurement window / psi / drain settings, same meaning as in the
  /// batch engine.  Live runs are unbounded: drain_slots is ignored and
  /// the run ends at stop().  A live config measures everything
  /// (measure_to = 1 << 30); run_simulated takes it as well.
  core::SimulatorConfig sim;
  /// Mid-run re-planning (engine::ReplanPolicy), in both modes.  The demand
  /// window is clipped from the loop's log of drained arrivals, exactly as
  /// an engine run clips it; solves run on the background ThreadPool,
  /// timed through the server's Clock, and install at policy-fixed slots.
  /// period == 0 (default) disables it.
  engine::ReplanConfig replan;
  /// Admission queue capacity (rounded up to a power of two).  A full queue
  /// bounces submit() with Submit::QueueFull — explicit backpressure.
  std::size_t queue_capacity = std::size_t{1} << 14;
  /// Wall length of one engine slot in live mode (and the simulated tick).
  std::chrono::nanoseconds slot_duration = std::chrono::milliseconds(10);
};

/// Long-lived serving facade over one OnlineEmbedder.  The embedder and the
/// clock are borrowed and must outlive the run; all embedder calls happen
/// on the single serving thread (the embedder's own speculation pool is its
/// business).  submit() is safe from any number of threads.
class Server {
 public:
  /// submit() outcome, returned to the producer immediately (never blocks).
  enum class Submit {
    Enqueued,   ///< accepted into the admission queue
    QueueFull,  ///< bounced by backpressure (counted in queue_rejects)
    Stopped,    ///< server not started, or stop() already requested
    Invalid,    ///< malformed request (workload::request_defect), dropped
  };

  Server(const net::SubstrateNetwork& substrate,
         const std::vector<net::Application>& apps, ServerConfig config = {});
  ~Server();  // stops (without drain) if still running

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Simulation mode: drives `stream` to completion on the caller's thread
  /// under an internal SimulatedClock and returns the run's SimMetrics —
  /// bit-identical to Engine::run_stream(algo, stream) with the same
  /// SimulatorConfig and ReplanConfig.  Reads no wall clock anywhere, the
  /// re-plan solves included (algo_seconds and replan_seconds stay 0).
  /// stats() is filled deterministically afterwards.  Throws
  /// InvalidArgument unless the server is idle.
  core::SimMetrics run_simulated(core::OnlineEmbedder& algo,
                                 workload::TraceStream& stream);

  /// Live mode: spawns the serving thread.  Slot t covers wall time
  /// [t0 + t·slot_duration, t0 + (t+1)·slot_duration); arrivals are
  /// stamped with the slot they are drained in, and leases expire at the
  /// slot boundary `arrival + duration` — wall deadlines.  Refuses
  /// sim.record_requests: records would grow without bound.  Throws
  /// InvalidArgument unless the server is idle: of racing start() calls,
  /// one starts the serving thread.
  void start(core::OnlineEmbedder& algo, Clock& clock);

  /// Hands one request to the serving thread (id and arrival slot are
  /// assigned by the server at drain time; the caller's values are
  /// ignored).  Wait-free; returns QueueFull instead of ever blocking.
  /// A request with a bad duration, ingress, app or demand returns Invalid
  /// and is neither enqueued nor counted in ServerStats::submitted.
  /// Safe to race with stop(): each call registers in an in-flight window
  /// the serving thread waits out before its final drain, so a submission
  /// that passed the stop check is always decided (drain=true) or counted
  /// abandoned (drain=false) — never stranded in the queue.
  Submit submit(const workload::Request& r);

  /// Stops the serving thread and joins it.  drain=true (graceful) decides
  /// every already-enqueued request first; drain=false discards the backlog
  /// promptly without deciding it (counted in ServerStats::abandoned).
  /// Idempotent and safe to call from multiple threads concurrently;
  /// submit() returns Stopped from the moment stop() begins.  A no-op
  /// unless serving (a simulation runs to its end).
  void stop(bool drain = true);

  /// True while the live serving thread runs.
  bool running() const noexcept {
    return mode_.load(std::memory_order_acquire) == Mode::Serving;
  }

  /// Valid after run_simulated() returns or stop() joins.
  const ServerStats& stats() const noexcept { return stats_; }
  const core::SimMetrics& metrics() const noexcept { return metrics_; }

  const ServerConfig& config() const noexcept { return config_; }

 private:
  struct Queued {
    workload::Request req;
    Clock::time_point enqueued{};
  };

  /// What the server is doing; changed only under lifecycle_mu_.
  enum class Mode { Idle, Simulating, Serving };

  void serve_loop(engine::SlotLoop& loop, Clock& clock);

  const net::SubstrateNetwork& substrate_;
  const std::vector<net::Application>& apps_;
  ServerConfig config_;
  std::unique_ptr<MpscQueue<Queued>> queue_;
  std::atomic<Clock*> clock_{nullptr};  // set by start(), read by submit()
  std::mutex lifecycle_mu_;  // serializes mode changes
  std::atomic<Mode> mode_{Mode::Idle};
  std::thread thread_;
  std::atomic<bool> stop_requested_{false};
  std::atomic<bool> drain_on_stop_{true};
  std::atomic<long> in_flight_{0};  // submit() calls between entry and exit
  std::atomic<long> submitted_{0};
  std::atomic<long> queue_rejects_{0};
  ServerStats stats_;
  core::SimMetrics metrics_;
};

}  // namespace olive::serve
