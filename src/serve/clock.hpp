// Clock abstraction for the serving layer (docs/serving.md).
//
// engine::SlotLoop runs against a Clock: under SteadyClock the slot
// boundaries of serve::Server are real wall deadlines (the long-lived
// service mode), under SimulatedClock they advance instantly and
// deterministically (the simulation mode, bit-identical to
// engine::Engine::run_stream).  The
// pattern follows erizo's Clock / DZSimulator's sim::Clock (SNIPPETS.md
// Snippets 2-3) with one deliberate deviation: SimulatedClock starts at the
// *epoch* (time_point{}), never at steady_clock::now(), so simulated runs
// consume zero entropy from wall time — erizo seeds its simulated clock
// from the real one, which would make "simulated time" differ between two
// otherwise identical runs.
//
// Wall-entropy contract: on the simulated path, every time read goes
// through the injected Clock; code running under a SimulatedClock performs
// no std::chrono::steady_clock::now() calls at all.  The slot loop times
// its `algo_seconds` diagnostic and the re-plan solves their
// `solve_seconds` through the injected Clock, so the simulated server
// re-plans without reading wall time (docs/serving.md).
#pragma once

#include <atomic>
#include <chrono>
#include <thread>

namespace olive::serve {

/// Monotonic time source the serving loop is written against.  now() may be
/// called from any thread (producers timestamp their submissions through
/// the injected clock); sleep_until / advance belong to the single serving
/// thread.
class Clock {
 public:
  /// All serve timing is expressed in steady_clock units — the underlying
  /// clock must be monotonic (time never decreases).
  using base_clock = std::chrono::steady_clock;
  using time_point = base_clock::time_point;
  using duration = base_clock::duration;

  virtual ~Clock() = default;

  /// Current time.  Monotone non-decreasing across calls.
  virtual time_point now() = 0;

  /// Blocks until `deadline` (SteadyClock) or advances simulated time to it
  /// (SimulatedClock).  A deadline at or before now() returns immediately.
  virtual void sleep_until(time_point deadline) = 0;

  /// True when time is simulated (slot ticks, not wall deadlines).
  virtual bool simulated() const noexcept = 0;
};

/// Wall-clock mode: now() is steady_clock::now(), sleep_until really sleeps.
class SteadyClock final : public Clock {
 public:
  time_point now() override { return base_clock::now(); }
  void sleep_until(time_point deadline) override {
    std::this_thread::sleep_until(deadline);
  }
  bool simulated() const noexcept override { return false; }
};

/// Simulated mode: time starts at the epoch and moves only when the owner
/// advances it — sleep_until costs nothing and two identical runs see the
/// exact same sequence of time_points (zero wall entropy by construction).
class SimulatedClock final : public Clock {
 public:
  time_point now() override {
    return time_point{duration{now_ns_.load(std::memory_order_relaxed)}};
  }
  void sleep_until(time_point deadline) override {
    const auto d = deadline.time_since_epoch().count();
    if (d > now_ns_.load(std::memory_order_relaxed))
      now_ns_.store(d, std::memory_order_relaxed);
  }
  bool simulated() const noexcept override { return true; }

  /// Advances simulated time by `d` (one slot tick in the serving loop).
  /// Like sleep_until, only the serving thread may call this; other threads
  /// may read now() concurrently (hence the atomic).
  void advance(duration d) {
    now_ns_.fetch_add(d.count(), std::memory_order_relaxed);
  }

 private:
  // Ticks since the epoch — never seeded from steady_clock::now(), so a
  // simulated run consumes zero wall entropy.
  std::atomic<duration::rep> now_ns_{0};
};

}  // namespace olive::serve
