// Measurement probes of olive_bench: forwarding decorators around each
// layer's public API, timed from outside (no file under src/ knows about
// them), plus the span recorder that writes the traced pass as Chrome
// trace-event JSON.
//
//   ProbedEmbedder  core::OnlineEmbedder  live OLIVE: embed / hint / depart /
//                                         install_plan / snapshot / fork
//   ReplayEmbedder  core::OnlineEmbedder  the clones fork() hands to the
//                                         portfolio re-planner
//   ProbedStream    workload::TraceStream next_slot (request generation)
//   EngineProbe     engine::Observer      slot cadence, per-request latency,
//                                         re-plan blocking, invariants
//   ProbedClock     serve::Clock          serving-thread idle time
//
// Untraced passes use only what an end-to-end number needs (decision
// stamps, slot starts, invariant checks); every other timer and all spans
// switch on with a Tracer.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/algorithm.hpp"
#include "engine/engine.hpp"
#include "serve/clock.hpp"
#include "workload/stream.hpp"

namespace olive_bench {

using Clock = std::chrono::steady_clock;

inline double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}
inline double s_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Running mean.
struct Mean {
  double sum = 0;
  long n = 0;
  void add(double v) {
    sum += v;
    ++n;
  }
  void merge(const Mean& o) {
    sum += o.sum;
    n += o.n;
  }
  double mean() const { return n > 0 ? sum / static_cast<double>(n) : 0.0; }
};

/// Nearest-rank p-quantile of `v` (p in [0, 1]); 0 when empty.
double percentile(std::vector<double> v, double p);

/// All samples of one quantity, for exact percentiles.
struct Samples {
  std::vector<double> v;
  void add(double x) { v.push_back(x); }
  double pct(double p) const { return percentile(v, p); }
};

/// In-memory span log, written once as Chrome trace-event JSON (open it in
/// Perfetto or chrome://tracing).  Thread-safe: replay clones record from
/// pool threads.
class Tracer {
 public:
  Tracer() : origin_(Clock::now()) {}

  /// Per-request spans are kept for one request in 64.
  static bool sampled(std::int64_t id) { return id >= 0 && id % 64 == 0; }

  /// `name`, `cat` and `parent` must be string literals.  `req` < 0 marks
  /// a coarse span that belongs to no single request.
  void span(const char* name, const char* cat, Clock::time_point begin,
            Clock::time_point end, std::int64_t req = -1,
            const char* parent = nullptr);

  std::size_t size() const;
  /// Writes the trace; false (with nothing promised about the file) on an
  /// I/O error.
  bool write(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    const char* cat;
    const char* parent;
    double ts_us, dur_us;
    std::int64_t req;
    int tid;
  };
  Clock::time_point origin_;
  mutable std::mutex mu_;  // guards spans_ and tids_
  std::vector<Span> spans_;
  std::unordered_map<std::thread::id, int> tids_;
};

/// Per-call cost of one embedder's API, split by decision kind.
struct EmbedderCalls {
  std::array<Mean, 4> embed_us;  ///< indexed by core::OutcomeKind
  Mean depart_us;
  void merge(const EmbedderCalls& o);
};

/// Replay work summed over every clone fork() produced.
struct ReplayTotals {
  std::mutex mu;  // guards calls
  EmbedderCalls calls;
};

/// Forwarding decorator for the live embedder.
class ProbedEmbedder final : public olive::core::OnlineEmbedder {
 public:
  /// `tracer` null: untraced (only the decision stamps below are taken).
  ProbedEmbedder(olive::core::OnlineEmbedder& inner, Tracer* tracer);

  /// Serve passes: `decided[id]` receives the end of embed() and, when
  /// given, `drained[id]` the start of the hint_arrivals call that announced
  /// the request's batch.  Ids outside the vectors are ignored.
  void stamp_into(std::vector<Clock::time_point>* decided,
                  std::vector<Clock::time_point>* drained) {
    decided_ = decided;
    drained_ = drained;
  }
  /// Parent span name of the "batch" spans ("slot" in engine runs, "probe"
  /// in serve runs).  A batch is one hint_arrivals call and the embed()
  /// calls of the requests it announced.
  void set_batch_parent(const char* parent) { batch_parent_ = parent; }

  std::string name() const override { return inner_.name(); }
  void reset() override { inner_.reset(); }
  olive::core::EmbedOutcome embed(const olive::workload::Request& r) override;
  void hint_arrivals(const olive::workload::Request* batch,
                     std::size_t count) override;
  olive::core::FastPathStats fastpath_stats() const override {
    return inner_.fastpath_stats();
  }
  void depart(const olive::workload::Request& r) override;
  bool install_plan(olive::core::Plan plan) override;
  bool set_element_capacity(int element, double capacity) override {
    return inner_.set_element_capacity(element, capacity);
  }
  std::optional<olive::core::EmbedOutcome> adopt(
      const olive::workload::Request& r,
      const olive::net::Embedding& e) override {
    return inner_.adopt(r, e);
  }
  olive::core::WorldState snapshot() const override;
  bool restore(const olive::core::WorldState& w) override {
    return inner_.restore(w);
  }
  std::unique_ptr<OnlineEmbedder> fork(
      const olive::core::WorldState& w) const override;
  const olive::core::LoadTracker& load() const override {
    return inner_.load();
  }

  // Traced-pass accounting (all calls, not only sampled ones).
  EmbedderCalls calls;
  Samples hint_us;
  Samples batch_size;
  Mean install_ms;
  /// Serving-thread time inside the calls above (engine.self_s's subtrahend).
  double call_seconds = 0;
  // snapshot() and fork() are const and fork() runs on pool threads.
  mutable std::mutex mu;  // guards snapshot_ms and fork_ms
  mutable Mean snapshot_ms;
  mutable Mean fork_ms;
  mutable ReplayTotals replay;  // filled by clones on pool threads

 private:
  olive::core::OnlineEmbedder& inner_;
  Tracer* tracer_;
  const char* batch_parent_ = "probe";
  Clock::time_point batch_start_{};
  std::size_t batch_left_ = 0;
  std::int64_t batch_req_ = -1;  ///< first sampled request of the batch
  std::vector<Clock::time_point>* decided_ = nullptr;
  std::vector<Clock::time_point>* drained_ = nullptr;
};

/// Owns one fork() clone in a traced pass and times its embed/depart calls
/// (the replay scorer's work); totals merge into the parent's ReplayTotals
/// when the clone is destroyed at the end of its candidate's task.
class ReplayEmbedder final : public olive::core::OnlineEmbedder {
 public:
  ReplayEmbedder(std::unique_ptr<olive::core::OnlineEmbedder> inner,
                 ReplayTotals& totals, Tracer& tracer);
  ~ReplayEmbedder() override;
  ReplayEmbedder(const ReplayEmbedder&) = delete;
  ReplayEmbedder& operator=(const ReplayEmbedder&) = delete;

  std::string name() const override { return inner_->name(); }
  void reset() override { inner_->reset(); }
  olive::core::EmbedOutcome embed(const olive::workload::Request& r) override;
  void hint_arrivals(const olive::workload::Request* batch,
                     std::size_t count) override {
    inner_->hint_arrivals(batch, count);
  }
  olive::core::FastPathStats fastpath_stats() const override {
    return inner_->fastpath_stats();
  }
  void depart(const olive::workload::Request& r) override;
  bool install_plan(olive::core::Plan plan) override {
    return inner_->install_plan(std::move(plan));
  }
  bool set_element_capacity(int element, double capacity) override {
    return inner_->set_element_capacity(element, capacity);
  }
  std::optional<olive::core::EmbedOutcome> adopt(
      const olive::workload::Request& r,
      const olive::net::Embedding& e) override {
    return inner_->adopt(r, e);
  }
  olive::core::WorldState snapshot() const override {
    return inner_->snapshot();
  }
  bool restore(const olive::core::WorldState& w) override {
    return inner_->restore(w);
  }
  std::unique_ptr<OnlineEmbedder> fork(
      const olive::core::WorldState& w) const override {
    return inner_->fork(w);
  }
  const olive::core::LoadTracker& load() const override {
    return inner_->load();
  }

 private:
  std::unique_ptr<olive::core::OnlineEmbedder> inner_;
  ReplayTotals& totals_;
  Tracer& tracer_;
  EmbedderCalls calls_;
  Clock::time_point created_;
};

/// Times the request generator (TraceStream::next_slot).
class ProbedStream final : public olive::workload::TraceStream {
 public:
  explicit ProbedStream(olive::workload::TraceStream& inner) : inner_(inner) {}
  int next_slot(std::vector<olive::workload::Request>& out) override;
  int end_slot() const override { return inner_.end_slot(); }

  Mean next_slot_us;
  double call_seconds = 0;

 private:
  olive::workload::TraceStream& inner_;
};

/// Engine observer: times every slot and every request's wait within it,
/// counts outcomes for the conservation checks, and checks at every slot
/// boundary that no element is over-committed.
class EngineProbe final : public olive::engine::Observer {
 public:
  EngineProbe(const olive::core::OnlineEmbedder& algo, Tracer* tracer)
      : algo_(algo), tracer_(tracer) {}

  void on_slot_begin(int slot) override;
  void on_outcome(const olive::workload::Request& r,
                  const olive::core::EmbedOutcome& outcome,
                  int slot) override;
  void on_replan(const olive::engine::ReplanEvent& event) override;
  /// Closes the last slot and runs the final residual check.
  void finish();

  /// Wall time of every slot: re-plan install, departures, the decisions
  /// of all its arrivals, and pulling the next slot's requests.
  Samples slot_us;
  /// Per request except the first of each slot: the time since the
  /// previous decision, which covers its embed() call and the engine's
  /// bookkeeping of the decision before it.  (The first decision of a slot
  /// also waits for the slot's departures and re-plan install.)
  Samples decide_us;
  long decided = 0, accepted = 0, rejected = 0;
  long overcommitted_slots = 0;
  Mean replan_block_ms;
  Mean replan_solve_s;
  Mean replan_lp_iterations;
  long replan_warm_hits = 0;

 private:
  void close_slot(Clock::time_point now);
  void check_residual();

  const olive::core::OnlineEmbedder& algo_;
  Tracer* tracer_;
  Clock::time_point slot_start_{};
  Clock::time_point last_decision_{};  ///< of the open slot, if any
  bool slot_open_ = false;
  bool slot_decided_ = false;  ///< the open slot has made a decision
};

/// Wall clock for the serving thread that sums the time it sleeps while
/// its queue is empty.
class ProbedClock final : public olive::serve::Clock {
 public:
  time_point now() override { return base_clock::now(); }
  void sleep_until(time_point deadline) override;
  bool simulated() const noexcept override { return false; }

  double slept_seconds = 0;  ///< written by the serving thread only
};

/// Over-commitment tolerance of the invariant checks.
inline constexpr double kResidualTolerance = -1e-6;

}  // namespace olive_bench
