// The one slot body every request-driven run executes (docs/engine.md).
//
// Engine::run, Engine::run_stream, serve::Server::run_simulated and the
// live serve::Server all drive a SlotLoop; they differ only in where the
// requests come from and which serve::Clock times the work.  Per slot, in
// this fixed order: on_slot_begin, re-plan swap, substrate failure events
// (with migration repair), re-plan launch, departures, the arrival batches
// (hint_arrivals, then embed each in order), resource-cost accrual.
//
// The loop owns all of a run's state: the active leases, the departure
// calendar, the window tally and ψ, failure repair, per-request records,
// observers, the ReplanPolicy and the trailing admission log it feeds on.
// Both drives share one calendar keyed by a 64-bit slot, each entry freed
// as its slot passes: memory follows the pending departures, never the
// horizon or the uptime.  run(stream) ends once its work does (the end
// rule, docs/engine.md); a live drive ends when its caller stops.
//
// The loop reads time only through the injected Clock, and so do the
// ReplanPolicy's solves, so a run under a SimulatedClock reads no wall time
// (its algo_seconds and replan_seconds stay 0).
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/migrator.hpp"
#include "engine/engine.hpp"
#include "serve/clock.hpp"
#include "serve/latency.hpp"

namespace olive::engine {

/// Per-application rejection penalties ψ: SimulatorConfig::psi_per_app, or
/// core::default_psi for every application when it is empty.
std::vector<double> resolve_psi(const net::SubstrateNetwork& substrate,
                                const std::vector<net::Application>& apps,
                                const core::SimulatorConfig& sim);

/// Empty metrics of a run: the algorithm name and zeroed per-node tallies.
core::SimMetrics blank_metrics(const net::SubstrateNetwork& substrate,
                               const std::vector<net::Application>& apps,
                               const std::string& algorithm);

/// Adds one PLAN-VNE solve's master-LP work to the run's plan_* sums.
void accumulate_solve(core::SimMetrics& metrics,
                      const core::PlanSolveInfo& info);

/// Slot horizon of a bounded run whose arrivals span `span` slots from the
/// first one: cover them and the measurement window, then stop
/// `drain_slots` past measure_to.  SlotLoop::run may end sooner.
int run_horizon(int span, const core::SimulatorConfig& sim);

/// The measurement-window tallies (Eqs. 3–4): counts, demands and
/// rejection costs of the requests arriving inside [measure_from,
/// measure_to).
struct WindowTally {
  const core::SimulatorConfig* sim;
  const std::vector<double>* psi;
  core::SimMetrics* metrics;

  bool in_window(std::int64_t slot) const {
    return slot >= sim->measure_from && slot < sim->measure_to;
  }
  void offered(const workload::Request& r, std::int64_t slot);
  /// Rejected on arrival (`preempted` false) or later preempted / dropped.
  void lost(const workload::Request& r, std::int64_t arrival_slot,
            bool preempted);
};

/// Element capacities under a failure trace (docs/failures.md): an event
/// takes an element down, brings it back, or rescales it to a share of its
/// nominal capacity.  An empty trace keeps the view inert.
class CapacityView {
 public:
  /// Validates a non-empty `trace` against the substrate; both must outlive
  /// the view.
  CapacityView(const net::SubstrateNetwork& substrate,
               const workload::FailureTrace& trace);

  bool dynamic() const noexcept { return !trace_.empty(); }
  bool done() const noexcept { return next_ >= trace_.size(); }

  /// Applies the next event of slot t, if any, and returns its record with
  /// the capacity transition filled in (impact counts stay 0).
  std::optional<FailureRecord> next(std::int64_t t);

  /// Current capacity of every element (empty when the view is inert).
  const std::vector<double>& capacities() const noexcept { return capacity_; }

 private:
  const net::SubstrateNetwork& substrate_;
  const workload::FailureTrace& trace_;
  std::size_t next_ = 0;
  std::vector<char> down_;
  std::vector<double> factor_, capacity_;
};

/// One run's slot loop: drive it once, either with run(stream) or live
/// with begin_slot / admit / end_slot and finish.
class SlotLoop {
 public:
  /// Resets `algo` for a fresh run; the validation of `config` (re-plan
  /// bounds, ψ, failure trace) happens here.  Everything passed by
  /// reference must outlive the loop.  `stats`, if given, receives the
  /// whole-run admission counters, the swap stall and one admission-latency
  /// sample per decision.  `series_window` bounds a live run's trailing
  /// offered/allocated series (0: none).
  SlotLoop(const net::SubstrateNetwork& substrate,
           const std::vector<net::Application>& apps, EngineConfig config,
           core::OnlineEmbedder& algo, serve::Clock& clock,
           std::vector<Observer*> observers = {},
           serve::ServerStats* stats = nullptr,
           std::size_t series_window = 0);

  SlotLoop(const SlotLoop&) = delete;
  SlotLoop& operator=(const SlotLoop&) = delete;

  /// Drives `stream` to completion: the first non-empty slot re-bases the
  /// run to slot 0 and run_horizon() of the stream's declared end caps it.
  /// It ends sooner, before the first slot t with the stream spent and
  /// settled(t): from there on, slots would only append flat series points.
  core::SimMetrics run(workload::TraceStream& stream);

  // Live drive, one call sequence per slot t = 0, 1, 2, ...:
  // begin_slot(t), any number of admit() batches, end_slot(); finish()
  // once at the end.

  /// Swap, failures, launch and departures of slot t.
  void begin_slot(std::int64_t t);
  /// Decides one batch of the current slot's arrivals, in order, after
  /// announcing it through hint_arrivals (the batch must stay untouched
  /// until admit returns).  A latency sample is the clock time since
  /// `enqueued[i]`, or 0 without `enqueued`.
  void admit(const workload::Request* batch, std::size_t n,
             const serve::Clock::time_point* enqueued = nullptr);
  /// Accrues the slot's resource cost and records its series point.
  void end_slot();
  /// The run's metrics (call once, after the last end_slot).
  core::SimMetrics finish();

  /// The re-plan demand feed: every arrival since the last launch's oldest
  /// window start, in admission order (empty while re-planning is off).
  const workload::Trace& admission_log() const noexcept { return log_; }

 private:
  struct Lease {
    workload::Request req;
    std::int64_t slot = 0;  ///< admission slot (live arrivals saturate)
    double unit_cost = 0;
    std::size_t record = 0;  ///< index into metrics.records, if recording
    /// The outcome's placement, which a failure repair needs; kept under
    /// substrate dynamics only (null otherwise).
    core::PlacementPtr placement;
  };
  using Leases = std::unordered_map<workload::RequestId, Lease>;

  /// What one slot changes: demand deltas of the offered/allocated series
  /// and the leases that end there.
  struct SlotDelta {
    double offered = 0;
    double allocated = 0;
    std::vector<workload::RequestId> departing;
  };

  /// t is past every departure, no failure event is left, no re-plan is
  /// in flight, and no launch window from t on can hold demand.
  bool settled(std::int64_t t) const;
  double seconds_since(serve::Clock::time_point start) const;
  void launch_replan();
  void apply_failure(FailureRecord& record);
  /// Ends `it`'s lease before its departure slot (preempted or dropped);
  /// its cost has already left active_cost_.
  void cut(Leases::iterator it);

  const EngineConfig config_;
  core::OnlineEmbedder& algo_;
  serve::Clock& clock_;
  std::vector<Observer*> observers_;
  serve::ServerStats* stats_;
  std::size_t series_window_;
  std::vector<double> psi_;
  core::SimMetrics metrics_;
  WindowTally tally_;
  ReplanPolicy replan_;
  workload::Trace log_;
  CapacityView capacity_;
  core::Migrator migrator_;

  std::int64_t t_ = 0;
  int base_ = 0;  ///< trace slot of loop slot 0
  std::int64_t horizon_ = std::numeric_limits<std::int64_t>::max();
  std::int64_t last_departure_ = -1;  ///< of every admitted request
  std::unordered_map<std::int64_t, SlotDelta> calendar_;
  double offered_now_ = 0, allocated_now_ = 0;
  std::deque<double> offered_ring_, allocated_ring_;

  Leases active_;
  double active_cost_ = 0;  ///< Σ over active leases of d·unit_cost
};

}  // namespace olive::engine
