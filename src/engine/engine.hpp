// The unified runtime: one slot loop for every per-request algorithm.
//
// Engine owns the discrete-time simulation the paper's §IV experiments run
// on.  Per slot: (optional) plan hot-swap at the deterministic re-plan
// boundary, substrate failure/recovery events with migration-based repair
// (EngineConfig::failures, docs/failures.md), releases of departing
// requests, this slot's arrivals in trace order, then metric accrual.  That
// slot body is engine::SlotLoop (engine/slot_loop.hpp), the only one in the
// code base; Engine drives it from a materialized trace (run) or a
// TraceStream (run_stream), and serve::Server drives the same loop live.
// run_slotoff is the SLOTOFF baseline's per-slot OFF-VNE re-solve loop.
//
// Observers hook the loop without perturbing it (`on_slot_begin`,
// `on_outcome`, `on_replan`, `on_failure`); a ReplanPolicy
// (engine/replan.hpp) makes the run re-plan mid-flight.  The string
// dispatch `core::run_algorithm` goes through the EmbedderRegistry
// (engine/registry.hpp).
//
// Determinism: with the same config, trace, and algorithm, a run is
// bit-identical at every `OLIVE_THREADS` value — re-plan solves are
// installed at policy-fixed slots (never when the solver happens to finish)
// and the PLAN-VNE solver itself is bit-identical across thread counts
// (docs/parallelism.md).
#pragma once

#include <vector>

#include "core/algorithm.hpp"
#include "core/migrator.hpp"
#include "core/plan_solver.hpp"
#include "core/simulator.hpp"
#include "engine/replan.hpp"
#include "net/substrate.hpp"
#include "net/vnet.hpp"
#include "workload/failures.hpp"
#include "workload/request.hpp"
#include "workload/stream.hpp"

namespace olive::engine {

/// What one substrate failure event did — the `on_failure` observer payload.
/// (run_slotoff re-seats every active request each slot, so its records
/// carry the capacity transition only: affected/migrated/dropped stay 0 and
/// failure-driven drops surface through the rejected/preempted tallies.)
struct FailureRecord {
  workload::FailureEvent event;
  int slot = 0;                ///< slot the event was applied at
  double capacity_before = 0;  ///< element capacity before / after the event
  double capacity_after = 0;
  int affected = 0;  ///< active embeddings the event broke
  int migrated = 0;  ///< repaired by core::Migrator (all stages)
  int dropped = 0;   ///< SLA violations (affected - migrated)
  // Repair-stage composition of `migrated` (patched + reembedded + batched
  // == migrated): path patches, full re-embeds (incl. the greedy fallback),
  // and seats assigned by the joint batch solve.
  int patched = 0;
  int reembedded = 0;
  int batched = 0;
};

/// Event-loop hooks.  Default implementations do nothing; observers must
/// not mutate engine or embedder state (they see it, they do not steer it).
class Observer {
 public:
  virtual ~Observer() = default;

  /// Start of slot `slot`, before the re-plan swap, releases and arrivals.
  virtual void on_slot_begin(int slot) { (void)slot; }

  /// One request was decided (request-driven runs only).
  virtual void on_outcome(const workload::Request& r,
                          const core::EmbedOutcome& outcome, int slot) {
    (void)r;
    (void)outcome;
    (void)slot;
  }

  /// A re-plan reached its install slot (fires whether or not the embedder
  /// accepted the plan — see ReplanEvent::installed).
  virtual void on_replan(const ReplanEvent& event) { (void)event; }

  /// A substrate failure event was applied (after its broken embeddings
  /// were migrated or dropped).
  virtual void on_failure(const FailureRecord& record) { (void)record; }
};

/// How a run reacts to substrate capacity events.
struct FailureHandling {
  /// Events applied at slot boundaries (slot 0 = the first trace slot),
  /// after a pending re-plan install but before the slot's releases and
  /// arrivals.  Empty (the default) disables substrate dynamics entirely.
  workload::FailureTrace trace;
  /// Repair policy for broken embeddings (core::RepairPolicy): Drop every
  /// hit, Migrate them one at a time in id order, or (the default) repair
  /// the whole broken set jointly via the Migrator's batch solve with the
  /// staged per-request ladder as fallback.
  using Repair = core::RepairPolicy;
  Repair repair = Repair::Batched;
};

struct EngineConfig {
  core::SimulatorConfig sim;
  /// Mid-run re-planning; `replan.period == 0` (the default) disables it.
  ReplanConfig replan;
  /// Substrate failure/recovery dynamics.  Request-driven runs migrate or
  /// drop the embeddings each event breaks; run_slotoff folds the shrunk
  /// capacities into every per-slot master instead (docs/failures.md).
  FailureHandling failures;
};

/// What a what-if plan evaluation found — Engine::dry_run_plan's result.
struct DryRunReport {
  /// False when the embedder has no WorldState support (snapshot()/fork()
  /// return empty/nullptr) — `installed` and `score` are meaningless then.
  bool supported = false;
  bool installed = false;  ///< the cloned embedder accepted the plan
  ReplayScore score;       ///< realized cost of replaying `window`
};

class Engine {
 public:
  Engine(const net::SubstrateNetwork& substrate,
         const std::vector<net::Application>& apps, EngineConfig config = {});

  /// Registers an observer (not owned; must outlive the runs).
  void add_observer(Observer* observer);

  const EngineConfig& config() const noexcept { return config_; }

  /// Runs a per-request online embedder over an arrival-sorted trace with
  /// non-negative arrival slots (re-based so the first arrival is slot 0):
  /// run_stream over a VectorTraceStream, whose end is the last arrival + 1.  With
  /// re-planning configured, trailing demand windows are re-solved
  /// asynchronously and hot-swapped via OnlineEmbedder::install_plan at
  /// each policy-fixed install slot.
  core::SimMetrics run(core::OnlineEmbedder& algo,
                       const workload::Trace& trace);

  /// Runs a per-request online embedder over a *streamed* trace
  /// (workload::TraceStream): requests are pulled slot by slot and only the
  /// active ones are kept, so a 10^6+-request run holds memory proportional
  /// to the number of *concurrently active* requests, not the trace length
  /// (per-request records, when enabled, grow with the trace).  Bit-identical
  /// to run() on the materialized trace whenever the stream's declared
  /// horizon covers the drain window (pinned by tests/stream_test.cpp).
  core::SimMetrics run_stream(core::OnlineEmbedder& algo,
                              workload::TraceStream& stream);

  /// Runs the SLOTOFF baseline: one OFF-VNE master solve per slot on the
  /// slot's actual active demand.  `warm_start` carries each slot's optimal
  /// basis into the next solve.  (ReplanPolicy does not apply — SLOTOFF
  /// already re-plans every slot.)  With a failure trace configured, each
  /// slot's master prices the *current* capacities via the plan solver's
  /// overlay and the rounding pass seats requests against them, so requests
  /// on damaged elements are re-seated or dropped by the next slot's solve.
  core::SimMetrics run_slotoff(const workload::Trace& trace,
                               const core::PlanVneConfig& plan,
                               bool warm_start = true);

  /// Operator what-if API: scores `plan` against `algo`'s *current* state
  /// without disturbing it — fork a WorldState clone, install the plan on
  /// the clone, replay `window` (a clip_window result: window coordinates,
  /// arrival sorted) and return the realized cost.  This is exactly the
  /// scoring path portfolio re-planning uses to rank candidates, so a
  /// reported score is directly comparable with ReplanEvent::scores.  Safe
  /// to call between slots of a live run; `algo` is only read.
  DryRunReport dry_run_plan(const core::OnlineEmbedder& algo, core::Plan plan,
                            const workload::Trace& window) const;

 private:
  const net::SubstrateNetwork& substrate_;
  const std::vector<net::Application>& apps_;
  EngineConfig config_;
  std::vector<Observer*> observers_;
};

}  // namespace olive::engine
