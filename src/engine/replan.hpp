// Mid-run re-planning (the paper's §III-C future-work hook: re-plan at
// window boundaries for time-dependent expected demand).
//
// A ReplanPolicy fires at fixed slot boundaries (every `period` slots): it
// re-aggregates the trailing `window` slots of observed demand with the same
// bootstrapped-percentile estimator the offline plan uses, solves PLAN-VNE
// for the result *asynchronously* on the shared ThreadPool (carrying the
// column cache and the PlanWarmStart basis across consecutive re-plans, the
// PR-3 machinery), and hands the finished plan back to the slot loop at a
// deterministic install slot `launch + install_delay`.  The observed demand
// is the loop's admission log, trimmed at each launch to the requests
// clip_window can still select, so every run — materialized, streamed or
// live — aggregates the same window.
//
// Portfolio mode (docs/replanning.md): with `candidates` = K > 1, each
// launch forks K candidate configurations — the exact baseline plus
// systematic window / percentile / ψ variations — solves them concurrently,
// replays the trailing admission window against a cloned WorldState per
// candidate to score realized resource cost + rejections, and hot-swaps only
// the winner at the policy-fixed install slot.  Losers run bounded
// "good-enough" solves (SimplexOptions::early_term_gap).  Measured on
// olive_bench's replan_portfolio workload (Iris, K = 4, one thread), a
// launch spends about 121 ms replaying, 63 ms in LP solves and 16 ms
// aggregating, all four candidates together (docs/replanning.md).
//
// Determinism contract (same as parallel pricing, docs/parallelism.md): the
// install slot is fixed by the policy, never by solver latency — if the
// async solve has not finished by the install slot, the engine *blocks* on
// it.  Solver inputs (including every candidate's recipe and the replay
// scores) are a pure function of the trace prefix and the launch-slot world
// snapshot, so every thread count produces bit-identical runs;
// OLIVE_THREADS only moves how much of the solves overlap the embedding
// loop.
#pragma once

#include <cstdint>
#include <future>
#include <optional>
#include <vector>

#include "core/aggregation.hpp"
#include "core/algorithm.hpp"
#include "core/plan.hpp"
#include "core/plan_solver.hpp"
#include "net/substrate.hpp"
#include "net/vnet.hpp"
#include "workload/request.hpp"

namespace olive::engine {

struct ReplanConfig {
  /// Re-plan every `period` slots (launches at slots period, 2·period, …).
  /// 0 disables mid-run re-planning entirely.
  int period = 0;
  /// Trailing demand window re-aggregated at each launch, in slots.
  /// 0 selects `period` (each re-plan sees exactly the demand since the
  /// previous launch).
  int window = 0;
  /// Slots between a launch and its deterministic install: the new plan is
  /// hot-swapped at the *beginning* of slot `launch + install_delay`,
  /// regardless of how long the solve actually took.  Must stay in
  /// [1, period) so at most one solve is in flight.
  int install_delay = 1;
  /// Percentile estimator over the trailing window (same P̂α bootstrap as
  /// the offline aggregation; `horizon` is overwritten with the window).
  core::AggregationConfig aggregation;
  /// PLAN-VNE solver settings for the re-plan solves.
  core::PlanVneConfig plan;
  /// Carry the column cache and the optimal-basis snapshot across
  /// consecutive re-plans (off forces every re-plan to a cold solve; the
  /// solved plans are identical either way).
  bool warm_start = true;
  /// Seed of the bootstrap streams (forked per re-plan sequence number).
  std::uint64_t seed = 1;
  /// >= 1: a failure burst — this many failure-hit embeddings since the
  /// last launch — triggers an early re-plan at the next slot boundary
  /// (at most one solve stays in flight; the install slot is still
  /// launch + install_delay, so runs remain deterministic).  0 disables
  /// the trigger: only the fixed period launches.
  int failure_burst = 0;
  /// Price re-plan solves against the substrate's *current* capacities:
  /// the engine snapshots the embedder's capacity view at the launch slot
  /// (after that slot's failure events) and passes it to the plan solver
  /// as a capacity overlay, so plans built mid-outage never promise shares
  /// on a down element.  The snapshot is taken on the engine thread at the
  /// policy-fixed launch slot, so runs stay bit-identical at every thread
  /// count.  Off: re-plans price nominal capacities (the pre-PR-6
  /// behavior).  Irrelevant without a failure trace — the snapshot then
  /// equals the nominal capacities and the solve is bit-identical anyway.
  bool capacity_aware = true;
  /// Portfolio width K.  1 — the default — is exactly the single-solve
  /// policy above, bit for bit.  K > 1 enables portfolio re-planning:
  /// candidate 0 is the exact baseline configuration, candidates 1..K-1
  /// vary the aggregation percentile, the demand window, and the ψ scale
  /// along a fixed recipe cycle, each solved concurrently and scored by
  /// replaying the trailing window against a world snapshot.  Requires an
  /// embedder with WorldState support (OnlineEmbedder::snapshot).
  int candidates = 1;
  /// Early-termination gap for the non-baseline candidates' master solves
  /// (SimplexOptions::early_term_gap): losers only need to be good enough
  /// to score, so their LPs stop once the trailing pivots improve the
  /// objective by at most this fraction of the total improvement.
  /// Candidate 0 always solves exactly.  <= 0 solves every candidate
  /// exactly.
  double loser_gap = 0.02;
};

/// Realized cost of replaying an admission window against a candidate world
/// (lower is better).  Resource cost accrues per slot over the replayed
/// allocations that are active; every rejected — or replay-preempted —
/// request is charged the plan objective's rejection penalty ψ_app · demand
/// · duration, so the score is commensurate with the PLAN-VNE objective.
struct ReplayScore {
  double resource_cost = 0;   ///< Σ_slots Σ_active unit_cost · demand
  double rejection_cost = 0;  ///< Σ_rejected ψ_app · demand · duration
  long accepted = 0;          ///< replayed requests accepted (net of preempts)
  long rejected = 0;          ///< replayed requests rejected or preempted
  double total() const noexcept { return resource_cost + rejection_cost; }
};

/// Clips every request of `trace` whose activity overlaps [from, slot) to
/// that window and re-bases it to window coordinates (arrivals in
/// [0, slot - from)); `base` is the trace's slot-0 arrival offset.  Only
/// arrivals strictly before `slot` are visible — the policy is causal.
/// This is the exact demand-window clip every re-plan aggregates over,
/// exposed for the portfolio scorer, Engine::dry_run_plan, and the
/// boundary-pinning tests.
workload::Trace clip_window(const workload::Trace& trace, int base,
                            std::int64_t from, std::int64_t slot);

/// Trims a run's admission log (its arrivals in admission order, slots
/// `arrival - base`) to the requests clip_window can still select from
/// `from` on: those that depart after `from`.  Windows only move forward,
/// so a log trimmed at each launch to ReplanPolicy::window_start clips to
/// exactly what the full trace would at that launch and every later one.
void trim_admission_log(workload::Trace& log, int base, std::int64_t from);

/// Replays `window` (a clip_window result: window coordinates, arrival
/// sorted) against `world` slot by slot — departures first, then arrivals in
/// trace order — and scores the realized cost over `horizon` slots.
/// Replayed requests get fresh ids far above any real trace id, so they
/// never collide with allocations already active inside the snapshot;
/// preempted pre-snapshot victims are *not* scored (the same blind spot for
/// every candidate, so comparisons stay fair).  Mutates `world` freely —
/// hand it a fork, never the live embedder.
ReplayScore replay_window(core::OnlineEmbedder& world,
                          const workload::Trace& window, std::int64_t horizon,
                          const std::vector<double>& psi);

/// What one re-plan did — the `on_replan` observer payload.
struct ReplanEvent {
  int sequence = 0;              ///< 0-based re-plan index within the run
  std::int64_t launch_slot = 0;  ///< boundary the solve was launched at
  std::int64_t install_slot = 0;  ///< deterministic swap slot (launch+delay)
  bool installed = false;  ///< false iff the embedder refused the plan
  int classes = 0;         ///< classes in the new plan
  double solve_seconds = 0;  ///< wall-clock of the async solve itself
  core::PlanSolveInfo info;  ///< master-LP work of the solve
  int candidates = 1;        ///< portfolio width of this launch
  int winner = 0;            ///< index of the installed candidate
  /// Replay score per candidate (empty when candidates == 1 — the single
  /// solve installs unconditionally, nothing is scored).
  std::vector<double> scores;
};

/// Owns the launch schedule, the async solve(s), and the cross-replan
/// cache/warm-start state.  One instance lives inside each SlotLoop.
class ReplanPolicy {
 public:
  ReplanPolicy(const net::SubstrateNetwork& substrate,
               const std::vector<net::Application>& apps, ReplanConfig config);
  ~ReplanPolicy();  // joins any still-flying solve

  ReplanPolicy(const ReplanPolicy&) = delete;
  ReplanPolicy& operator=(const ReplanPolicy&) = delete;

  bool enabled() const noexcept { return config_.period > 0 && !disabled_; }

  /// True when a new solve should launch at the beginning of `slot`.
  bool wants_launch(std::int64_t slot) const noexcept;

  /// The oldest slot a launch at `slot` clips demand from, over every
  /// portfolio candidate's window.
  std::int64_t window_start(std::int64_t slot) const noexcept;

  /// Launches the async PLAN-VNE solve(s) over the trailing window of
  /// `trace` (slots are `arrival - base`; only arrivals strictly before
  /// `slot` are visible — the policy is causal).  No-op if the window holds
  /// no demand.  `capacities`, if non-empty, is the current-capacity
  /// snapshot the solves price against (ReplanConfig::capacity_aware;
  /// copied, so the caller's view may keep mutating while the solves fly).
  /// Portfolio mode (candidates > 1) additionally needs `world` — the live
  /// embedder, snapshotted here on the caller's thread at the policy-fixed
  /// slot — and `psi`, the per-application rejection penalties the replay
  /// scorer charges; the call refuses embedders without snapshot support.
  void launch(const workload::Trace& trace, int base, std::int64_t slot,
              const std::vector<double>& capacities = {},
              const core::OnlineEmbedder* world = nullptr,
              const std::vector<double>* psi = nullptr);

  /// Install slot of the in-flight solve, or -1 when none is pending.
  std::int64_t pending_install_slot() const noexcept;

  struct Result {
    core::Plan plan;
    ReplanEvent event;
  };

  /// Blocks until the pending solve(s) finish and returns the (winning)
  /// plan.  Call exactly at its install slot.
  Result collect();

  /// Stops all future launches (the engine calls this when the embedder
  /// refuses `install_plan`).
  void disable() noexcept { disabled_ = true; }

  /// Failure-hit embeddings observed since the last launch (the engine
  /// reports every failure event's impact); drives the `failure_burst`
  /// early-launch trigger.
  void note_failure_impact(int broken) noexcept { failure_hits_ += broken; }

 private:
  /// One portfolio candidate's complete outcome.  Each candidate solves
  /// against private copies of the column cache and warm-start basis;
  /// collect() adopts the winner's, so the carried state always matches the
  /// plan that was actually installed.
  struct CandidateOutcome {
    core::Plan plan;
    core::PlanSolveInfo info;
    int classes = 0;
    double solve_seconds = 0;
    ReplayScore replay;
    double score = 0;
    core::PlanColumnCache cache;
    core::PlanWarmStart warm;
  };

  struct Pending {
    std::int64_t install_slot = 0;
    std::future<Result> result;  ///< the single solve when candidates == 1
    /// The K concurrent candidate solves when candidates > 1.
    std::vector<std::future<CandidateOutcome>> portfolio;
    ReplanEvent event;  ///< base event the portfolio winner fills in
  };

  const net::SubstrateNetwork& substrate_;
  const std::vector<net::Application>& apps_;
  ReplanConfig config_;
  core::PlanColumnCache cache_;
  core::PlanWarmStart warm_;
  std::optional<Pending> pending_;
  int sequence_ = 0;
  int failure_hits_ = 0;  ///< since the last launch (failure_burst trigger)
  bool disabled_ = false;
};

}  // namespace olive::engine
