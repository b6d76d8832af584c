// Interface shared by the per-request online embedding algorithms
// (OLIVE, QUICKG, FULLG).  The SLOTOFF baseline re-allocates whole slots and
// has its own driver (engine::Engine::run_slotoff; see engine/engine.hpp).
#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/load.hpp"
#include "core/plan.hpp"
#include "core/world.hpp"
#include "net/embedding.hpp"
#include "workload/request.hpp"

namespace olive::core {

/// How an accepted request was embedded (Fig. 12's categories).
enum class OutcomeKind {
  Planned,   ///< followed the plan within the class's guaranteed share
  Borrowed,  ///< partial plan fit: used a plan column, "borrowing" capacity
  Greedy,    ///< ad-hoc GREEDYEMBED / exact fallback
  Rejected,
};

const char* to_string(OutcomeKind k) noexcept;

/// Admission fast-path diagnostics (docs/olive-fastpath.md).  Counters only:
/// none of these may influence decisions.  The speculation counters depend on
/// the thread count (speculation is disabled at width 1), so they are
/// explicitly *outside* the bit-identity determinism contract — decisions and
/// every other SimMetrics field stay bit-identical at any OLIVE_THREADS.
struct FastPathStats {
  long greedy_memo_hits = 0;    ///< greedy embeds answered from the memo
  long greedy_memo_misses = 0;  ///< greedy embeds that had to recompute
  long greedy_memo_invalidations = 0;  ///< memos dropped on a stale epoch
  long column_skips = 0;  ///< plan stages skipped via the class residual max
  long spec_commits = 0;  ///< speculative decisions committed as-is
  long spec_misses = 0;   ///< speculative decisions re-derived serially
  long spec_serial = 0;   ///< arrivals speculation declined (preempt path)
};

struct EmbedOutcome {
  OutcomeKind kind = OutcomeKind::Rejected;
  /// Resource cost per demand unit of the chosen embedding (accepted only).
  double unit_cost = 0;
  /// The chosen embedding and its per-unit-demand usage, shared with the
  /// embedder's own ledger (null on a reject).  The substrate-dynamics
  /// layer keeps it to repair allocations broken by failures.
  PlacementPtr placement;
  /// Requests preempted to make room (their resources are already released).
  std::vector<workload::RequestId> preempted_ids;

  bool accepted() const noexcept { return kind != OutcomeKind::Rejected; }
};

class OnlineEmbedder {
 public:
  virtual ~OnlineEmbedder() = default;

  virtual std::string name() const = 0;

  /// Clears all state (active allocations, residuals) for a fresh run.
  virtual void reset() = 0;

  /// Processes request r in arrival order (ON-VNE, Fig. 2).
  virtual EmbedOutcome embed(const workload::Request& r) = 0;

  /// Optional batched-admission hint: the engine announces one slot's
  /// arrivals (in order) before calling embed() on each of them, so the
  /// embedder may precompute candidate decisions in parallel against its
  /// current — frozen — state.  Purely advisory: embed() must return exactly
  /// what a hint-free serial run would, for every request.  Default: no-op.
  virtual void hint_arrivals(const workload::Request* batch,
                             std::size_t count) {
    (void)batch;
    (void)count;
  }

  /// Fast-path counters since the last reset() (all-zero for embedders
  /// without a fast path).  Diagnostics only — see FastPathStats.
  virtual FastPathStats fastpath_stats() const { return {}; }

  /// Releases the resources of a departing accepted request.  Calling this
  /// for a rejected or preempted request is a no-op.
  virtual void depart(const workload::Request& r) = 0;

  /// Replaces the embedder's plan mid-run (the engine's ReplanPolicy calls
  /// this at the deterministic swap slot).  Returns false when the embedder
  /// has no notion of a plan — the default — in which case the engine stops
  /// re-planning for the rest of the run.
  virtual bool install_plan(Plan plan) {
    (void)plan;
    return false;
  }

  /// Applies a substrate capacity change (failure / recovery / rescale) to
  /// the embedder's residual view.  Returns false when the embedder does not
  /// track dynamic capacity — the default — in which case the engine refuses
  /// to run a failure trace against it.
  virtual bool set_element_capacity(int element, double capacity) {
    (void)element;
    (void)capacity;
    return false;
  }

  /// Re-admits request r (previously evicted via depart) under a
  /// migration-repair embedding.  Returns the applied outcome, or nullopt
  /// when unsupported (the default) or when `e` no longer fits the
  /// residuals — the engine then counts the request as an SLA violation.
  /// Implementations must not preempt to make room (the returned
  /// outcome's preempted_ids must stay empty): `e` either fits as-is or
  /// the adopt fails.
  virtual std::optional<EmbedOutcome> adopt(const workload::Request& r,
                                            const net::Embedding& e) {
    (void)r;
    (void)e;
    return std::nullopt;
  }

  /// Value-semantics snapshot of the embedder's complete mid-run state
  /// (core/world.hpp).  Returns an empty WorldState when the embedder does
  /// not support snapshots — the default — in which case the engine refuses
  /// portfolio re-planning and dry runs against it.
  virtual WorldState snapshot() const { return {}; }

  /// Rewinds this embedder to a state previously captured by snapshot().
  /// Returns false (changing nothing) when unsupported or when `w` was
  /// produced by a different embedder type.  After a successful restore,
  /// the run continues bit-identically to one that never left that state.
  virtual bool restore(const WorldState& w) {
    (void)w;
    return false;
  }

  /// Builds an independent embedder in state `w` without touching this one.
  /// Must be safe to call concurrently with mutations of `this`: the
  /// implementation may read only construction-time immutable state
  /// (substrate, apps, options) plus the snapshot payload.  Returns nullptr
  /// when unsupported — the default.
  virtual std::unique_ptr<OnlineEmbedder> fork(const WorldState& w) const {
    (void)w;
    return nullptr;
  }

  /// Residual substrate view (diagnostics / tests).
  virtual const LoadTracker& load() const = 0;
};

}  // namespace olive::core
