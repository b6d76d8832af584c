// OLIVE — the plan-based online embedder (paper Algorithm 2).
//
// Decision sequence for each arriving request r (§III-C):
//   1. PLANEMBED full fit: a plan column of r's class with enough *plan*
//      residual (Eq. 17, line 25).  If the substrate lacks room because
//      other requests "borrowed" capacity, PREEMPT non-planned allocations
//      to free it (lines 8–9) — planned demand is guaranteed.
//   2. PLANEMBED partial fit: a plan column with any positive residual whose
//      embedding fits the substrate (line 27) — the request "borrows" unused
//      planned capacity and is itself preemptible.
//   3. GREEDYEMBED: least-cost collocated ad-hoc embedding (line 11).
//   4. Reject.
//
// QUICKG is OLIVE with the empty plan (steps 1–2 vanish), exactly as the
// paper defines it.
//
// Admission fast path (docs/olive-fastpath.md): the decision sequence above
// is the *specification*; when options.enable_fastpath is on, embed() takes
// provably bit-identical shortcuts —
//   * a per-class running maximum of plan residuals skips whole PLANEMBED
//     stages when no column can pass its residual gate;
//   * a per-element reverse index of non-planned allocations, carrying each
//     victim's sort key inline, replaces the full active-set scan inside
//     preempt(); candidates above the churn cap are dropped at the gather
//     and the rest pop lazily from a heap, so preempt() pays for the
//     victims it reads, not for every borrower it could read;
//   * GREEDYEMBED runs as a core::CollocatedSearch: per-application host
//     tables built once, per-thread scratch, and a Dijkstra that stops as
//     soon as no unsettled node can beat the best host found;
//   * GREEDYEMBED results are memoized per class and revalidated against
//     the LoadTracker grow-epoch plus the search's own residual tests on
//     the cached host and path;
//   * hint_arrivals() speculatively evaluates a whole slot's arrivals in
//     parallel against the frozen state, and embed() commits each decision
//     after a monotonicity-based validation (recomputing on a miss).
// Every shortcut preserves the exact decision (and embedding bytes) the
// specification path would produce, at any thread count.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>

#include "core/algorithm.hpp"
#include "core/embedder.hpp"
#include "core/plan.hpp"
#include "net/vnet.hpp"

namespace olive::core {

/// Mechanism toggles, used by the ablation study (bench/ablation_mechanisms)
/// to isolate the contribution of each compensation mechanism of §III-C.
struct OliveOptions {
  bool enable_borrow = true;   ///< partial plan fit (Alg. 2 line 27)
  bool enable_preempt = true;  ///< preempt borrowers for planned demand
  bool enable_greedy = true;   ///< GREEDYEMBED fallback (line 11)
  /// Admission fast path (cache + speculation, docs/olive-fastpath.md).
  /// Off = the literal specification path; decisions are identical either
  /// way (the fuzz suite asserts it), so this is a perf toggle, not an
  /// ablation mechanism.
  bool enable_fastpath = true;
  /// Speculation width for hint_arrivals: 0 = default_thread_count()
  /// (OLIVE_THREADS), 1 = speculation disabled, >1 = that many threads.
  int spec_threads = 0;
};

class OliveEmbedder final : public OnlineEmbedder {
 public:
  /// `plan` may be Plan::empty() (that is QUICKG).
  OliveEmbedder(const net::SubstrateNetwork& s,
                const std::vector<net::Application>& apps, Plan plan,
                std::string name = "OLIVE", OliveOptions options = {});

  /// Replaces the plan mid-run (the paper's future-work hook for
  /// time-dependent expected demand: re-plan at window boundaries —
  /// engine::ReplanPolicy drives this).  Currently-active planned
  /// allocations are re-classified as borrowed — they keep their resources
  /// but no longer hold guaranteed shares of the new plan, and become
  /// preemptible like any other non-planned allocation.
  bool install_plan(Plan plan) override;

  std::string name() const override { return name_; }
  void reset() override;
  EmbedOutcome embed(const workload::Request& r) override;
  void hint_arrivals(const workload::Request* batch,
                     std::size_t count) override;
  FastPathStats fastpath_stats() const override { return stats_; }
  void depart(const workload::Request& r) override;
  const LoadTracker& load() const override { return load_; }

  /// Substrate dynamics: capacity changes flow straight into the residual
  /// view, and migration repairs re-admit as ad-hoc (greedy, preemptible)
  /// allocations.
  bool set_element_capacity(int element, double capacity) override;
  std::optional<EmbedOutcome> adopt(const workload::Request& r,
                                    const net::Embedding& e) override;

  /// World snapshots (core/world.hpp): the payload copies load_, plan_,
  /// plan_used_, the active ledger, the admission counter, the greedy memo
  /// and the fast-path counters; the derived indexes (class_max_,
  /// elem_actives_) are rebuilt deterministically on restore, and any
  /// in-flight speculative batch is dropped (it was computed against a
  /// state the restored world never saw).  fork() reads only
  /// construction-time state plus the snapshot, so it is safe while this
  /// embedder keeps serving.
  WorldState snapshot() const override;
  bool restore(const WorldState& w) override;
  std::unique_ptr<OnlineEmbedder> fork(const WorldState& w) const override;

  const Plan& plan() const noexcept { return plan_; }

  /// Residual planned demand of a plan column (Eq. 17), for tests.
  double plan_residual(int cls, int column) const;

  /// Snapshot of the active allocations, sorted by request id — the
  /// simulation-level invariant checker reconciles this against load().
  struct ActiveAllocation {
    workload::RequestId id = -1;
    int app = -1;
    double demand = 0;
    Usage usage;
    net::Embedding embedding;
  };
  std::vector<ActiveAllocation> active_allocations() const;

 private:
  struct Active {
    Usage usage;
    net::Embedding embedding;
    /// Position of this allocation inside elem_actives_[usage[i].first],
    /// parallel to `usage`.  Maintained only while the allocation is
    /// indexed (non-planned, fast path on); empty otherwise.
    std::vector<int> elem_pos;
    int app = -1;
    double demand = 0;
    bool planned = false;
    int cls = -1, column = -1;  // plan bookkeeping for planned allocations
    std::int64_t order = 0;     // admission order, newest preempted first
  };

  /// One preempt-index entry: the allocation's victim-order key (demand
  /// ascending, order descending) inline, so gathering candidates never
  /// looks the allocation up in active_.
  struct IndexEntry {
    double demand = 0;
    std::int64_t order = 0;
    workload::RequestId id = -1;
  };

  /// Memoized GREEDYEMBED answer for one (app, ingress) class.  Valid for a
  /// later request iff the grow-epoch matches and its demand >= `demand`
  /// (feasible sets only shrink within an epoch); a feasible memo must
  /// additionally pass CollocatedSearch::still_fits at the new demand.
  struct GreedyMemo {
    std::uint64_t epoch = 0;
    double demand = 0;
    bool feasible = false;
    Usage usage;
    net::Embedding embedding;
    double unit_cost = 0;
  };

  /// The snapshot() payload: every field that is not a pure function of the
  /// construction-time (substrate, apps, options) triple or rebuildable
  /// from the ones below.  Held behind a shared_ptr<const Snapshot> inside
  /// WorldState, so snapshots copy in O(1) and stay immutable.
  struct Snapshot;

  /// One speculative decision produced by hint_arrivals for one arrival.
  struct SpecDecision {
    enum class Kind : std::uint8_t {
      Unset,     ///< speculation did not run / produced nothing
      Serial,    ///< declined (preempt stage live) — derive serially
      Reject,
      Planned,   ///< plan column `column` of class `cls`, full fit
      Borrowed,  ///< plan column `column` of class `cls`, partial fit
      Greedy,    ///< `embedding`/`usage`/`unit_cost` hold the result
    };
    Kind kind = Kind::Unset;
    workload::RequestId id = -1;
    int cls = -1, column = -1;
    Usage usage;
    net::Embedding embedding;
    double unit_cost = 0;
  };

  EmbedOutcome allocate(const workload::Request& r, net::Embedding e,
                        OutcomeKind kind, int cls, int column,
                        std::vector<workload::RequestId> preempted,
                        Usage usage, double unit_cost);

  /// The specification decision sequence (optionally consulting the greedy
  /// memo / class-max shortcuts) — everything of embed() except the
  /// speculation commit.
  EmbedOutcome embed_serial(const workload::Request& r);

  /// Frees non-planned allocations overlapping the deficient elements until
  /// `usage`*demand fits, smallest victims first (newest first among equal
  /// demands).  Returns the preempted ids, or nullopt (and changes nothing)
  /// if that would take more than `demand` of victims or even preempting
  /// every candidate would not make room.
  std::optional<std::vector<workload::RequestId>> preempt(const Usage& usage,
                                                          double demand);

  /// Read-only candidate evaluation for one arrival against the current
  /// (frozen) state; runs concurrently from hint_arrivals.
  void speculate(const workload::Request& r, SpecDecision& out) const;

  /// Pops the next speculative decision if it matches r and the speculation
  /// batch is still valid; nullptr otherwise.  The returned slot may be
  /// moved from (it is consumed either way).
  SpecDecision* next_spec(const workload::Request& r);

  // --- fast-path index maintenance -------------------------------------
  bool indexing() const noexcept { return options_.enable_fastpath; }
  void index_add(workload::RequestId id, Active& a);
  void index_remove(workload::RequestId id, Active& a);
  void refresh_class_max(int cls);
  void rebuild_class_max();

  const net::SubstrateNetwork& substrate_;
  const std::vector<net::Application>& apps_;
  Plan plan_;
  std::string name_;
  OliveOptions options_;
  LoadTracker load_;
  std::vector<std::vector<double>> plan_used_;  // [class][column] demand
  std::unordered_map<workload::RequestId, Active> active_;
  std::int64_t admission_counter_ = 0;

  /// GREEDYEMBED of the fast path; the specification path calls the
  /// literal greedy_collocated_embedding.
  CollocatedSearch collocated_;
  /// max_k plan_residual(cls, k), kept exact on every plan_used_ change —
  /// lets embed() skip whole PLANEMBED stages without touching a column.
  std::vector<double> class_max_;
  /// elem_actives_[element] = the *non-planned* actives whose usage
  /// touches that element (the preempt candidate set), with O(1)
  /// swap-remove via Active::elem_pos.
  std::vector<std::vector<IndexEntry>> elem_actives_;
  std::unordered_map<long long, GreedyMemo> greedy_memo_;

  std::vector<SpecDecision> spec_;
  std::size_t spec_cursor_ = 0;
  std::uint64_t spec_epoch_ = 0;
  bool spec_valid_ = false;

  FastPathStats stats_;

  // preempt() scratch (reused across calls, cleared on entry)
  std::vector<std::pair<int, double>> deficit_;
  std::vector<std::pair<workload::RequestId, const Active*>> candidates_;
  std::vector<IndexEntry> victim_heap_;
};

}  // namespace olive::core
