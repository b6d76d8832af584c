#include "core/olive.hpp"

#include <algorithm>
#include <limits>
#include <memory>
#include <optional>
#include <utility>

#include "core/aggregation.hpp"
#include "core/embedder.hpp"
#include "net/embedding.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace olive::core {

const char* to_string(OutcomeKind k) noexcept {
  switch (k) {
    case OutcomeKind::Planned: return "planned";
    case OutcomeKind::Borrowed: return "borrowed";
    case OutcomeKind::Greedy: return "greedy";
    case OutcomeKind::Rejected: return "rejected";
  }
  return "?";
}

OliveEmbedder::OliveEmbedder(const net::SubstrateNetwork& s,
                             const std::vector<net::Application>& apps,
                             Plan plan, std::string name, OliveOptions options)
    : substrate_(s),
      apps_(apps),
      plan_(std::move(plan)),
      name_(std::move(name)),
      options_(options),
      load_(s),
      collocated_(s, apps) {
  reset();
}

bool OliveEmbedder::install_plan(Plan plan) {
  plan_ = std::move(plan);
  plan_used_.assign(plan_.num_classes(), {});
  for (int c = 0; c < plan_.num_classes(); ++c)
    plan_used_[c].assign(plan_.cls(c).columns.size(), 0.0);
  rebuild_class_max();
  // Active planned allocations lose their guaranteed status under the new
  // plan: they keep resources but become preemptible borrowers — and thus
  // join the preempt candidate index.
  for (auto& [id, a] : active_) {
    if (!a.planned) continue;
    a.planned = false;
    a.cls = a.column = -1;
    if (indexing()) index_add(id, a);
  }
  // The speculative batch (if any) was computed against the old plan.
  spec_valid_ = false;
  return true;
}

void OliveEmbedder::reset() {
  load_.reset();
  active_.clear();
  admission_counter_ = 0;
  plan_used_.assign(plan_.num_classes(), {});
  for (int c = 0; c < plan_.num_classes(); ++c)
    plan_used_[c].assign(plan_.cls(c).columns.size(), 0.0);
  rebuild_class_max();
  elem_actives_.assign(substrate_.element_count(), {});
  greedy_memo_.clear();
  spec_.clear();
  spec_cursor_ = 0;
  spec_valid_ = false;
  stats_ = {};
}

double OliveEmbedder::plan_residual(int cls, int column) const {
  return plan_.cls(cls).columns.at(column).planned_demand -
         plan_used_.at(cls).at(column);
}

void OliveEmbedder::refresh_class_max(int cls) {
  const auto& cols = plan_.cls(cls).columns;
  double mx = -std::numeric_limits<double>::infinity();
  for (std::size_t k = 0; k < cols.size(); ++k)
    mx = std::max(mx, cols[k].planned_demand - plan_used_[cls][k]);
  class_max_[cls] = mx;
}

void OliveEmbedder::rebuild_class_max() {
  class_max_.assign(plan_.num_classes(), 0.0);
  for (int c = 0; c < plan_.num_classes(); ++c) refresh_class_max(c);
}

void OliveEmbedder::index_add(workload::RequestId id, Active& a) {
  a.elem_pos.resize(a.usage.size());
  for (std::size_t i = 0; i < a.usage.size(); ++i) {
    auto& bucket = elem_actives_[a.usage[i].first];
    a.elem_pos[i] = static_cast<int>(bucket.size());
    bucket.push_back({a.demand, a.order, id});
  }
}

void OliveEmbedder::index_remove(workload::RequestId id, Active& a) {
  for (std::size_t i = 0; i < a.usage.size(); ++i) {
    auto& bucket = elem_actives_[a.usage[i].first];
    const int pos = a.elem_pos[i];
    OLIVE_ASSERT(bucket.at(pos).id == id);
    const workload::RequestId moved = bucket.back().id;
    bucket[pos] = bucket.back();
    bucket.pop_back();
    if (moved != id) {
      // Backpatch the moved allocation's recorded position for this element
      // (usage vectors aggregate per element, so the entry is unique).
      Active& m = active_.at(moved);
      for (std::size_t j = 0; j < m.usage.size(); ++j) {
        if (m.usage[j].first == a.usage[i].first) {
          m.elem_pos[j] = pos;
          break;
        }
      }
    }
  }
  a.elem_pos.clear();
}

EmbedOutcome OliveEmbedder::allocate(const workload::Request& r,
                                     net::Embedding e, OutcomeKind kind,
                                     int cls, int column,
                                     std::vector<workload::RequestId> preempted,
                                     Usage usage, double unit_cost) {
  EmbedOutcome out;
  out.kind = kind;
  out.usage = std::move(usage);
  out.unit_cost = unit_cost;
  out.embedding = std::move(e);
  out.preempted_ids = std::move(preempted);
  OLIVE_ASSERT(load_.fits(out.usage, r.demand));
  load_.apply(out.usage, r.demand);

  Active a;
  a.usage = out.usage;  // the outcome and the ledger each keep a copy
  a.embedding = out.embedding;
  a.app = r.app;
  a.demand = r.demand;
  a.planned = (kind == OutcomeKind::Planned);
  a.cls = cls;
  a.column = column;
  a.order = admission_counter_++;
  if (a.planned) {
    plan_used_[cls][column] += r.demand;
    refresh_class_max(cls);
  }
  const auto [it, inserted] = active_.emplace(r.id, std::move(a));
  OLIVE_ASSERT(inserted);
  if (!it->second.planned && indexing()) index_add(r.id, it->second);
  return out;
}

std::optional<std::vector<workload::RequestId>> OliveEmbedder::preempt(
    const Usage& usage, double demand) {
  // Deficiency per element that the new allocation would overdraw.
  deficit_.clear();
  for (const auto& [elem, amount] : usage) {
    const double need = amount * demand - load_.residual(elem);
    if (need > 1e-9) deficit_.emplace_back(elem, need);
  }
  if (deficit_.empty()) return std::vector<workload::RequestId>{};

  // Victim scan.  Candidates are the non-planned active allocations that
  // touch a deficient element, offered smallest demand first (the paper
  // does not fix a victim order; preferring small victims minimizes the
  // service lost per preemption), ties broken newest-first.  A candidate
  // that touches no still-deficient element is passed over.  Churn guard:
  // preempting more demand than the planned request serves would shrink
  // net service — in that case leave the borrowers alone and let the
  // request take the greedy/reject path instead.  (The paper fixes neither
  // victim order nor this trade-off; see DESIGN.md.)
  enum class Scan { More, Covered, Churn };
  const double cap = demand * (1 + 1e-9);
  std::vector<workload::RequestId> victims;
  double victim_demand = 0;
  const auto offer = [&](workload::RequestId id, const Active& a) {
    bool helps = false;
    for (const auto& [elem, need] : deficit_) {
      if (need <= 1e-9) continue;
      for (const auto& [ue, amt] : a.usage) {
        if (ue == elem) {
          helps = true;
          break;
        }
      }
      if (helps) break;
    }
    if (!helps) return Scan::More;
    victim_demand += a.demand;
    if (victim_demand > cap) return Scan::Churn;
    victims.push_back(id);
    for (auto& [elem, need] : deficit_) {
      for (const auto& [ue, amt] : a.usage)
        if (ue == elem) need -= amt * a.demand;
    }
    const bool covered = std::all_of(
        deficit_.begin(), deficit_.end(),
        [](const auto& d) { return d.second <= 1e-9; });
    return covered ? Scan::Covered : Scan::More;
  };

  Scan scan = Scan::More;
  if (indexing()) {
    // Fast path (docs/olive-fastpath.md §2): gather the index entries of
    // the deficient elements, dropping any candidate whose own demand is
    // over the churn cap — one that helps would trip the guard whatever
    // came before it, and every later candidate is at least as large, so
    // the scan ends in nullopt exactly as if the candidates ran out.  The
    // rest pop lazily from a heap in the same strict total order a full
    // sort gives; an allocation listed under several deficient elements
    // pops its copies back to back, and all but the first are skipped.
    victim_heap_.clear();
    for (const auto& d : deficit_)
      for (const IndexEntry& e : elem_actives_[d.first])
        if (e.demand <= cap) victim_heap_.push_back(e);
    const auto later = [](const IndexEntry& x, const IndexEntry& y) {
      if (x.demand != y.demand) return x.demand > y.demand;
      return x.order < y.order;
    };
    std::make_heap(victim_heap_.begin(), victim_heap_.end(), later);
    std::int64_t last_order = -1;  // orders are unique and non-negative
    while (scan == Scan::More && !victim_heap_.empty()) {
      std::pop_heap(victim_heap_.begin(), victim_heap_.end(), later);
      const IndexEntry e = victim_heap_.back();
      victim_heap_.pop_back();
      if (e.order == last_order) continue;
      last_order = e.order;
      scan = offer(e.id, active_.at(e.id));
    }
  } else {
    // Specification: scan the whole active set, sort by (demand, order) —
    // a strict total order over distinct allocations, since orders are
    // unique — and offer every candidate in turn.
    const auto touches_deficit = [&](const Active& a) {
      for (const auto& [elem, need] : deficit_) {
        if (need <= 0) continue;
        for (const auto& [ue, amt] : a.usage) {
          (void)amt;
          if (ue == elem) return true;
        }
      }
      return false;
    };
    candidates_.clear();
    for (const auto& [id, a] : active_)
      if (!a.planned && touches_deficit(a)) candidates_.emplace_back(id, &a);
    std::sort(candidates_.begin(), candidates_.end(),
              [](const auto& x, const auto& y) {
                if (x.second->demand != y.second->demand)
                  return x.second->demand < y.second->demand;
                return x.second->order > y.second->order;
              });
    for (const auto& [id, a] : candidates_) {
      scan = offer(id, *a);
      if (scan != Scan::More) break;
    }
  }
  // Churn, or even full preemption would not make room.
  if (scan != Scan::Covered) return std::nullopt;

  // Commit: release the victims' resources and drop them.  release() bumps
  // the grow-epoch, which invalidates the greedy memos and any in-flight
  // speculative batch.
  for (const workload::RequestId vid : victims) {
    Active& victim = active_.at(vid);
    load_.release(victim.usage, victim.demand);
    if (indexing()) index_remove(vid, victim);
    active_.erase(vid);
  }
  return victims;
}

void OliveEmbedder::hint_arrivals(const workload::Request* batch,
                                  std::size_t count) {
  spec_valid_ = false;
  if (!options_.enable_fastpath || batch == nullptr || count < 2) return;
  const int width =
      options_.spec_threads > 0 ? options_.spec_threads : default_thread_count();
  if (width <= 1) return;
  spec_.assign(count, SpecDecision{});
  ThreadPool& pool = ThreadPool::global();
  pool.ensure_workers(width - 1);
  // Read-only against the frozen state: speculate() never touches load_,
  // plan_used_, active_, the memo, or the stats — each task writes only its
  // own pre-sized slot, so the batch is deterministic at any width.
  pool.parallel_for(
      static_cast<int>(count),
      [&](int i) { speculate(batch[i], spec_[i]); }, width);
  spec_cursor_ = 0;
  spec_epoch_ = load_.grow_epoch();
  spec_valid_ = true;
}

void OliveEmbedder::speculate(const workload::Request& r,
                              SpecDecision& out) const {
  using Kind = SpecDecision::Kind;
  out.id = r.id;
  if (r.app < 0 || r.app >= static_cast<int>(apps_.size()) ||
      active_.contains(r.id)) {
    out.kind = Kind::Serial;  // let embed()'s own REQUIREs fire
    return;
  }
  const int cls = plan_.class_index(r.app, r.ingress);
  if (cls >= 0) {
    const PlanClass& pc = plan_.cls(cls);
    const double cmax = class_max_[cls];
    if (cmax >= r.demand - 1e-9) {
      for (std::size_t k = 0; k < pc.columns.size(); ++k) {
        if (plan_residual(cls, static_cast<int>(k)) < r.demand - 1e-9)
          continue;
        if (load_.fits(pc.columns[k].usage, r.demand)) {
          out.kind = Kind::Planned;
          out.cls = cls;
          out.column = static_cast<int>(k);
          return;
        }
      }
      if (options_.enable_preempt) {
        // The preempt stage would run (some column holds plan residual for
        // the full demand) — it mutates state, so it cannot be speculated.
        out.kind = Kind::Serial;
        return;
      }
    }
    if (options_.enable_borrow && cmax > 1e-9) {
      for (std::size_t k = 0; k < pc.columns.size(); ++k) {
        if (plan_residual(cls, static_cast<int>(k)) <= 1e-9) continue;
        if (load_.fits(pc.columns[k].usage, r.demand)) {
          out.kind = Kind::Borrowed;
          out.cls = cls;
          out.column = static_cast<int>(k);
          return;
        }
      }
    }
  }
  if (options_.enable_greedy) {
    // Read-only memo consult (no counter updates from worker threads).
    const auto it = greedy_memo_.find(class_key(r.app, r.ingress));
    if (it != greedy_memo_.end()) {
      const GreedyMemo& m = it->second;
      if (m.epoch == load_.grow_epoch() && r.demand >= m.demand) {
        if (!m.feasible) {
          out.kind = Kind::Reject;
          return;
        }
        if (collocated_.still_fits(r.app, m.embedding, r.demand, load_)) {
          out.usage = m.usage;
          out.embedding = m.embedding;
          out.unit_cost = m.unit_cost;
          out.kind = Kind::Greedy;
          return;
        }
      }
    }
    if (auto emb = collocated_.embed(r.app, r.ingress, r.demand, load_)) {
      out.usage = net::unit_usage(substrate_, apps_[r.app].topology, *emb);
      out.unit_cost = net::usage_cost(substrate_, out.usage);
      out.embedding = std::move(*emb);
      out.kind = Kind::Greedy;
      return;
    }
  }
  out.kind = Kind::Reject;
}

OliveEmbedder::SpecDecision* OliveEmbedder::next_spec(
    const workload::Request& r) {
  if (!spec_valid_) return nullptr;
  if (spec_epoch_ != load_.grow_epoch() || spec_cursor_ >= spec_.size()) {
    spec_valid_ = false;  // something grew a residual — the frozen state lied
    return nullptr;
  }
  SpecDecision& d = spec_[spec_cursor_];
  if (d.id != r.id || d.kind == SpecDecision::Kind::Unset) {
    spec_valid_ = false;  // out-of-order embed — drop the whole batch
    return nullptr;
  }
  ++spec_cursor_;
  return &d;
}

EmbedOutcome OliveEmbedder::embed(const workload::Request& r) {
  OLIVE_REQUIRE(r.app >= 0 && r.app < static_cast<int>(apps_.size()),
                "request app out of range");
  OLIVE_REQUIRE(!active_.contains(r.id), "duplicate request id");

  // Speculation commit: validate the precomputed decision against the live
  // state.  Plan residuals and substrate residuals only shrink within a
  // grow-epoch (next_spec checked it), so a stage that failed at hint time
  // still fails now — only the *chosen* column / embedding needs rechecking,
  // and a rejection needs none (docs/olive-fastpath.md).
  if (SpecDecision* d = next_spec(r)) {
    using Kind = SpecDecision::Kind;
    switch (d->kind) {
      case Kind::Serial:
        ++stats_.spec_serial;
        break;
      case Kind::Reject:
        ++stats_.spec_commits;
        return EmbedOutcome{};
      case Kind::Planned: {
        const PlanColumn& col = plan_.cls(d->cls).columns[d->column];
        if (plan_residual(d->cls, d->column) >= r.demand - 1e-9 &&
            load_.fits(col.usage, r.demand)) {
          ++stats_.spec_commits;
          return allocate(r, col.embedding, OutcomeKind::Planned, d->cls,
                          d->column, {}, col.usage, col.unit_cost);
        }
        ++stats_.spec_misses;
        break;
      }
      case Kind::Borrowed: {
        const PlanColumn& col = plan_.cls(d->cls).columns[d->column];
        if (plan_residual(d->cls, d->column) > 1e-9 &&
            load_.fits(col.usage, r.demand)) {
          ++stats_.spec_commits;
          return allocate(r, col.embedding, OutcomeKind::Borrowed, d->cls,
                          d->column, {}, col.usage, col.unit_cost);
        }
        ++stats_.spec_misses;
        break;
      }
      case Kind::Greedy: {
        if (collocated_.still_fits(r.app, d->embedding, r.demand, load_)) {
          ++stats_.spec_commits;
          // Refresh the memo for later same-class arrivals of this slot.
          GreedyMemo& m = greedy_memo_[class_key(r.app, r.ingress)];
          m.epoch = load_.grow_epoch();
          m.demand = r.demand;
          m.feasible = true;
          m.usage = d->usage;
          m.embedding = d->embedding;
          m.unit_cost = d->unit_cost;
          return allocate(r, std::move(d->embedding), OutcomeKind::Greedy, -1,
                          -1, {}, std::move(d->usage), d->unit_cost);
        }
        ++stats_.spec_misses;
        break;
      }
      case Kind::Unset:
        break;  // unreachable: next_spec filters Unset
    }
  }
  return embed_serial(r);
}

EmbedOutcome OliveEmbedder::embed_serial(const workload::Request& r) {
  const int cls = plan_.class_index(r.app, r.ingress);
  const bool fast = options_.enable_fastpath;

  if (cls >= 0) {
    const PlanClass& pc = plan_.cls(cls);
    // class_max_[cls] is the exact max of the class's plan residuals, so a
    // stage whose per-column residual gate cannot pass is skipped wholesale.
    const double cmax = fast ? class_max_[cls] : 0.0;
    if (!fast || cmax >= r.demand - 1e-9) {
      // --- PLANEMBED, full fit (Alg. 2 line 25): plan residual covers d(r).
      // First pass: a column that fits the substrate as-is; preemption
      // (lines 8-9) is a last resort, only once no column fits without it —
      // otherwise borrowed allocations get churned needlessly.
      for (std::size_t k = 0; k < pc.columns.size(); ++k) {
        if (plan_residual(cls, static_cast<int>(k)) < r.demand - 1e-9)
          continue;
        const PlanColumn& col = pc.columns[k];
        if (load_.fits(col.usage, r.demand)) {
          return allocate(r, col.embedding, OutcomeKind::Planned, cls,
                          static_cast<int>(k), {}, col.usage, col.unit_cost);
        }
      }
      if (options_.enable_preempt) {
        // Guaranteed share: free "borrowed" capacity (lines 8-9).
        for (std::size_t k = 0; k < pc.columns.size(); ++k) {
          if (plan_residual(cls, static_cast<int>(k)) < r.demand - 1e-9)
            continue;
          const PlanColumn& col = pc.columns[k];
          if (auto preempted = preempt(col.usage, r.demand)) {
            return allocate(r, col.embedding, OutcomeKind::Planned, cls,
                            static_cast<int>(k), std::move(*preempted),
                            col.usage, col.unit_cost);
          }
        }
      }
    } else {
      ++stats_.column_skips;
    }
    // --- PLANEMBED, partial fit (line 27): borrow along a plan column.
    if (options_.enable_borrow) {
      if (!fast || cmax > 1e-9) {
        for (std::size_t k = 0; k < pc.columns.size(); ++k) {
          const PlanColumn& col = pc.columns[k];
          if (plan_residual(cls, static_cast<int>(k)) <= 1e-9) continue;
          if (load_.fits(col.usage, r.demand)) {
            return allocate(r, col.embedding, OutcomeKind::Borrowed, cls,
                            static_cast<int>(k), {}, col.usage, col.unit_cost);
          }
        }
      } else {
        ++stats_.column_skips;
      }
    }
  }

  // --- GREEDYEMBED fallback (line 11).
  if (options_.enable_greedy) {
    if (fast) {
      const long long key = class_key(r.app, r.ingress);
      const auto it = greedy_memo_.find(key);
      if (it != greedy_memo_.end()) {
        GreedyMemo& m = it->second;
        if (m.epoch != load_.grow_epoch()) {
          ++stats_.greedy_memo_invalidations;
        } else if (r.demand >= m.demand) {
          // Same epoch, no smaller demand: the feasible set only shrank
          // since the memo was taken, so an infeasible memo stays
          // infeasible, and a feasible one that still passes the greedy's
          // own residual tests is exactly what GREEDYEMBED would return.
          if (!m.feasible) {
            ++stats_.greedy_memo_hits;
            return EmbedOutcome{};
          }
          if (collocated_.still_fits(r.app, m.embedding, r.demand, load_)) {
            ++stats_.greedy_memo_hits;
            return allocate(r, m.embedding, OutcomeKind::Greedy, -1, -1, {},
                            m.usage, m.unit_cost);
          }
        }
      }
      ++stats_.greedy_memo_misses;
      auto emb = collocated_.embed(r.app, r.ingress, r.demand, load_);
      GreedyMemo& m = greedy_memo_[key];
      m.epoch = load_.grow_epoch();
      m.demand = r.demand;
      m.feasible = emb.has_value();
      if (emb) {
        m.usage = net::unit_usage(substrate_, apps_[r.app].topology, *emb);
        m.unit_cost = net::usage_cost(substrate_, m.usage);
        m.embedding = *emb;
        return allocate(r, std::move(*emb), OutcomeKind::Greedy, -1, -1, {},
                        Usage(m.usage), m.unit_cost);
      }
      m.usage.clear();
      m.embedding = net::Embedding{};
      m.unit_cost = 0;
    } else if (auto emb = greedy_collocated_embedding(
                   substrate_, apps_[r.app].topology, r.ingress, r.demand,
                   load_)) {
      Usage usage = net::unit_usage(substrate_, apps_[r.app].topology, *emb);
      const double uc = net::usage_cost(substrate_, usage);
      return allocate(r, std::move(*emb), OutcomeKind::Greedy, -1, -1, {},
                      std::move(usage), uc);
    }
  }

  return EmbedOutcome{};  // reject (line 15)
}

// Everything restore() cannot rebuild from (substrate, apps, options): the
// residual view, the plan and its per-column usage, the active ledger, the
// admission order counter, the greedy memo (its epoch field stays valid
// because load_ — including its grow-epoch — is part of the snapshot), and
// the diagnostics counters.  class_max_ and elem_actives_ are derived and
// rebuilt on restore; the speculation buffers are transient by design.
struct OliveEmbedder::Snapshot {
  LoadTracker load;
  Plan plan;
  std::vector<std::vector<double>> plan_used;
  std::unordered_map<workload::RequestId, Active> active;
  std::int64_t admission_counter = 0;
  std::unordered_map<long long, GreedyMemo> greedy_memo;
  FastPathStats stats;
};

WorldState OliveEmbedder::snapshot() const {
  auto snap = std::make_shared<const Snapshot>(Snapshot{
      load_, plan_, plan_used_, active_, admission_counter_, greedy_memo_,
      stats_});
  return WorldState("OliveEmbedder",
                    std::shared_ptr<const Snapshot>(std::move(snap)));
}

bool OliveEmbedder::restore(const WorldState& w) {
  const auto* held =
      std::any_cast<std::shared_ptr<const Snapshot>>(&w.payload());
  if (held == nullptr || *held == nullptr) return false;
  const Snapshot& snap = **held;
  load_ = snap.load;
  plan_ = snap.plan;
  plan_used_ = snap.plan_used;
  active_ = snap.active;
  admission_counter_ = snap.admission_counter;
  greedy_memo_ = snap.greedy_memo;
  stats_ = snap.stats;
  rebuild_class_max();
  // Rebuild the preempt candidate index in ascending id order — a fixed
  // order so two restores of the same snapshot produce byte-identical
  // bucket layouts (the victim heap pops in key order whatever the layout,
  // but determinism should not rest on unordered_map iteration).
  elem_actives_.assign(substrate_.element_count(), {});
  if (indexing()) {
    std::vector<workload::RequestId> ids;
    ids.reserve(active_.size());
    for (const auto& [id, a] : active_)
      if (!a.planned) ids.push_back(id);
    std::sort(ids.begin(), ids.end());
    for (const workload::RequestId id : ids) index_add(id, active_.at(id));
  } else {
    for (auto& [id, a] : active_) a.elem_pos.clear();
  }
  // Any speculative batch was computed against the pre-restore state.
  spec_.clear();
  spec_cursor_ = 0;
  spec_valid_ = false;
  return true;
}

std::unique_ptr<OnlineEmbedder> OliveEmbedder::fork(const WorldState& w) const {
  // Reads only construction-time immutable state (substrate_, apps_, name_,
  // options_) plus the snapshot payload — never load_/plan_/active_ — so
  // this is safe while the live embedder keeps mutating on another thread.
  auto clone = std::make_unique<OliveEmbedder>(substrate_, apps_,
                                               Plan::empty(), name_, options_);
  if (!clone->restore(w)) return nullptr;
  return clone;
}

bool OliveEmbedder::set_element_capacity(int element, double capacity) {
  // A raise bumps the grow-epoch (invalidating memos and speculation); a
  // drop only shrinks residuals, which every cached decision revalidates
  // against anyway.
  load_.set_capacity(element, capacity);
  return true;
}

std::optional<EmbedOutcome> OliveEmbedder::adopt(const workload::Request& r,
                                                 const net::Embedding& e) {
  OLIVE_REQUIRE(!active_.contains(r.id), "adopt of a still-active request");
  Usage usage = net::unit_usage(substrate_, apps_[r.app].topology, e);
  if (!load_.fits(usage, r.demand)) return std::nullopt;
  const double uc = net::usage_cost(substrate_, usage);
  // Migrated allocations are ad-hoc: they hold no plan share and are
  // preemptible like any greedy embedding.
  return allocate(r, e, OutcomeKind::Greedy, -1, -1, {}, std::move(usage), uc);
}

std::vector<OliveEmbedder::ActiveAllocation>
OliveEmbedder::active_allocations() const {
  std::vector<ActiveAllocation> out;
  out.reserve(active_.size());
  for (const auto& [id, a] : active_)
    out.push_back({id, a.app, a.demand, a.usage, a.embedding});
  std::sort(out.begin(), out.end(),
            [](const auto& x, const auto& y) { return x.id < y.id; });
  return out;
}

void OliveEmbedder::depart(const workload::Request& r) {
  const auto it = active_.find(r.id);
  if (it == active_.end()) return;  // rejected or preempted earlier
  Active& a = it->second;
  load_.release(a.usage, a.demand);
  if (a.planned) {
    plan_used_[a.cls][a.column] -= a.demand;
    refresh_class_max(a.cls);
  } else if (indexing()) {
    index_remove(r.id, a);
  }
  active_.erase(it);
}

}  // namespace olive::core
