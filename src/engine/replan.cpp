#include "engine/replan.hpp"

#include <algorithm>
#include <chrono>
#include <unordered_map>
#include <utility>

#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace olive::engine {

namespace {

/// Replayed requests get ids in their own far-away range so they can never
/// collide with allocations already active inside the world snapshot
/// (OLIVE's ledger requires unique ids) and so replay_window can tell
/// replay preemption victims from pre-snapshot ones.
constexpr workload::RequestId kReplayIdBase = 1LL << 56;

/// One portfolio candidate's solver configuration — a pure function of
/// (candidate index, base config), so the portfolio is deterministic and
/// self-describing.  Candidate 0 is the exact baseline.  Candidates 1..K-1
/// cycle through six perturbation axes with growing intensity: protect less
/// / more (aggregation percentile ∓10·i), react faster / slower (demand
/// window halved / doubled i times), and reject dearer / cheaper (ψ scaled
/// by 2^i / 2^-i).
struct CandidateRecipe {
  double alpha;       ///< aggregation percentile
  int window;         ///< demand window, slots
  double psi_scale;   ///< PlanVneConfig::psi_scale
  double early_gap;   ///< SimplexOptions::early_term_gap (0 = exact)
};

CandidateRecipe candidate_recipe(int k, const ReplanConfig& config,
                                 int base_window) {
  CandidateRecipe r;
  r.alpha = config.aggregation.alpha;
  r.window = base_window;
  r.psi_scale = config.plan.psi_scale;
  r.early_gap = 0.0;
  if (k == 0) return r;  // the exact baseline
  r.early_gap = std::max(0.0, config.loser_gap);
  const int intensity = 1 + (k - 1) / 6;
  switch ((k - 1) % 6) {
    case 0: r.alpha = std::max(50.0, r.alpha - 10.0 * intensity); break;
    case 1: r.window = std::max(1, base_window >> intensity); break;
    case 2: r.psi_scale *= static_cast<double>(1 << intensity); break;
    case 3: r.alpha = std::min(100.0, r.alpha + 10.0 * intensity); break;
    case 4: r.window = base_window << intensity; break;
    case 5: r.psi_scale /= static_cast<double>(1 << intensity); break;
  }
  return r;
}

}  // namespace

workload::Trace clip_window(const workload::Trace& trace, int base,
                            std::int64_t from, std::int64_t slot) {
  // Clip every request whose activity overlaps [from, slot) to the window
  // and re-base it to window coordinates — exactly the per-slot demand the
  // aggregation percentile estimator expects.  Boundary semantics (pinned
  // by tests/engine_test.cpp): a request with arrival + duration == from
  // departed exactly when the window opens and is excluded; an arrival
  // before `from` that is still active gets its duration clipped to the
  // part inside the window.
  workload::Trace clipped;
  for (const auto& r : trace) {
    const std::int64_t arrival = static_cast<std::int64_t>(r.arrival) - base;
    // The trace is arrival-sorted (the engine's arrival loop relies on
    // that too), so the first future request ends the scan.
    if (arrival >= slot) break;
    const std::int64_t departure = arrival + r.duration;
    if (departure <= from) continue;
    workload::Request c = r;
    c.arrival = static_cast<int>(std::max(arrival, from) - from);
    c.duration =
        static_cast<int>(std::min(departure, slot) - std::max(arrival, from));
    clipped.push_back(c);
  }
  return clipped;
}

void trim_admission_log(workload::Trace& log, int base, std::int64_t from) {
  std::erase_if(log, [base, from](const workload::Request& r) {
    return static_cast<std::int64_t>(r.arrival) - base + r.duration <= from;
  });
}

ReplayScore replay_window(core::OnlineEmbedder& world,
                          const workload::Trace& window, std::int64_t horizon,
                          const std::vector<double>& psi) {
  ReplayScore score;
  if (horizon <= 0) return score;
  const std::size_t n = window.size();

  // Fresh ids in the replay range, preserving trace order.
  std::vector<workload::Request> reqs(window.begin(), window.end());
  std::unordered_map<workload::RequestId, std::size_t> index;
  index.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    reqs[i].id = kReplayIdBase + static_cast<workload::RequestId>(i);
    index.emplace(reqs[i].id, i);
  }

  const auto rejection_cost = [&](const workload::Request& r) {
    const double p =
        (r.app >= 0 && r.app < static_cast<int>(psi.size())) ? psi[r.app] : 0.0;
    return p * r.demand * static_cast<double>(r.duration);
  };

  // Slot loop mirrors the engine: departures first, then arrivals in trace
  // order; resource cost accrues once per slot for whatever replayed
  // allocations are active at the end of the slot.
  std::vector<char> active(n, 0);
  std::vector<double> rate(n, 0.0);  // unit_cost · demand while active
  std::vector<std::vector<std::size_t>> departs(
      static_cast<std::size_t>(horizon) + 1);
  double active_rate = 0;
  std::size_t next = 0;
  for (std::int64_t t = 0; t < horizon; ++t) {
    for (const std::size_t i : departs[static_cast<std::size_t>(t)]) {
      if (!active[i]) continue;  // preempted earlier
      world.depart(reqs[i]);
      active[i] = 0;
      active_rate -= rate[i];
    }
    for (; next < n && reqs[next].arrival <= t; ++next) {
      const workload::Request& r = reqs[next];
      const core::EmbedOutcome out = world.embed(r);
      for (const workload::RequestId victim : out.preempted_ids) {
        // Pre-snapshot victims are not scored: every candidate replays
        // against the same snapshot, so the blind spot cancels out.
        if (victim < kReplayIdBase) continue;
        const std::size_t vi = index.at(victim);
        if (!active[vi]) continue;
        active[vi] = 0;
        active_rate -= rate[vi];
        score.rejection_cost += rejection_cost(reqs[vi]);
        --score.accepted;
        ++score.rejected;
      }
      if (out.accepted()) {
        active[next] = 1;
        rate[next] = out.unit_cost * r.demand;
        active_rate += rate[next];
        const std::int64_t dep = std::min(
            static_cast<std::int64_t>(r.arrival) + r.duration, horizon);
        departs[static_cast<std::size_t>(dep)].push_back(next);
        ++score.accepted;
      } else {
        ++score.rejected;
        score.rejection_cost += rejection_cost(r);
      }
    }
    score.resource_cost += active_rate;
  }
  return score;
}

ReplanPolicy::ReplanPolicy(const net::SubstrateNetwork& substrate,
                           const std::vector<net::Application>& apps,
                           ReplanConfig config, serve::Clock& clock)
    : substrate_(substrate),
      apps_(apps),
      config_(std::move(config)),
      clock_(clock) {
  if (config_.period > 0) {
    OLIVE_REQUIRE(config_.install_delay >= 1 &&
                      config_.install_delay < config_.period,
                  "replan install_delay must stay in [1, period)");
    OLIVE_REQUIRE(config_.window >= 0, "replan window must be >= 0");
    OLIVE_REQUIRE(config_.candidates >= 1, "replan candidates must be >= 1");
  }
}

ReplanPolicy::~ReplanPolicy() {
  // A solve launched near the end of the run may never reach its install
  // slot; join it so the captured references stay valid until it finishes.
  if (pending_)
    for (auto& f : pending_->candidates)
      if (f.valid()) f.wait();
}

bool ReplanPolicy::wants_launch(std::int64_t slot) const noexcept {
  if (!enabled() || pending_ || slot <= 0) return false;
  if (slot % config_.period == 0) return true;
  return config_.failure_burst > 0 && failure_hits_ >= config_.failure_burst;
}

std::int64_t ReplanPolicy::window_start(std::int64_t slot) const noexcept {
  const int window = config_.window > 0 ? config_.window : config_.period;
  int widest = window;
  for (int k = 1; k < config_.candidates; ++k)
    widest = std::max(widest, candidate_recipe(k, config_, window).window);
  return std::max<std::int64_t>(0, slot - widest);
}

void ReplanPolicy::launch(const workload::Trace& trace, int base,
                          std::int64_t slot,
                          const std::vector<double>& capacities,
                          const core::OnlineEmbedder& world,
                          const std::vector<double>& psi) {
  OLIVE_ASSERT(!pending_);
  failure_hits_ = 0;  // the burst trigger re-arms per launch attempt
  const int window = config_.window > 0 ? config_.window : config_.period;
  const std::int64_t from = std::max<std::int64_t>(0, slot - window);

  workload::Trace clipped = clip_window(trace, base, from, slot);
  if (clipped.empty()) return;  // nothing to plan for this window

  const int sequence = sequence_++;
  const Rng rng = Rng(config_.seed)
                      .fork(stable_hash("replan"))
                      .fork(static_cast<std::uint64_t>(sequence) + 1);

  // Everything a candidate reads is captured by value on this (the
  // engine's) thread at the policy-fixed slot: its private clipped window,
  // its recipe and, in portfolio mode, the world snapshot.  The candidates
  // then race freely — the scores are pure functions of those inputs, so
  // the winner is the same at every thread count.  A lone candidate has
  // nothing to be ranked against: it takes no snapshot and is not scored.
  const int K = config_.candidates;
  const bool scored = K > 1;
  core::WorldState snap;
  if (scored) {
    snap = world.snapshot();
    OLIVE_REQUIRE(!snap.empty(),
                  "portfolio re-planning requires an embedder with world "
                  "snapshot support (OnlineEmbedder::snapshot)");
  }

  const std::int64_t horizon = slot - from;
  Pending p;
  p.event.sequence = sequence;
  p.event.launch_slot = slot;
  p.event.install_slot = slot + config_.install_delay;
  p.event.candidates = K;
  p.candidates.reserve(static_cast<std::size_t>(K));
  for (int k = 0; k < K; ++k) {
    const CandidateRecipe recipe = candidate_recipe(k, config_, window);
    const std::int64_t kfrom = std::max<std::int64_t>(0, slot - recipe.window);
    workload::Trace kclipped = k > 0    ? clip_window(trace, base, kfrom, slot)
                               : scored ? clipped
                                        : std::move(clipped);
    core::AggregationConfig acfg = config_.aggregation;
    acfg.alpha = recipe.alpha;
    acfg.horizon = static_cast<int>(slot - kfrom);
    core::PlanVneConfig kplan = config_.plan;
    kplan.psi_scale = recipe.psi_scale;
    if (recipe.early_gap > 0) kplan.lp.early_term_gap = recipe.early_gap;
    // Capacity-aware pricing: the launch-slot snapshot rides in as the plan
    // solver's overlay (empty = nominal; PlanVneConfig::capacities).
    if (!capacities.empty()) kplan.capacities = capacities;
    // Candidate 0 keeps the launch's base stream; variations fork their own
    // so adding candidates never perturbs the baseline's bootstrap.
    const Rng krng =
        k == 0 ? rng
               : rng.fork(stable_hash("candidate"))
                     .fork(static_cast<std::uint64_t>(k));

    // `this` outlives the task (the destructor joins), and consecutive
    // launches never overlap (install_delay < period), so nothing but this
    // launch's candidates touches cache_/warm_ before collect() replaces
    // them: a lone candidate takes them over instead of copying.
    auto task = [this, scored, kclipped = std::move(kclipped), acfg, krng,
                 kplan = std::move(kplan),
                 scoring = scored ? clipped : workload::Trace{}, horizon,
                 kpsi = scored ? psi : std::vector<double>{}, snap,
                 &world]() mutable -> CandidateOutcome {
      const auto start = clock_.now();
      CandidateOutcome out;
      if (scored) {
        out.cache = cache_;  // private copies; collect() adopts the winner's
        out.warm = warm_;
      } else {
        out.cache = std::move(cache_);
        out.warm = std::move(warm_);
      }
      Rng rng_local = krng;
      const auto aggregates = core::aggregate_history(
          kclipped, static_cast<int>(apps_.size()), substrate_.num_nodes(),
          acfg, rng_local);
      out.plan = core::solve_plan_vne(substrate_, apps_, aggregates, kplan,
                                      &out.info, &out.cache, &out.warm);
      out.classes = out.plan.num_classes();
      if (scored) {
        // Score: clone the launch-slot world, install this candidate's
        // plan, replay the (shared) trailing admission window, tally
        // realized cost.
        auto clone = world.fork(snap);
        OLIVE_ASSERT(clone != nullptr);
        clone->install_plan(out.plan);
        out.score = replay_window(*clone, scoring, horizon, kpsi).total();
      }
      out.solve_seconds =
          std::chrono::duration<double>(clock_.now() - start).count();
      return out;
    };
    p.candidates.push_back(ThreadPool::global().submit(std::move(task)));
  }
  pending_ = std::move(p);
}

std::int64_t ReplanPolicy::pending_install_slot() const noexcept {
  return pending_ ? pending_->event.install_slot : -1;
}

ReplanPolicy::Result ReplanPolicy::collect() {
  OLIVE_ASSERT(pending_);
  // Wait for every candidate (deterministic — the install slot blocks on
  // the slowest solve either way), pick the lowest realized cost, ties to
  // the lowest index; a lone candidate wins unscored.  Adopt the winner's
  // cache and basis so the carried warm-start state matches the plan
  // actually installed.
  std::vector<CandidateOutcome> outcomes;
  outcomes.reserve(pending_->candidates.size());
  for (auto& f : pending_->candidates) outcomes.push_back(f.get());
  int winner = 0;
  for (int k = 1; k < static_cast<int>(outcomes.size()); ++k)
    if (outcomes[k].score < outcomes[winner].score) winner = k;

  Result out;
  out.event = std::move(pending_->event);
  out.event.winner = winner;
  for (const auto& o : outcomes) {
    if (outcomes.size() > 1) out.event.scores.push_back(o.score);
    out.event.solve_seconds = std::max(out.event.solve_seconds,
                                       o.solve_seconds);
  }
  out.event.classes = outcomes[winner].classes;
  out.event.info = outcomes[winner].info;
  out.plan = std::move(outcomes[winner].plan);
  cache_ = std::move(outcomes[winner].cache);
  warm_ = std::move(outcomes[winner].warm);
  pending_.reset();
  return out;
}

}  // namespace olive::engine
