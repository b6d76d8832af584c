#include "engine/engine.hpp"

#include <algorithm>
#include <chrono>
#include <unordered_map>

#include "core/load.hpp"
#include "engine/slot_loop.hpp"
#include "serve/clock.hpp"
#include "util/error.hpp"

namespace olive::engine {

namespace {

using core::SimMetrics;
using core::SimulatorConfig;

}  // namespace

Engine::Engine(const net::SubstrateNetwork& substrate,
               const std::vector<net::Application>& apps, EngineConfig config)
    : substrate_(substrate), apps_(apps), config_(std::move(config)) {}

void Engine::add_observer(Observer* observer) {
  OLIVE_REQUIRE(observer != nullptr, "observer must not be null");
  observers_.push_back(observer);
}

SimMetrics Engine::run(core::OnlineEmbedder& algo,
                       const workload::Trace& trace) {
  workload::VectorTraceStream stream(trace);
  return run_stream(algo, stream);
}

SimMetrics Engine::run_stream(core::OnlineEmbedder& algo,
                              workload::TraceStream& stream) {
  serve::SteadyClock clock;
  return SlotLoop(substrate_, apps_, config_, algo, clock, observers_)
      .run(stream);
}

SimMetrics Engine::run_slotoff(const workload::Trace& trace,
                               const core::PlanVneConfig& plan_config,
                               bool warm_start) {
  const SimulatorConfig& sim = config_.sim;
  SimMetrics metrics = blank_metrics(substrate_, apps_, "SlotOff");
  if (trace.empty()) return metrics;

  const std::vector<double> psi = resolve_psi(substrate_, apps_, sim);
  WindowTally tally{&sim, &psi, &metrics};

  const int base = trace.front().arrival;
  const int n_slots = run_horizon(trace.back().arrival - base + 1, sim);
  metrics.offered_series.assign(n_slots, 0.0);
  metrics.allocated_series.assign(n_slots, 0.0);
  // Offered demand (every request over its lifetime, had it been accepted):
  // per-slot deltas, summed as the slots pass.
  std::vector<double> offered_delta(static_cast<std::size_t>(n_slots) + 1);
  double offered_now = 0;

  // (app, ingress) classes maintained incrementally: membership changes only
  // on arrival, departure, and drop, instead of re-hashing every active
  // request into fresh class_of/by_class structures each slot.  Members stay
  // in arrival order, so per-class demand sums — and, after ordering the
  // solver input by each class's oldest alive member below — the whole
  // per-slot OFF-VNE instance match the former per-slot rebuild exactly.
  struct SlotClass {
    int app = -1;
    net::NodeId ingress = -1;
    std::vector<const workload::Request*> members;
  };
  std::unordered_map<long long, int> class_of;  // key -> index into classes
  std::vector<SlotClass> classes;
  const auto drop_from_class = [&](const workload::Request* r) {
    auto& members =
        classes[class_of.at(core::class_key(r->app, r->ingress))].members;
    return static_cast<long>(std::erase(members, r));
  };
  // Departure calendar; entries for already-dropped requests are no-ops.
  std::vector<std::vector<const workload::Request*>> departures(
      static_cast<std::size_t>(n_slots) + 1);
  long n_active = 0;

  core::PlanColumnCache cache;
  // Basis continuity: each slot's master starts from the previous slot's
  // optimal basis (surviving classes/columns matched by key inside
  // solve_plan_vne; arrivals and departures fall back per row — and the
  // warm-start repair absorbs capacity-row rhs changes under failures).
  core::PlanWarmStart warm;
  core::PlanWarmStart* warm_ptr = warm_start ? &warm : nullptr;
  std::size_t next = 0;

  // Substrate dynamics: SLOTOFF has no per-request repair to do — every
  // slot re-seats all active demand anyway — so failure events just update
  // the capacity view each per-slot master prices (PlanVneConfig overlay)
  // and the rounding pass seats against.  Requests on damaged elements are
  // re-seated elsewhere or dropped by the very next solve.
  CapacityView capacity(substrate_, config_.failures.trace);
  const bool dynamics = capacity.dynamic();
  core::PlanVneConfig overlay_config = plan_config;  // dynamics only

  for (int t = 0; t < n_slots; ++t) {
    for (Observer* o : observers_) o->on_slot_begin(t);

    // Failure events for slot t: update the capacity view before this
    // slot's solve (same slot-boundary position as the SlotLoop).
    while (std::optional<FailureRecord> record = capacity.next(t)) {
      metrics.failures += 1;
      for (Observer* o : observers_) o->on_failure(*record);
    }

    // Departures, then this slot's arrivals.
    for (const workload::Request* r : departures[t])
      n_active -= drop_from_class(r);
    while (next < trace.size() && trace[next].arrival - base == t) {
      const workload::Request& r = trace[next++];
      tally.offered(r, t);
      auto [it, inserted] = class_of.try_emplace(
          core::class_key(r.app, r.ingress), static_cast<int>(classes.size()));
      if (inserted) classes.push_back({r.app, r.ingress, {}});
      classes[it->second].members.push_back(&r);
      const int dep = r.departure() - base;
      offered_delta[t] += r.demand;
      offered_delta[std::min(dep, n_slots)] -= r.demand;
      if (dep <= n_slots) departures[dep].push_back(&r);
      ++n_active;
    }
    offered_now += offered_delta[t];
    metrics.offered_series[t] = offered_now;
    if (n_active == 0) continue;

    const auto start = std::chrono::steady_clock::now();

    // Aggregate the slot's actual demand per class and solve OFF-VNE.
    // Classes are ordered by their oldest alive member (trace position),
    // which is the first-encounter order the per-slot rebuild produced.
    std::vector<const SlotClass*> alive;
    for (const auto& sc : classes)
      if (!sc.members.empty()) alive.push_back(&sc);
    std::sort(alive.begin(), alive.end(),
              [](const SlotClass* a, const SlotClass* b) {
                return a->members.front() < b->members.front();
              });
    std::vector<core::AggregateRequest> aggs;
    std::vector<const std::vector<const workload::Request*>*> members_of;
    for (const SlotClass* sc : alive) {
      core::AggregateRequest agg;
      agg.app = sc->app;
      agg.ingress = sc->ingress;
      for (const workload::Request* r : sc->members) {
        agg.demand += r->demand;
        agg.request_count += 1;
      }
      aggs.push_back(agg);
      members_of.push_back(&sc->members);
    }
    core::PlanSolveInfo solve_info;
    if (dynamics) overlay_config.capacities = capacity.capacities();
    const core::Plan plan = core::solve_plan_vne(
        substrate_, apps_, aggs, dynamics ? overlay_config : plan_config,
        &solve_info, &cache, warm_ptr);
    accumulate_solve(metrics, solve_info);

    // Round the splittable plan onto individual requests: largest first,
    // first fitting column (capacity f_k·D_c and substrate feasibility —
    // against the *current* capacities under dynamics).
    core::LoadTracker load(substrate_);
    if (dynamics)
      for (int e = 0; e < substrate_.element_count(); ++e)
        load.set_capacity(e, capacity.capacities()[e]);
    double slot_cost = 0, slot_alloc = 0;
    std::vector<const workload::Request*> dropped;
    for (int c = 0; c < plan.num_classes(); ++c) {
      auto reqs = *members_of[c];
      std::sort(reqs.begin(), reqs.end(),
                [](const auto* a, const auto* b) {
                  return a->demand > b->demand;
                });
      std::vector<double> col_cap;
      for (const auto& col : plan.cls(c).columns)
        col_cap.push_back(col.planned_demand);
      for (const workload::Request* r : reqs) {
        bool placed = false;
        for (std::size_t k = 0; k < col_cap.size(); ++k) {
          const auto& col = plan.cls(c).columns[k];
          if (col_cap[k] < r->demand - 1e-9) continue;
          if (!load.fits(col.usage, r->demand)) continue;
          load.apply(col.usage, r->demand);
          col_cap[k] -= r->demand;
          slot_cost += r->demand * col.unit_cost;
          slot_alloc += r->demand;
          placed = true;
          break;
        }
        if (!placed) dropped.push_back(r);
      }
    }

    // Wall time for the algo_seconds diagnostic only.
    metrics.algo_seconds += std::chrono::duration<double>(
                                std::chrono::steady_clock::now() - start)
                                .count();

    // Dropped requests are rejected for good (never reconsidered): a new
    // arrival counts as rejected, an ongoing one as preempted.
    for (const workload::Request* r : dropped) {
      const int arr = r->arrival - base;
      tally.lost(*r, arr, /*preempted=*/arr != t);
      n_active -= drop_from_class(r);
    }

    metrics.allocated_series[t] = slot_alloc;
    if (tally.in_window(t)) metrics.resource_cost += slot_cost;
  }

  metrics.accepted = metrics.offered - metrics.rejected - metrics.preempted;
  return metrics;
}

DryRunReport Engine::dry_run_plan(const core::OnlineEmbedder& algo,
                                  core::Plan plan,
                                  const workload::Trace& window) const {
  DryRunReport report;
  const core::WorldState snap = algo.snapshot();
  if (snap.empty()) return report;
  const std::unique_ptr<core::OnlineEmbedder> clone = algo.fork(snap);
  if (clone == nullptr) return report;
  report.supported = true;
  report.installed = clone->install_plan(std::move(plan));
  std::int64_t horizon = 0;
  for (const auto& r : window)
    horizon = std::max(horizon,
                       static_cast<std::int64_t>(r.arrival) + r.duration);
  const std::vector<double> psi = resolve_psi(substrate_, apps_, config_.sim);
  report.score = replay_window(*clone, window, horizon, psi);
  return report;
}

}  // namespace olive::engine
