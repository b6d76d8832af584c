#include "engine/slot_loop.hpp"

#include <algorithm>
#include <chrono>
#include <functional>
#include <utility>

#include "util/error.hpp"

namespace olive::engine {

namespace {

/// Per-unit-demand usage an allocation places on one element (0 if none).
double usage_on(const core::Usage& usage, int element) {
  for (const auto& [e, amount] : usage)
    if (e == element) return amount;
  return 0.0;
}

}  // namespace

std::vector<double> resolve_psi(const net::SubstrateNetwork& substrate,
                                const std::vector<net::Application>& apps,
                                const core::SimulatorConfig& sim) {
  if (!sim.psi_per_app.empty()) {
    OLIVE_REQUIRE(sim.psi_per_app.size() == apps.size(),
                  "psi_per_app size mismatch");
    return sim.psi_per_app;
  }
  std::vector<double> psi(apps.size());
  for (std::size_t a = 0; a < apps.size(); ++a)
    psi[a] = core::default_psi(substrate, apps[a].topology);
  return psi;
}

core::SimMetrics blank_metrics(const net::SubstrateNetwork& substrate,
                               const std::vector<net::Application>& apps,
                               const std::string& algorithm) {
  core::SimMetrics metrics;
  metrics.algorithm = algorithm;
  metrics.rejected_by_node_app.assign(substrate.num_nodes(),
                                      std::vector<double>(apps.size(), 0.0));
  metrics.requests_by_node.assign(substrate.num_nodes(), 0.0);
  return metrics;
}

void accumulate_solve(core::SimMetrics& metrics,
                      const core::PlanSolveInfo& info) {
  metrics.plan_solves += 1;
  metrics.plan_simplex_iterations += info.simplex_iterations;
  metrics.plan_rounds += info.rounds;
  metrics.plan_columns_generated += info.columns_generated;
  metrics.plan_objective_sum += info.objective;
  metrics.plan_warm_start_hits += info.warm_start_hit ? 1 : 0;
  metrics.plan_refactorizations += info.refactorizations;
  metrics.plan_eta_length_max =
      std::max(metrics.plan_eta_length_max, info.eta_length_max);
}

int run_horizon(int span, const core::SimulatorConfig& sim) {
  int n_slots = std::max(span, sim.measure_to);
  if (sim.drain_slots >= 0)
    n_slots = std::min(n_slots, sim.measure_to + sim.drain_slots);
  return n_slots;
}

void WindowTally::offered(const workload::Request& r, std::int64_t slot) {
  if (!in_window(slot)) return;
  ++metrics->offered;
  metrics->offered_demand += r.demand;
  metrics->requests_by_node[r.ingress] += 1;
}

void WindowTally::lost(const workload::Request& r, std::int64_t arrival_slot,
                       bool preempted) {
  if (!in_window(arrival_slot)) return;
  ++(preempted ? metrics->preempted : metrics->rejected);
  metrics->rejected_demand += r.demand;
  metrics->rejection_cost += (*psi)[r.app] * r.demand * r.duration;
  metrics->rejected_by_node_app[r.ingress][r.app] += 1;
}

CapacityView::CapacityView(const net::SubstrateNetwork& substrate,
                           const workload::FailureTrace& trace)
    : substrate_(substrate), trace_(trace) {
  if (!dynamic()) return;
  workload::validate_failure_trace(trace_, substrate_);
  down_.assign(substrate_.element_count(), 0);
  factor_.assign(substrate_.element_count(), 1.0);
  capacity_.resize(substrate_.element_count());
  for (int e = 0; e < substrate_.element_count(); ++e)
    capacity_[e] = substrate_.element_capacity(e);
}

std::optional<FailureRecord> CapacityView::next(std::int64_t t) {
  if (next_ >= trace_.size() || trace_[next_].slot != t) return std::nullopt;
  FailureRecord record;
  record.event = trace_[next_++];
  record.slot = static_cast<int>(t);
  const int e = record.event.element;
  record.capacity_before = capacity_[e];
  switch (record.event.kind) {
    case workload::FailureKind::NodeDown:
    case workload::FailureKind::LinkDown:
      down_[e] = 1;
      break;
    case workload::FailureKind::NodeUp:
    case workload::FailureKind::LinkUp:
      down_[e] = 0;
      break;
    case workload::FailureKind::Rescale:
      factor_[e] = record.event.factor;
      break;
  }
  capacity_[e] = down_[e] ? 0.0 : substrate_.element_capacity(e) * factor_[e];
  record.capacity_after = capacity_[e];
  return record;
}

SlotLoop::SlotLoop(const net::SubstrateNetwork& substrate,
                   const std::vector<net::Application>& apps,
                   EngineConfig config, core::OnlineEmbedder& algo,
                   serve::Clock& clock, std::vector<Observer*> observers,
                   serve::ServerStats* stats, std::size_t series_window)
    : config_(std::move(config)),
      algo_(algo),
      clock_(clock),
      observers_(std::move(observers)),
      stats_(stats),
      series_window_(series_window),
      psi_(resolve_psi(substrate, apps, config_.sim)),
      metrics_(blank_metrics(substrate, apps, algo.name())),
      tally_{&config_.sim, &psi_, &metrics_},
      replan_(substrate, apps, config_.replan, clock),
      capacity_(substrate, config_.failures.trace),
      migrator_(substrate, apps) {
  algo_.reset();
}

core::SimMetrics SlotLoop::run(workload::TraceStream& stream) {
  // Pull until the first arrival; its slot becomes slot 0.
  std::vector<workload::Request> slot_buf;
  int cur = stream.next_slot(slot_buf);
  while (cur >= 0 && slot_buf.empty()) cur = stream.next_slot(slot_buf);
  if (cur < 0) return std::move(metrics_);  // no requests at all
  base_ = cur;
  // The stream's declared end stands in for the last arrival; a
  // VectorTraceStream's default end is exactly the last arrival + 1.
  horizon_ = run_horizon(stream.end_slot() - base_, config_.sim);
  series_window_ = static_cast<std::size_t>(horizon_);

  for (std::int64_t t = 0; t < horizon_ && (cur >= 0 || !settled(t)); ++t) {
    begin_slot(t);
    if (cur >= 0 && cur - base_ == t) {
      admit(slot_buf.data(), slot_buf.size());
      cur = stream.next_slot(slot_buf);
    }
    end_slot();
  }
  return finish();
}

bool SlotLoop::settled(std::int64_t t) const {
  // Windows only move forward: once a launch at t clips nothing, so does
  // every later one.
  return t > last_departure_ && capacity_.done() &&
         replan_.pending_install_slot() < 0 &&
         (!replan_.enabled() || replan_.window_start(t) >= last_departure_);
}

double SlotLoop::seconds_since(serve::Clock::time_point start) const {
  return std::chrono::duration<double>(clock_.now() - start).count();
}

void SlotLoop::begin_slot(std::int64_t t) {
  t_ = t;
  for (Observer* o : observers_) o->on_slot_begin(static_cast<int>(t));

  // Re-plan swap.  The install slot is fixed by the policy, so the swap
  // happens at the same slot whether the async solve finished long ago or
  // collect() has to block for it — bit-identical at every thread count.
  // It precedes the slot's releases and arrivals: slot t is the first slot
  // served by the new plan.
  if (replan_.pending_install_slot() == t) {
    const auto start = clock_.now();
    ReplanPolicy::Result res = replan_.collect();
    res.event.installed = algo_.install_plan(std::move(res.plan));
    const double stall = seconds_since(start);
    metrics_.algo_seconds += stall;
    if (stats_) {
      stats_->swap_stall_seconds += stall;
      stats_->plan_swaps += res.event.installed ? 1 : 0;
    }
    if (res.event.installed) {
      metrics_.replans += 1;
      metrics_.replan_seconds += res.event.solve_seconds;
      accumulate_solve(metrics_, res.event.info);
    } else {
      replan_.disable();  // the embedder has no plan to swap
      log_ = {};
    }
    for (Observer* o : observers_) o->on_replan(res.event);
  }

  while (std::optional<FailureRecord> record = capacity_.next(t))
    apply_failure(*record);

  // Launch only while the install slot still falls inside the run.
  if (replan_.wants_launch(t) && t + config_.replan.install_delay < horizon_)
    launch_replan();

  // Departures (a lease no longer active was preempted or dropped).
  const auto start = clock_.now();
  for (const workload::RequestId id : calendar_[t].departing) {
    const auto it = active_.find(id);
    if (it == active_.end()) continue;
    algo_.depart(it->second.req);
    active_cost_ -= it->second.req.demand * it->second.unit_cost;
    active_.erase(it);
    if (stats_) ++stats_->departed;
  }
  metrics_.algo_seconds += seconds_since(start);
}

void SlotLoop::launch_replan() {
  const auto start = clock_.now();
  // Capacity-aware re-planning prices the capacity view as of this slot
  // (its failure events are already applied).
  std::vector<double> capacities;
  if (capacity_.dynamic() && config_.replan.capacity_aware)
    capacities = algo_.load().capacities();
  trim_admission_log(log_, base_, replan_.window_start(t_));
  // Portfolio mode also snapshots the embedder here, at the policy-fixed
  // slot, and scores candidates with the ψ the metrics charge.
  replan_.launch(log_, base_, t_, capacities, algo_, psi_);
  metrics_.algo_seconds += seconds_since(start);
}

void SlotLoop::apply_failure(FailureRecord& record) {
  const auto start = clock_.now();
  const workload::FailureEvent& ev = record.event;
  OLIVE_REQUIRE(
      algo_.set_element_capacity(ev.element, record.capacity_after),
      "embedder does not support substrate dynamics (set_element_capacity)");
  metrics_.failures += 1;

  // Embeddings broken by the event: everything touching a down element;
  // for a rescale, the newest allocations that keep the element
  // over-committed.  Repairs run in id order.
  const auto usage = [&](const Lease& lease) {
    return usage_on(lease.placement->usage, ev.element);
  };
  std::vector<workload::RequestId> broken;
  if (ev.kind == workload::FailureKind::NodeDown ||
      ev.kind == workload::FailureKind::LinkDown) {
    for (const auto& [id, lease] : active_)
      if (usage(lease) > 0) broken.push_back(id);
  } else if (ev.kind == workload::FailureKind::Rescale &&
             algo_.load().residual(ev.element) < -1e-6) {
    std::vector<workload::RequestId> touching;
    for (const auto& [id, lease] : active_)
      if (usage(lease) > 0) touching.push_back(id);
    // Newest allocations break first until the element is feasible again
    // (older allocations keep their service).
    std::sort(touching.begin(), touching.end(), std::greater<>());
    double residual = algo_.load().residual(ev.element);
    for (const workload::RequestId id : touching) {
      if (residual >= -1e-6) break;
      broken.push_back(id);
      const Lease& lease = active_.at(id);
      residual += usage(lease) * lease.req.demand;
    }
  }
  std::sort(broken.begin(), broken.end());

  // Evict every broken allocation first, then repair — each repair prices
  // against the fully freed residual.
  for (const workload::RequestId id : broken) {
    const Lease& lease = active_.at(id);
    algo_.depart(lease.req);
    active_cost_ -= lease.req.demand * lease.unit_cost;
  }
  record.affected = static_cast<int>(broken.size());
  metrics_.failure_hit += record.affected;
  const core::RepairPolicy policy = config_.failures.repair;

  // Adopts a replacement embedding and does the bookkeeping; false leaves
  // the request to the fallback / drop path.
  const auto try_adopt = [&](Lease& lease, const net::Embedding& moved,
                             core::RepairStage stage) {
    auto out = algo_.adopt(lease.req, moved);
    if (!out) return false;
    // adopt must fit the residuals as-is: the loop has no accounting for
    // victims it did not see.
    OLIVE_ASSERT(out->preempted_ids.empty());
    lease.unit_cost = out->unit_cost;
    lease.placement = std::move(out->placement);
    active_cost_ += lease.req.demand * lease.unit_cost;
    metrics_.migrations += 1;
    record.migrated += 1;
    switch (stage) {
      case core::RepairStage::Patched:
        ++record.patched;
        ++metrics_.repairs_patched;
        break;
      case core::RepairStage::Reembedded:
        ++record.reembedded;
        ++metrics_.repairs_reembedded;
        break;
      case core::RepairStage::Batched:
        ++record.batched;
        ++metrics_.repairs_batched;
        break;
      case core::RepairStage::None:
        break;
    }
    return true;
  };

  // Batched policy: one joint min-cost re-assignment over the freed
  // residuals (Migrator::plan_batch); requests the batch cannot seat fall
  // through to the staged per-request ladder.
  std::vector<std::optional<net::Embedding>> batch;
  if (policy == core::RepairPolicy::Batched && broken.size() >= 2) {
    std::vector<const workload::Request*> reqs;
    reqs.reserve(broken.size());
    for (const workload::RequestId id : broken)
      reqs.push_back(&active_.at(id).req);
    batch = migrator_.plan_batch(reqs, algo_.load());
  }

  for (std::size_t bi = 0; bi < broken.size(); ++bi) {
    const auto it = active_.find(broken[bi]);
    Lease& lease = it->second;
    bool repaired = false;
    if (policy != core::RepairPolicy::Drop) {
      if (bi < batch.size() && batch[bi].has_value())
        repaired = try_adopt(lease, *batch[bi], core::RepairStage::Batched);
      if (!repaired) {
        core::RepairStage stage = core::RepairStage::None;
        if (auto moved = migrator_.repair(
                lease.req, lease.placement->embedding, algo_.load(), &stage))
          repaired = try_adopt(lease, *moved, stage);
      }
    }
    if (repaired) continue;
    // SLA violation: the embedding is gone for good (the request is never
    // reconsidered), accounted like a preemption.
    metrics_.sla_violations += 1;
    record.dropped += 1;
    cut(it);
  }
  replan_.note_failure_impact(record.affected);
  metrics_.algo_seconds += seconds_since(start);
  for (Observer* o : observers_) o->on_failure(record);
}

void SlotLoop::cut(Leases::iterator it) {
  const Lease& lease = it->second;
  const double d = lease.req.demand;
  calendar_[t_].allocated -= d;  // stops consuming now...
  calendar_[lease.slot + lease.req.duration].allocated += d;  // ...not later
  tally_.lost(lease.req, lease.slot, /*preempted=*/true);
  if (config_.sim.record_requests)
    metrics_.records[lease.record].preempted_at = static_cast<int>(t_);
  active_.erase(it);
}

void SlotLoop::admit(const workload::Request* batch, std::size_t n,
                     const serve::Clock::time_point* enqueued) {
  if (n == 0) return;
  const auto hint_start = clock_.now();
  algo_.hint_arrivals(batch, n);
  metrics_.algo_seconds += seconds_since(hint_start);

  const std::int64_t t = t_;
  SlotDelta& now = calendar_[t];
  for (std::size_t i = 0; i < n; ++i) {
    const workload::Request& r = batch[i];
    SlotDelta& end = calendar_[t + r.duration];  // `now` stays valid
    last_departure_ = std::max(last_departure_, t + r.duration);
    now.offered += r.demand;
    end.offered -= r.demand;
    tally_.offered(r, t);
    if (replan_.enabled()) log_.push_back(r);

    const auto start = clock_.now();
    core::EmbedOutcome outcome = algo_.embed(r);
    const auto decided = clock_.now();
    metrics_.algo_seconds +=
        std::chrono::duration<double>(decided - start).count();
    if (stats_) {
      ++stats_->decided;
      ++(outcome.accepted() ? stats_->accepted : stats_->rejected);
      const auto wait = enqueued ? decided - enqueued[i]
                                 : serve::Clock::duration::zero();
      stats_->admission_latency.record(
          wait.count() > 0
              ? static_cast<std::uint64_t>(
                    std::chrono::duration_cast<std::chrono::nanoseconds>(wait)
                        .count())
              : 0);
    }
    const std::size_t record = metrics_.records.size();
    if (config_.sim.record_requests)
      metrics_.records.push_back({r.id, static_cast<int>(t), r.duration,
                                  r.app, r.ingress, r.demand, outcome.kind,
                                  -1});
    for (Observer* o : observers_)
      o->on_outcome(r, outcome, static_cast<int>(t));

    if (!outcome.accepted()) {
      tally_.lost(r, t, /*preempted=*/false);
      continue;
    }
    // The observers above already saw the outcome; under substrate
    // dynamics the repair path shares its placement from here.
    active_.emplace(r.id, Lease{r, t, outcome.unit_cost, record,
                                capacity_.dynamic()
                                    ? std::move(outcome.placement)
                                    : nullptr});
    active_cost_ += r.demand * outcome.unit_cost;
    now.allocated += r.demand;
    end.allocated -= r.demand;
    end.departing.push_back(r.id);

    for (const workload::RequestId victim : outcome.preempted_ids) {
      const auto it = active_.find(victim);
      OLIVE_ASSERT(it != active_.end());
      active_cost_ -= it->second.req.demand * it->second.unit_cost;
      if (stats_) ++stats_->preempted;
      cut(it);
    }
  }
}

void SlotLoop::end_slot() {
  if (tally_.in_window(t_)) metrics_.resource_cost += active_cost_;
  if (stats_) ++stats_->slots;
  // Every change to slot t's deltas happens by the end of slot t, so this
  // running sum is the prefix sum of the per-slot deltas.
  const SlotDelta& now = calendar_[t_];
  offered_now_ += now.offered;
  allocated_now_ += now.allocated;
  calendar_.erase(t_);
  if (series_window_ == 0) return;
  offered_ring_.push_back(offered_now_);
  allocated_ring_.push_back(allocated_now_);
  if (offered_ring_.size() > series_window_) {
    offered_ring_.pop_front();
    allocated_ring_.pop_front();
  }
}

core::SimMetrics SlotLoop::finish() {
  metrics_.accepted = metrics_.offered - metrics_.rejected - metrics_.preempted;
  metrics_.offered_series.assign(offered_ring_.begin(), offered_ring_.end());
  metrics_.allocated_series.assign(allocated_ring_.begin(),
                                   allocated_ring_.end());
  metrics_.fastpath = algo_.fastpath_stats();
  return std::move(metrics_);
}

}  // namespace olive::engine
