#include "probes.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace olive_bench {

using olive::core::EmbedOutcome;
using olive::workload::Request;

namespace {

std::size_t kind_index(olive::core::OutcomeKind k) {
  return static_cast<std::size_t>(k);
}

}  // namespace

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  const double rank = std::ceil(p * static_cast<double>(v.size()));
  const auto k = static_cast<std::size_t>(
      std::clamp(rank, 1.0, static_cast<double>(v.size())) - 1.0);
  std::nth_element(v.begin(), v.begin() + static_cast<long>(k), v.end());
  return v[k];
}

// ----------------------------------------------------------------- Tracer

void Tracer::span(const char* name, const char* cat, Clock::time_point begin,
                  Clock::time_point end, std::int64_t req,
                  const char* parent) {
  const double ts = us_between(origin_, begin);
  const double dur = us_between(begin, end);
  std::lock_guard<std::mutex> lock(mu_);
  const int tid = tids_.try_emplace(std::this_thread::get_id(),
                                    static_cast<int>(tids_.size()))
                      .first->second;
  spans_.push_back({name, cat, parent, ts, dur, req, tid});
}

std::size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

bool Tracer::write(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n", f);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                 "\"pid\": 1, \"tid\": %d, \"ts\": %.3f, \"dur\": %.3f",
                 s.name, s.cat, s.tid, s.ts_us, s.dur_us);
    if (s.req >= 0 || s.parent != nullptr) {
      std::fputs(", \"args\": {", f);
      if (s.req >= 0) std::fprintf(f, "\"req\": %lld", static_cast<long long>(s.req));
      if (s.parent != nullptr)
        std::fprintf(f, "%s\"parent\": \"%s\"", s.req >= 0 ? ", " : "",
                     s.parent);
      std::fputs("}", f);
    }
    std::fputs(i + 1 < spans_.size() ? "},\n" : "}\n", f);
  }
  std::fputs("]}\n", f);
  const bool ok = std::ferror(f) == 0;
  return std::fclose(f) == 0 && ok;
}

// ---------------------------------------------------------- embedder probes

void EmbedderCalls::merge(const EmbedderCalls& o) {
  for (std::size_t k = 0; k < embed_us.size(); ++k)
    embed_us[k].merge(o.embed_us[k]);
  depart_us.merge(o.depart_us);
}

ProbedEmbedder::ProbedEmbedder(olive::core::OnlineEmbedder& inner,
                               Tracer* tracer)
    : inner_(inner), tracer_(tracer) {}

EmbedOutcome ProbedEmbedder::embed(const Request& r) {
  const auto t0 = tracer_ ? Clock::now() : Clock::time_point{};
  EmbedOutcome out = inner_.embed(r);
  const auto t1 = Clock::now();
  if (decided_ && r.id >= 0 && static_cast<std::size_t>(r.id) < decided_->size())
    (*decided_)[static_cast<std::size_t>(r.id)] = t1;
  if (tracer_) {
    const double us = us_between(t0, t1);
    calls.embed_us[kind_index(out.kind)].add(us);
    call_seconds += us * 1e-6;
    if (Tracer::sampled(r.id))
      tracer_->span("embed", "olive", t0, t1, r.id, "batch");
    if (batch_left_ > 0 && --batch_left_ == 0 && batch_req_ >= 0)
      tracer_->span("batch", "olive", batch_start_, t1, batch_req_,
                    batch_parent_);
  }
  return out;
}

void ProbedEmbedder::hint_arrivals(const Request* batch, std::size_t count) {
  const auto t0 = Clock::now();
  if (drained_) {
    for (std::size_t i = 0; i < count; ++i) {
      const auto id = batch[i].id;
      if (id >= 0 && static_cast<std::size_t>(id) < drained_->size())
        (*drained_)[static_cast<std::size_t>(id)] = t0;
    }
  }
  inner_.hint_arrivals(batch, count);
  if (!tracer_) return;
  const auto t1 = Clock::now();
  hint_us.add(us_between(t0, t1));
  batch_size.add(static_cast<double>(count));
  call_seconds += s_between(t0, t1);
  // Batches are kept when they hold a sampled request, so every sampled
  // embed span finds its parent in the trace.
  batch_start_ = t0;
  batch_left_ = count;
  batch_req_ = -1;
  for (std::size_t i = 0; i < count && batch_req_ < 0; ++i)
    if (Tracer::sampled(batch[i].id)) batch_req_ = batch[i].id;
  if (batch_req_ >= 0)
    tracer_->span("hint_arrivals", "olive", t0, t1, batch_req_, "batch");
}

void ProbedEmbedder::depart(const Request& r) {
  if (!tracer_) return inner_.depart(r);
  const auto t0 = Clock::now();
  inner_.depart(r);
  const double us = us_between(t0, Clock::now());
  calls.depart_us.add(us);
  call_seconds += us * 1e-6;
}

bool ProbedEmbedder::install_plan(olive::core::Plan plan) {
  if (!tracer_) return inner_.install_plan(std::move(plan));
  const auto t0 = Clock::now();
  const bool ok = inner_.install_plan(std::move(plan));
  const auto t1 = Clock::now();
  install_ms.add(us_between(t0, t1) / 1000.0);
  call_seconds += s_between(t0, t1);
  tracer_->span("install_plan", "olive", t0, t1);
  return ok;
}

olive::core::WorldState ProbedEmbedder::snapshot() const {
  if (!tracer_) return inner_.snapshot();
  const auto t0 = Clock::now();
  olive::core::WorldState w = inner_.snapshot();
  const auto t1 = Clock::now();
  tracer_->span("snapshot", "olive", t0, t1);
  std::lock_guard<std::mutex> lock(mu);
  snapshot_ms.add(us_between(t0, t1) / 1000.0);
  return w;
}

std::unique_ptr<olive::core::OnlineEmbedder> ProbedEmbedder::fork(
    const olive::core::WorldState& w) const {
  if (!tracer_) return inner_.fork(w);
  const auto t0 = Clock::now();
  std::unique_ptr<OnlineEmbedder> clone = inner_.fork(w);
  const auto t1 = Clock::now();
  tracer_->span("fork", "olive", t0, t1);
  {
    std::lock_guard<std::mutex> lock(mu);
    fork_ms.add(us_between(t0, t1) / 1000.0);
  }
  if (!clone) return clone;
  return std::make_unique<ReplayEmbedder>(std::move(clone), replay, *tracer_);
}

ReplayEmbedder::ReplayEmbedder(std::unique_ptr<olive::core::OnlineEmbedder> inner,
                               ReplayTotals& totals, Tracer& tracer)
    : inner_(std::move(inner)),
      totals_(totals),
      tracer_(tracer),
      created_(Clock::now()) {}

ReplayEmbedder::~ReplayEmbedder() {
  tracer_.span("replay", "engine", created_, Clock::now());
  std::lock_guard<std::mutex> lock(totals_.mu);
  totals_.calls.merge(calls_);
}

EmbedOutcome ReplayEmbedder::embed(const Request& r) {
  const auto t0 = Clock::now();
  EmbedOutcome out = inner_->embed(r);
  calls_.embed_us[kind_index(out.kind)].add(us_between(t0, Clock::now()));
  return out;
}

void ReplayEmbedder::depart(const Request& r) {
  const auto t0 = Clock::now();
  inner_->depart(r);
  calls_.depart_us.add(us_between(t0, Clock::now()));
}

// ------------------------------------------------------------ other layers

int ProbedStream::next_slot(std::vector<Request>& out) {
  const auto t0 = Clock::now();
  const int t = inner_.next_slot(out);
  const double us = us_between(t0, Clock::now());
  next_slot_us.add(us);
  call_seconds += us * 1e-6;
  return t;
}

void EngineProbe::on_slot_begin(int) {
  const auto now = Clock::now();
  if (slot_open_) close_slot(now);
  check_residual();
  slot_start_ = now;
  slot_open_ = true;
  slot_decided_ = false;
}

void EngineProbe::close_slot(Clock::time_point now) {
  slot_us.add(us_between(slot_start_, now));
  if (tracer_) tracer_->span("slot", "engine", slot_start_, now, -1, "rep");
  slot_open_ = false;
}

void EngineProbe::on_outcome(const Request&, const EmbedOutcome& outcome,
                             int) {
  const auto now = Clock::now();
  if (slot_decided_) decide_us.add(us_between(last_decision_, now));
  last_decision_ = now;
  slot_decided_ = true;
  ++decided;
  (outcome.accepted() ? accepted : rejected) += 1;
}

void EngineProbe::on_replan(const olive::engine::ReplanEvent& event) {
  const auto now = Clock::now();
  replan_block_ms.add(us_between(slot_start_, now) / 1000.0);
  if (tracer_)
    tracer_->span("replan_install", "engine", slot_start_, now, -1, "slot");
  replan_solve_s.add(event.solve_seconds);
  replan_lp_iterations.add(static_cast<double>(event.info.simplex_iterations));
  replan_warm_hits += event.info.warm_start_hit ? 1 : 0;
}

void EngineProbe::finish() {
  if (slot_open_) close_slot(Clock::now());
  check_residual();
}

void EngineProbe::check_residual() {
  if (algo_.load().min_residual() < kResidualTolerance) ++overcommitted_slots;
}

void ProbedClock::sleep_until(time_point deadline) {
  const auto t0 = base_clock::now();
  std::this_thread::sleep_until(deadline);
  slept_seconds += s_between(t0, base_clock::now());
}

}  // namespace olive_bench
