// Micro-benchmarks of the core primitives (google-benchmark): the tree-DP
// pricing oracle, GREEDYEMBED's one-Dijkstra search (literal and bounded
// CollocatedSearch), per-request OLIVE decisions on Iris and FatTree8, and
// full PLAN-VNE solves per topology — the numbers behind the paper's "1000
// requests per second" scalability claim (§IV-B Runtime).
#include <benchmark/benchmark.h>

#include <functional>
#include <queue>
#include <utility>
#include <vector>

#include "core/embedder.hpp"
#include "core/olive.hpp"
#include "core/plan_solver.hpp"
#include "core/scenario.hpp"

namespace {

using namespace olive;

core::Scenario make_scenario(const std::string& topo) {
  core::ScenarioConfig cfg;
  cfg.topology = topo;
  cfg.utilization = 1.0;
  cfg.seed = 99;
  cfg.trace.horizon = 600;
  cfg.trace.plan_slots = 500;
  return core::build_scenario(cfg, 0);
}

void BM_TreeDpEmbedding(benchmark::State& state) {
  const auto sc = make_scenario("Iris");
  const auto costs = core::EffectiveCosts::plain(sc.substrate);
  const net::AllPairsShortestPaths apsp(sc.substrate, costs.link_weight);
  for (auto _ : state) {
    const auto emb = core::min_cost_tree_embedding(
        sc.substrate, sc.apps[0].topology, 10, costs, apsp);
    benchmark::DoNotOptimize(emb);
  }
}
BENCHMARK(BM_TreeDpEmbedding);

// GREEDYEMBED's inputs: Iris app 0 from ingress 10 at demand 5.0, against
// the empty substrate (arg 0) or the residuals left once OLIVE has admitted
// the first 2000 online requests (arg 1), where the bounded search stops
// short of a full Dijkstra.
struct GreedyInputs {
  core::Scenario sc = make_scenario("Iris");
  core::LoadTracker load{sc.substrate};

  explicit GreedyInputs(bool loaded) {
    if (!loaded) return;
    core::OliveEmbedder olive(sc.substrate, sc.apps, sc.plan);
    for (std::size_t i = 0; i < 2000 && i < sc.online.size(); ++i)
      olive.embed(sc.online[i]);
    load = olive.load();
  }
};

void BM_GreedyCollocatedEmbedding(benchmark::State& state) {
  const GreedyInputs in(state.range(0) != 0);
  for (auto _ : state) {
    const auto emb = core::greedy_collocated_embedding(
        in.sc.substrate, in.sc.apps[0].topology, 10, 5.0, in.load);
    benchmark::DoNotOptimize(emb);
  }
  state.SetLabel(state.range(0) ? "loaded" : "empty");
}
BENCHMARK(BM_GreedyCollocatedEmbedding)->Arg(0)->Arg(1);

void BM_CollocatedSearch(benchmark::State& state) {
  const GreedyInputs in(state.range(0) != 0);
  const core::CollocatedSearch search(in.sc.substrate, in.sc.apps);
  for (auto _ : state) {
    const auto emb = search.embed(0, 10, 5.0, in.load);
    benchmark::DoNotOptimize(emb);
  }
  state.SetLabel(state.range(0) ? "loaded" : "empty");
}
BENCHMARK(BM_CollocatedSearch)->Arg(0)->Arg(1);

// One OLIVE decision per iteration, after the departures due by its
// arrival, so the mix (planned, borrowed, preempting, greedy, rejected) is
// a streamed run's rather than a filling substrate's.  /0 Iris, /1 FatTree8.
void BM_OlivePerRequest(benchmark::State& state) {
  const char* names[] = {"Iris", "FatTree8"};
  const auto sc = make_scenario(names[state.range(0)]);
  core::OliveEmbedder algo(sc.substrate, sc.apps, sc.plan);
  using Pending = std::pair<int, std::size_t>;  // (end slot, request index)
  std::priority_queue<Pending, std::vector<Pending>, std::greater<>> ending;
  std::size_t i = 0;
  double preempted = 0;
  for (auto _ : state) {
    if (i >= sc.online.size()) {
      state.PauseTiming();
      algo.reset();
      ending = {};
      i = 0;
      state.ResumeTiming();
    }
    const auto& r = sc.online[i];
    for (; !ending.empty() && ending.top().first <= r.arrival; ending.pop())
      algo.depart(sc.online[ending.top().second]);
    const auto out = algo.embed(r);
    benchmark::DoNotOptimize(out.kind);
    if (out.accepted()) ending.emplace(r.arrival + r.duration, i);
    preempted += static_cast<double>(out.preempted_ids.size());
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["preempted"] =
      benchmark::Counter(preempted, benchmark::Counter::kAvgIterations);
  state.SetLabel(names[state.range(0)]);
}
BENCHMARK(BM_OlivePerRequest)->Arg(0)->Arg(1);

void BM_PlanVneSolve(benchmark::State& state) {
  const char* names[] = {"Iris", "CittaStudi", "5GEN", "100N150E"};
  const auto sc = make_scenario(names[state.range(0)]);
  for (auto _ : state) {
    const auto plan = core::solve_plan_vne(sc.substrate, sc.apps,
                                           sc.aggregates, sc.config.plan);
    benchmark::DoNotOptimize(plan.num_classes());
  }
  state.SetLabel(names[state.range(0)]);
}
BENCHMARK(BM_PlanVneSolve)->Arg(0)->Arg(1)->Arg(2)->Arg(3)
    ->Unit(benchmark::kMillisecond);

}  // namespace
