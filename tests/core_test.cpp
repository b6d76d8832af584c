// Unit tests for core primitives: LoadTracker (Eq. 16), the tree-DP
// min-cost embedder (vs exhaustive enumeration), GREEDYEMBED, and the
// time-aggregation step (Eqs. 5–6).
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <optional>
#include <vector>

#include "core/aggregation.hpp"
#include "core/embedder.hpp"
#include "core/load.hpp"
#include "net/paths.hpp"
#include "util/error.hpp"

namespace olive::core {
namespace {

net::SubstrateNetwork tiny_network() {
  // 0 -- 1 -- 2 with a shortcut 0 -- 2 (expensive), varied node costs.
  net::SubstrateNetwork s;
  s.add_node({"a", net::Tier::Edge, 1000, 5.0, false});
  s.add_node({"b", net::Tier::Edge, 1000, 1.0, false});
  s.add_node({"c", net::Tier::Edge, 1000, 2.0, false});
  s.add_link(0, 1, 500, 1.0);
  s.add_link(1, 2, 500, 1.0);
  s.add_link(0, 2, 500, 5.0);
  return s;
}

TEST(LoadTracker, ApplyReleaseRoundTrip) {
  const auto s = tiny_network();
  LoadTracker load(s);
  const Usage usage{{0, 10.0}, {3, 2.0}};  // node 0, link 0
  EXPECT_TRUE(load.fits(usage, 3.0));
  load.apply(usage, 3.0);
  EXPECT_DOUBLE_EQ(load.residual(0), 1000 - 30);
  EXPECT_DOUBLE_EQ(load.residual(3), 500 - 6);
  load.release(usage, 3.0);
  EXPECT_DOUBLE_EQ(load.residual(0), 1000);
  EXPECT_DOUBLE_EQ(load.residual(3), 500);
}

TEST(LoadTracker, FitsRespectsTightCapacity) {
  const auto s = tiny_network();
  LoadTracker load(s);
  const Usage usage{{0, 100.0}};
  EXPECT_TRUE(load.fits(usage, 10.0));    // exactly 1000
  EXPECT_FALSE(load.fits(usage, 10.01));  // just over
  load.apply(usage, 10.0);
  EXPECT_NEAR(load.residual(0), 0.0, 1e-9);
  EXPECT_FALSE(load.fits(usage, 0.1));
}

TEST(LoadTracker, ResetRestoresCapacities) {
  const auto s = tiny_network();
  LoadTracker load(s);
  load.apply({{1, 7.0}}, 2.0);
  load.reset();
  EXPECT_DOUBLE_EQ(load.residual(1), 1000);
  EXPECT_DOUBLE_EQ(load.min_residual(), 500);
}

// Exhaustive reference for the DP: enumerate all placements of the VNFs.
double brute_force_min_cost(const net::SubstrateNetwork& s,
                            const net::VirtualNetwork& vn, net::NodeId ingress,
                            const EffectiveCosts& costs) {
  const net::AllPairsShortestPaths apsp(s, costs.link_weight);
  const int k = vn.num_nodes() - 1;  // VNFs to place
  double best = std::numeric_limits<double>::infinity();
  std::vector<int> placement(vn.num_nodes(), -1);
  placement[0] = ingress;
  const long total = static_cast<long>(std::pow(s.num_nodes(), k));
  for (long code = 0; code < total; ++code) {
    long c = code;
    bool ok = true;
    for (int i = 1; i <= k; ++i) {
      placement[i] = static_cast<int>(c % s.num_nodes());
      c /= s.num_nodes();
      if (!net::placement_allowed(s, vn, i, placement[i])) ok = false;
    }
    if (!ok) continue;
    double cost = 0;
    for (int i = 1; i <= k; ++i)
      cost += vn.vnode(i).size * costs.node_cost[placement[i]];
    for (int l = 0; l < vn.num_links(); ++l) {
      const double d =
          apsp.dist(placement[vn.vlink(l).parent], placement[vn.vlink(l).child]);
      if (d == std::numeric_limits<double>::infinity()) {
        cost = std::numeric_limits<double>::infinity();
        break;
      }
      cost += vn.vlink(l).size * d;
    }
    best = std::min(best, cost);
  }
  return best;
}

double embedding_cost(const net::SubstrateNetwork& /*s*/,
                      const net::VirtualNetwork& vn, const net::Embedding& e,
                      const EffectiveCosts& costs) {
  double cost = 0;
  for (int i = 1; i < vn.num_nodes(); ++i)
    cost += vn.vnode(i).size * costs.node_cost[e.node_map[i]];
  for (int l = 0; l < vn.num_links(); ++l)
    for (const auto sl : e.link_paths[l])
      cost += vn.vlink(l).size * costs.link_weight[sl];
  return cost;
}

TEST(TreeDp, MatchesBruteForceOnChain) {
  const auto s = tiny_network();
  const auto vn = net::VirtualNetwork::chain({10, 20}, {3, 5});
  const auto costs = EffectiveCosts::plain(s);
  const net::AllPairsShortestPaths apsp(s, costs.link_weight);
  const auto emb = min_cost_tree_embedding(s, vn, 0, costs, apsp);
  ASSERT_TRUE(emb.has_value());
  ASSERT_TRUE(net::is_valid_embedding(s, vn, *emb));
  EXPECT_NEAR(embedding_cost(s, vn, *emb, costs),
              brute_force_min_cost(s, vn, 0, costs), 1e-9);
}

TEST(TreeDp, MatchesBruteForceOnTree) {
  const auto s = tiny_network();
  const net::VirtualNetwork vn({0, 1, 1}, {10, 5, 8}, {2, 4, 1});
  const auto costs = EffectiveCosts::plain(s);
  const net::AllPairsShortestPaths apsp(s, costs.link_weight);
  const auto emb = min_cost_tree_embedding(s, vn, 2, costs, apsp);
  ASSERT_TRUE(emb.has_value());
  ASSERT_TRUE(net::is_valid_embedding(s, vn, *emb));
  EXPECT_NEAR(embedding_cost(s, vn, *emb, costs),
              brute_force_min_cost(s, vn, 2, costs), 1e-9);
}

TEST(TreeDp, RespectsGpuPlacement) {
  auto s = tiny_network();
  s.node(2).gpu = true;
  auto vn = net::VirtualNetwork::chain({10, 20}, {3, 5});
  vn.vnode(2).gpu = true;  // second VNF needs the GPU node
  const auto costs = EffectiveCosts::plain(s);
  const net::AllPairsShortestPaths apsp(s, costs.link_weight);
  const auto emb = min_cost_tree_embedding(s, vn, 0, costs, apsp);
  ASSERT_TRUE(emb.has_value());
  EXPECT_EQ(emb->node_map[2], 2);      // forced onto the GPU node
  EXPECT_NE(emb->node_map[1], 2);      // non-GPU VNF barred from it
  EXPECT_NEAR(embedding_cost(s, vn, *emb, costs),
              brute_force_min_cost(s, vn, 0, costs), 1e-9);
}

TEST(TreeDp, ReturnsNulloptWhenNoPlacementExists) {
  const auto s = tiny_network();  // no GPU nodes
  auto vn = net::VirtualNetwork::chain({10}, {3});
  vn.vnode(1).gpu = true;
  const auto costs = EffectiveCosts::plain(s);
  const net::AllPairsShortestPaths apsp(s, costs.link_weight);
  EXPECT_FALSE(min_cost_tree_embedding(s, vn, 0, costs, apsp).has_value());
}

TEST(TreeDp, DualAdjustedCostsSteerAwayFromExpensiveElements) {
  const auto s = tiny_network();
  const auto vn = net::VirtualNetwork::chain({10}, {3});
  EffectiveCosts costs = EffectiveCosts::plain(s);
  // Make node 1 (cheapest) artificially expensive: the DP must now pick
  // node 2 as host (cost 2) over node 1.
  costs.node_cost[1] = 100.0;
  const net::AllPairsShortestPaths apsp(s, costs.link_weight);
  const auto emb = min_cost_tree_embedding(s, vn, 0, costs, apsp);
  ASSERT_TRUE(emb.has_value());
  EXPECT_NE(emb->node_map[1], 1);
}

// GREEDYEMBED through the literal function and through CollocatedSearch:
// the two must agree byte for byte.  Returns the literal's answer.
std::optional<net::Embedding> greedy_both(const net::SubstrateNetwork& s,
                                          const net::VirtualNetwork& vn,
                                          net::NodeId ingress, double demand,
                                          const LoadTracker& load) {
  const auto literal = greedy_collocated_embedding(s, vn, ingress, demand, load);
  const CollocatedSearch search(s, {net::Application{"app", vn}});
  const auto searched = search.embed(0, ingress, demand, load);
  EXPECT_EQ(literal.has_value(), searched.has_value());
  if (literal && searched) {
    EXPECT_EQ(literal->node_map, searched->node_map);
    EXPECT_EQ(literal->link_paths, searched->link_paths);
  }
  return literal;
}

TEST(GreedyEmbed, PicksCheapestFeasibleHost) {
  const auto s = tiny_network();
  const auto vn = net::VirtualNetwork::chain({10, 10}, {2, 2});
  LoadTracker load(s);
  const auto emb = greedy_both(s, vn, 0, 1.0, load);
  ASSERT_TRUE(emb.has_value());
  ASSERT_TRUE(net::is_valid_embedding(s, vn, *emb));
  // All VNFs on one host; node 1 has the lowest cost (1.0/CU): 20*1 + path 2.
  EXPECT_EQ(emb->node_map[1], 1);
  EXPECT_EQ(emb->node_map[2], 1);
  EXPECT_EQ(emb->node_map[0], 0);
}

TEST(GreedyEmbed, AvoidsSaturatedNodes) {
  const auto s = tiny_network();
  const auto vn = net::VirtualNetwork::chain({10, 10}, {2, 2});
  LoadTracker load(s);
  // Saturate node 1: the greedy must pick the next-cheapest host.
  load.apply({{s.node_element(1), 1.0}}, 995.0);
  const auto emb = greedy_both(s, vn, 0, 1.0, load);
  ASSERT_TRUE(emb.has_value());
  EXPECT_NE(emb->node_map[1], 1);
}

TEST(GreedyEmbed, AvoidsSaturatedLinks) {
  const auto s = tiny_network();
  const auto vn = net::VirtualNetwork::chain({10}, {100});
  LoadTracker load(s);
  // Saturate link 0-1; the path to node 1 must go 0-2-1 or host elsewhere.
  load.apply({{s.link_element(0), 1.0}}, 450.0);
  const auto emb = greedy_both(s, vn, 0, 1.0, load);
  ASSERT_TRUE(emb.has_value());
  ASSERT_TRUE(net::is_valid_embedding(s, vn, *emb));
  for (const auto& path : emb->link_paths)
    for (const auto l : path) EXPECT_NE(l, 0);

  // The link test keeps the literal's 1e-9 tolerance: with the ingress
  // unable to host, link 0-1 carries the path to host 1 when it is 0.5e-9
  // short of the request and is avoided when it is 2e-9 short.
  for (const auto& [shortfall, usable] :
       {std::pair{2e-9, false}, std::pair{0.5e-9, true}}) {
    LoadTracker edge(s);
    edge.set_capacity(s.node_element(0), 0);
    edge.set_capacity(s.link_element(0), 100.0 - shortfall);
    const auto e = greedy_both(s, vn, 0, 1.0, edge);
    ASSERT_TRUE(e.has_value());
    EXPECT_EQ(e->link_paths[0] == std::vector<net::LinkId>{0}, usable)
        << shortfall;
  }
}

TEST(GreedyEmbed, FailsWhenNothingFits) {
  const auto s = tiny_network();
  const auto vn = net::VirtualNetwork::chain({2000}, {1});  // exceeds any node
  LoadTracker load(s);
  EXPECT_FALSE(greedy_both(s, vn, 0, 1.0, load).has_value());
}

TEST(GreedyEmbed, GpuMixCannotCollocate) {
  auto s = tiny_network();
  s.node(1).gpu = true;
  auto vn = net::VirtualNetwork::chain({10, 10}, {1, 1});
  vn.vnode(1).gpu = true;  // one GPU VNF + one plain VNF
  LoadTracker load(s);
  // No single node can host both — the reason QUICKG sits out Fig. 10.
  EXPECT_FALSE(greedy_both(s, vn, 0, 1.0, load).has_value());
}

TEST(GreedyEmbed, EqualCostTieGoesToTheLowerIdHostThatSettlesLater) {
  // Ingress 0 cannot host; 0 -- 2 -- 1 with unit link costs.  With node and
  // link size 1, host 2 (1 hop, cost 3) and host 1 (2 hops, cost 2) both
  // cost 4.  The bounded search settles host 2 first and must not stop
  // there: host 1 ties, and the literal's ascending scan picks it.
  net::SubstrateNetwork s;
  s.add_node({"ingress", net::Tier::Edge, 0, 1.0, false});
  s.add_node({"far", net::Tier::Edge, 100, 2.0, false});
  s.add_node({"near", net::Tier::Edge, 100, 3.0, false});
  s.add_link(0, 2, 100, 1.0);
  s.add_link(2, 1, 100, 1.0);
  const auto vn = net::VirtualNetwork::chain({1}, {1});
  LoadTracker load(s);
  const auto emb = greedy_both(s, vn, 0, 1.0, load);
  ASSERT_TRUE(emb.has_value());
  EXPECT_EQ(emb->node_map[1], 1);
  EXPECT_EQ(emb->link_paths[0], (std::vector<net::LinkId>{0, 1}));
}

TEST(GreedyEmbed, NoHostWithNodeRoomRejectsEvenWithFreeLinks) {
  // Every node is 1 CU short of the request while every link is empty: the
  // search rejects on its host pre-scan alone, as the literal does after a
  // full Dijkstra.
  const auto s = tiny_network();
  const auto vn = net::VirtualNetwork::chain({10, 10}, {2, 2});
  LoadTracker load(s);
  for (net::NodeId v = 0; v < s.num_nodes(); ++v)
    load.apply({{s.node_element(v), 1.0}}, 981.0);
  EXPECT_FALSE(greedy_both(s, vn, 0, 1.0, load).has_value());
  EXPECT_TRUE(greedy_both(s, vn, 0, 0.9, load).has_value());
}

TEST(GreedyEmbed, OutOfRangeIngressThrows) {
  // Checked before the host pre-scan: the request below fits no host, and
  // an out-of-range ingress must still throw rather than reject.
  const auto s = tiny_network();
  const auto vn = net::VirtualNetwork::chain({2000}, {1});
  LoadTracker load(s);
  const CollocatedSearch search(s, {net::Application{"app", vn}});
  for (const net::NodeId ingress : {-1, 3}) {
    EXPECT_THROW(greedy_collocated_embedding(s, vn, ingress, 1.0, load),
                 InvalidArgument);
    EXPECT_THROW(search.embed(0, ingress, 1.0, load), InvalidArgument);
  }
}

TEST(Aggregation, SeriesFollowsActiveDemand) {
  workload::Trace hist;
  hist.push_back({0, 0, 3, 1, 0, 5.0});  // active slots 0..2
  hist.push_back({1, 2, 2, 1, 0, 7.0});  // active slots 2..3
  const auto series = class_demand_series(hist, 0, 1, 5);
  const std::vector<double> expected{5, 5, 12, 7, 0};
  EXPECT_EQ(series, expected);
}

TEST(Aggregation, GroupsByAppAndIngress) {
  workload::Trace hist;
  hist.push_back({0, 0, 2, 0, 0, 5.0});
  hist.push_back({1, 0, 2, 0, 1, 3.0});
  hist.push_back({2, 1, 2, 1, 0, 2.0});
  Rng rng(1);
  AggregationConfig cfg;
  cfg.horizon = 4;
  const auto aggs = aggregate_history(hist, 2, 2, cfg, rng);
  ASSERT_EQ(aggs.size(), 3u);
  for (const auto& a : aggs) {
    EXPECT_GT(a.demand, 0);
    EXPECT_LE(a.demand, a.peak_demand + 1e-9);
    EXPECT_EQ(a.request_count, 1);
  }
}

TEST(Aggregation, PercentileBelowPeakForBurstySeries) {
  // One class: demand 1 except a short burst of 100; P80 must sit near 1.
  workload::Trace hist;
  int id = 0;
  for (int t = 0; t < 100; ++t) hist.push_back({id++, t, 1, 0, 0, 1.0});
  hist.push_back({id++, 50, 5, 0, 0, 100.0});
  std::sort(hist.begin(), hist.end(),
            [](const auto& a, const auto& b) { return a.arrival < b.arrival; });
  Rng rng(3);
  AggregationConfig cfg;
  cfg.horizon = 100;
  const auto aggs = aggregate_history(hist, 1, 1, cfg, rng);
  ASSERT_EQ(aggs.size(), 1u);
  EXPECT_NEAR(aggs[0].peak_demand, 101.0, 1e-9);
  EXPECT_LT(aggs[0].demand, 10.0);  // the P80 ignores the 5-slot burst
  EXPECT_GE(aggs[0].demand, 1.0 - 1e-9);
}

TEST(Aggregation, EmptyHistoryYieldsNoClasses) {
  Rng rng(1);
  EXPECT_TRUE(aggregate_history({}, 2, 3, {}, rng).empty());
}

TEST(Aggregation, DeterministicInRng) {
  workload::Trace hist;
  for (int t = 0; t < 50; ++t) hist.push_back({t, t, 3, 0, 0, 2.0 + t % 5});
  Rng a(9), b(9);
  AggregationConfig cfg;
  cfg.horizon = 60;
  const auto x = aggregate_history(hist, 1, 1, cfg, a);
  const auto y = aggregate_history(hist, 1, 1, cfg, b);
  ASSERT_EQ(x.size(), y.size());
  EXPECT_DOUBLE_EQ(x[0].demand, y[0].demand);
}

}  // namespace
}  // namespace olive::core
