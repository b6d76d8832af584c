// Tests for the topology builders: Table II node/link counts, tier
// structure, capacity/cost assignment, GPU variant, and the random-graph
// generator's connectivity guarantees.
#include <gtest/gtest.h>

#include <ostream>

#include "net/substrate.hpp"
#include "topo/topologies.hpp"
#include "util/error.hpp"

namespace olive::topo {
namespace {

using net::Tier;

TEST(TierParams, TableTwoValues) {
  EXPECT_DOUBLE_EQ(tier_params(Tier::Edge).node_capacity, 200e3);
  EXPECT_DOUBLE_EQ(tier_params(Tier::Transport).node_capacity, 600e3);
  EXPECT_DOUBLE_EQ(tier_params(Tier::Core).node_capacity, 1800e3);
  EXPECT_DOUBLE_EQ(tier_params(Tier::Edge).mean_node_cost, 50);
  EXPECT_DOUBLE_EQ(tier_params(Tier::Core).mean_node_cost, 1);
  // Successive tiers scale capacities by 3x.
  EXPECT_DOUBLE_EQ(tier_params(Tier::Transport).node_capacity,
                   3 * tier_params(Tier::Edge).node_capacity);
  EXPECT_DOUBLE_EQ(tier_params(Tier::Core).link_capacity,
                   3 * tier_params(Tier::Transport).link_capacity);
}

struct TopoCase {
  const char* name;
  int nodes, links;
};

// Prints a case as its Table II counts, e.g. "50N64E". Without it gtest
// dumps the struct's raw bytes, which include the address of `name`, so the
// listed test names (and the CTest names derived from them) would change
// from run to run under address-space randomisation.
void PrintTo(const TopoCase& c, std::ostream* os) {
  *os << c.nodes << 'N' << c.links << 'E';
}

class EvaluationTopologies : public ::testing::TestWithParam<TopoCase> {};

net::SubstrateNetwork build(const std::string& name, Rng& rng) {
  if (name == "Iris") return iris(rng);
  if (name == "CittaStudi") return citta_studi(rng);
  if (name == "5GEN") return fivegen(rng);
  return erdos_renyi(rng);
}

TEST_P(EvaluationTopologies, MatchesPaperCounts) {
  Rng rng(1234);
  const auto s = build(GetParam().name, rng);
  EXPECT_EQ(s.num_nodes(), GetParam().nodes);
  EXPECT_EQ(s.num_links(), GetParam().links);
}

TEST_P(EvaluationTopologies, ConnectedWithAllTiersPresent) {
  Rng rng(99);
  const auto s = build(GetParam().name, rng);
  EXPECT_TRUE(s.is_connected());
  EXPECT_FALSE(s.nodes_in_tier(Tier::Edge).empty());
  EXPECT_FALSE(s.nodes_in_tier(Tier::Transport).empty());
  EXPECT_FALSE(s.nodes_in_tier(Tier::Core).empty());
}

TEST_P(EvaluationTopologies, CapacitiesAndCostsFollowTiers) {
  Rng rng(7);
  const auto s = build(GetParam().name, rng);
  for (net::NodeId v = 0; v < s.num_nodes(); ++v) {
    const auto& n = s.node(v);
    const TierParams p = tier_params(n.tier);
    EXPECT_DOUBLE_EQ(n.capacity, p.node_capacity);
    // Cost uniform in [50%, 150%] of the tier mean.
    EXPECT_GE(n.cost, 0.5 * p.mean_node_cost);
    EXPECT_LE(n.cost, 1.5 * p.mean_node_cost);
  }
  for (net::LinkId l = 0; l < s.num_links(); ++l) {
    const auto& link = s.link(l);
    const TierParams p = tier_params(link_tier(s, link.a, link.b));
    EXPECT_DOUBLE_EQ(link.capacity, p.link_capacity);
    EXPECT_DOUBLE_EQ(link.cost, 1.0);
  }
}

TEST_P(EvaluationTopologies, DeterministicForSameSeed) {
  Rng a(5), b(5);
  const auto s1 = build(GetParam().name, a);
  const auto s2 = build(GetParam().name, b);
  ASSERT_EQ(s1.num_nodes(), s2.num_nodes());
  for (net::NodeId v = 0; v < s1.num_nodes(); ++v)
    EXPECT_DOUBLE_EQ(s1.node(v).cost, s2.node(v).cost);
}

INSTANTIATE_TEST_SUITE_P(
    Paper, EvaluationTopologies,
    ::testing::Values(TopoCase{"Iris", 50, 64}, TopoCase{"CittaStudi", 30, 35},
                      TopoCase{"5GEN", 78, 100},
                      TopoCase{"100N150E", 100, 150}),
    [](const auto& info) { return info.param.name; });

TEST(Iris, HasFranklinEdgeNode) {
  Rng rng(1);
  const auto s = iris(rng);
  bool found = false;
  for (net::NodeId v = 0; v < s.num_nodes(); ++v) {
    if (s.node(v).name == "Franklin") {
      found = true;
      EXPECT_EQ(s.node(v).tier, Tier::Edge);
    }
  }
  EXPECT_TRUE(found);  // Fig. 12 examines the 'Franklin' node
}

TEST(ErdosRenyi, CustomSizesAndBounds) {
  Rng rng(3);
  const auto s = erdos_renyi(rng, 20, 30);
  EXPECT_EQ(s.num_nodes(), 20);
  EXPECT_EQ(s.num_links(), 30);
  EXPECT_TRUE(s.is_connected());
  Rng rng2(3);
  EXPECT_THROW(erdos_renyi(rng2, 5, 3), InvalidArgument);   // < tree
  EXPECT_THROW(erdos_renyi(rng2, 5, 11), InvalidArgument);  // > complete
}

TEST(ErdosRenyi, TierFractionsRoughlyAsConfigured) {
  Rng rng(11);
  const auto s = erdos_renyi(rng, 100, 150);
  EXPECT_EQ(s.nodes_in_tier(Tier::Core).size(), 10u);
  EXPECT_EQ(s.nodes_in_tier(Tier::Transport).size(), 25u);
  EXPECT_EQ(s.nodes_in_tier(Tier::Edge).size(), 65u);
}

TEST(GpuVariant, MarksNodesAndShrinksOthers) {
  Rng rng(21);
  const auto base = iris(rng);
  Rng grng(22);
  const auto gpu = make_gpu_variant(base, grng, 4);
  ASSERT_EQ(gpu.num_nodes(), base.num_nodes());
  int gpu_core = 0, gpu_edge = 0;
  for (net::NodeId v = 0; v < gpu.num_nodes(); ++v) {
    const auto& n = gpu.node(v);
    if (n.gpu) {
      EXPECT_DOUBLE_EQ(n.capacity, base.node(v).capacity);
      if (n.tier == Tier::Core) ++gpu_core;
      if (n.tier == Tier::Edge) ++gpu_edge;
    } else {
      EXPECT_DOUBLE_EQ(n.capacity, 0.75 * base.node(v).capacity);
    }
  }
  EXPECT_EQ(gpu_core, 3);  // half of 6 core nodes
  EXPECT_EQ(gpu_edge, 4);
}

TEST(FatTree, CountsAndStructure) {
  for (const int k : {2, 4, 8}) {
    Rng rng(11);
    const auto s = fat_tree(rng, k);
    const int half = k / 2;
    EXPECT_EQ(s.num_nodes(), half * half + 2 * k * half + k * half * half);
    EXPECT_EQ(s.num_links(), 3 * k * half * half);
    EXPECT_TRUE(s.is_connected());
    // Tier census: cores, switches, hosts.
    int core = 0, transport = 0, edge = 0;
    for (net::NodeId v = 0; v < s.num_nodes(); ++v) {
      switch (s.node(v).tier) {
        case Tier::Core: ++core; break;
        case Tier::Transport: ++transport; break;
        case Tier::Edge: ++edge; break;
      }
    }
    EXPECT_EQ(core, half * half);
    EXPECT_EQ(transport, 2 * k * half);
    EXPECT_EQ(edge, k * half * half);
  }
}

TEST(FatTree, HostsAreSingleHomedAndSwitchesFollowTierParams) {
  Rng rng(12);
  const auto s = fat_tree(rng, 4);
  for (net::NodeId v = 0; v < s.num_nodes(); ++v) {
    const auto& n = s.node(v);
    if (n.tier == Tier::Edge) {
      // Hosts hang off exactly one edge switch.
      EXPECT_EQ(s.adjacency(v).size(), 1u);
      EXPECT_EQ(s.node(s.adjacency(v)[0].first).tier, Tier::Transport);
    }
    const TierParams p = tier_params(n.tier);
    EXPECT_DOUBLE_EQ(n.capacity, p.node_capacity);
    EXPECT_GE(n.cost, 0.5 * p.mean_node_cost);
    EXPECT_LE(n.cost, 1.5 * p.mean_node_cost);
  }
}

TEST(FatTree, RejectsOddArity) {
  Rng rng(13);
  EXPECT_THROW(fat_tree(rng, 3), InvalidArgument);
  EXPECT_THROW(fat_tree(rng, 0), InvalidArgument);
}

TEST(EvaluationTopologySet, ProvidesAllFour) {
  Rng rng(8);
  const auto all = evaluation_topologies(rng);
  ASSERT_EQ(all.size(), 4u);
  EXPECT_EQ(all[0].name, "Iris");
  EXPECT_EQ(all[3].network.num_nodes(), 100);
}

}  // namespace
}  // namespace olive::topo
