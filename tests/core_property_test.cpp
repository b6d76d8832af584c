// Property-based sweeps over the core algorithms.
//
//  * The tree-DP embedder matches exhaustive enumeration on random
//    instances (uncapacitated and capacity-filtered variants).
//  * OLIVE conserves resources exactly: arbitrary interleavings of
//    arrivals and departures never overdraw an element, and releasing
//    everything returns the substrate to full capacity.
//  * PLAN-VNE plans are always feasible and convex on random instances.
//  * FULLG produces valid, capacity-respecting embeddings.
//  * CollocatedSearch returns exactly what the literal GREEDYEMBED returns
//    on random residual states of Iris, CittaStudi and FatTree8.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>

#include "core/embedder.hpp"
#include "core/fullg.hpp"
#include "core/olive.hpp"
#include "core/plan_solver.hpp"
#include "net/paths.hpp"
#include "topo/topologies.hpp"
#include "util/rng.hpp"
#include "workload/appgen.hpp"

namespace olive::core {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

net::SubstrateNetwork random_substrate(Rng& rng, int n_nodes) {
  net::SubstrateNetwork s;
  for (int v = 0; v < n_nodes; ++v) {
    s.add_node({"n" + std::to_string(v), net::Tier::Edge,
                rng.uniform(200, 800), rng.uniform(0.5, 5.0), false});
  }
  for (int v = 1; v < n_nodes; ++v)  // random tree keeps it connected
    s.add_link(v, static_cast<int>(rng.below(v)), rng.uniform(100, 500),
               rng.uniform(0.5, 3.0));
  for (int extra = 0; extra < n_nodes / 2; ++extra) {
    const int a = static_cast<int>(rng.below(n_nodes));
    const int b = static_cast<int>(rng.below(n_nodes));
    if (a != b && s.find_link(a, b) < 0)
      s.add_link(a, b, rng.uniform(100, 500), rng.uniform(0.5, 3.0));
  }
  return s;
}

net::VirtualNetwork random_tree_vn(Rng& rng, int vnfs) {
  std::vector<int> parents(vnfs);
  std::vector<double> sizes(vnfs), link_sizes(vnfs);
  for (int i = 0; i < vnfs; ++i) {
    parents[i] = static_cast<int>(rng.below(static_cast<std::uint64_t>(i) + 1));
    sizes[i] = rng.uniform(5, 40);
    link_sizes[i] = rng.uniform(1, 20);
  }
  return net::VirtualNetwork(parents, sizes, link_sizes);
}

/// Exhaustive minimum over all placements; per-element capacity filter and
/// joint feasibility are controlled by flags.
double brute_force(const net::SubstrateNetwork& s, const net::VirtualNetwork& vn,
                   net::NodeId ingress, const LoadTracker* load, double demand,
                   const net::AllPairsShortestPaths& apsp_plain) {
  const int k = vn.num_nodes() - 1;
  double best = kInf;
  std::vector<int> placement(vn.num_nodes());
  placement[0] = ingress;
  const long total = static_cast<long>(std::pow(s.num_nodes(), k));
  for (long code = 0; code < total; ++code) {
    long c = code;
    for (int i = 1; i <= k; ++i) {
      placement[i] = static_cast<int>(c % s.num_nodes());
      c /= s.num_nodes();
    }
    double cost = 0;
    bool ok = true;
    for (int i = 1; i <= k && ok; ++i) {
      if (load && load->residual(s.node_element(placement[i])) <
                      vn.vnode(i).size * demand - 1e-9)
        ok = false;
      cost += vn.vnode(i).size * s.node(placement[i]).cost;
    }
    if (!ok) continue;
    for (int l = 0; l < vn.num_links() && ok; ++l) {
      const net::NodeId a = placement[vn.vlink(l).parent];
      const net::NodeId b = placement[vn.vlink(l).child];
      if (a == b) continue;
      if (load) {
        // Filtered shortest path for this link's load.
        std::vector<double> w = net::link_cost_weights(s);
        for (net::LinkId sl = 0; sl < s.num_links(); ++sl)
          if (load->residual(s.link_element(sl)) <
              vn.vlink(l).size * demand - 1e-9)
            w[sl] = kInf;
        const auto tree = net::dijkstra(s, a, w);
        if (!(tree.dist[b] < kInf)) {
          ok = false;
          break;
        }
        cost += vn.vlink(l).size * tree.dist[b];
      } else {
        cost += vn.vlink(l).size * apsp_plain.dist(a, b);
      }
    }
    if (ok) best = std::min(best, cost);
  }
  return best;
}

double embedding_cost(const net::SubstrateNetwork& s,
                      const net::VirtualNetwork& vn, const net::Embedding& e) {
  double cost = 0;
  for (int i = 1; i < vn.num_nodes(); ++i)
    cost += vn.vnode(i).size * s.node(e.node_map[i]).cost;
  for (int l = 0; l < vn.num_links(); ++l)
    for (const auto sl : e.link_paths[l])
      cost += vn.vlink(l).size * s.link(sl).cost;
  return cost;
}

class DpSweep : public ::testing::TestWithParam<int> {};

TEST_P(DpSweep, UncapacitatedDpMatchesBruteForce) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 1337 + 11);
  const auto s = random_substrate(rng, 3 + static_cast<int>(rng.below(3)));
  const auto vn = random_tree_vn(rng, 2 + static_cast<int>(rng.below(2)));
  const auto ingress = static_cast<net::NodeId>(rng.below(s.num_nodes()));
  const auto costs = EffectiveCosts::plain(s);
  const net::AllPairsShortestPaths apsp(s, costs.link_weight);
  const auto emb = min_cost_tree_embedding(s, vn, ingress, costs, apsp);
  ASSERT_TRUE(emb.has_value());
  ASSERT_TRUE(net::is_valid_embedding(s, vn, *emb));
  EXPECT_NEAR(embedding_cost(s, vn, *emb),
              brute_force(s, vn, ingress, nullptr, 1.0, apsp), 1e-6)
      << "seed " << GetParam();
}

TEST_P(DpSweep, CapacitatedDpMatchesFilteredBruteForce) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7717 + 3);
  const auto s = random_substrate(rng, 3 + static_cast<int>(rng.below(3)));
  const auto vn = random_tree_vn(rng, 2 + static_cast<int>(rng.below(2)));
  const auto ingress = static_cast<net::NodeId>(rng.below(s.num_nodes()));
  LoadTracker load(s);
  // Random pre-existing load on ~half the elements.
  for (int e = 0; e < s.element_count(); ++e) {
    if (!rng.chance(0.5)) continue;
    const double amt = rng.uniform(0.0, 0.9) * s.element_capacity(e);
    load.apply({{e, 1.0}}, amt);
  }
  const double demand = rng.uniform(0.5, 3.0);
  const auto costs = EffectiveCosts::plain(s);
  const net::AllPairsShortestPaths apsp(s, costs.link_weight);
  const auto emb =
      capacitated_min_cost_tree_embedding(s, vn, ingress, demand, load);
  const double reference = brute_force(s, vn, ingress, &load, demand, apsp);
  if (!emb.has_value()) {
    EXPECT_EQ(reference, kInf) << "seed " << GetParam();
    return;
  }
  ASSERT_TRUE(net::is_valid_embedding(s, vn, *emb));
  // Every element individually fits.
  for (const auto& [elem, amt] : net::unit_usage(s, vn, *emb)) {
    (void)elem;
    (void)amt;
  }
  EXPECT_NEAR(embedding_cost(s, vn, *emb), reference, 1e-6)
      << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, DpSweep, ::testing::Range(0, 30));

class OliveConservation : public ::testing::TestWithParam<int> {};

TEST_P(OliveConservation, ResourcesConservedUnderRandomChurn) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 99991 + 5);
  const auto s = random_substrate(rng, 5);
  std::vector<net::Application> apps;
  apps.push_back({"a", random_tree_vn(rng, 3)});
  apps.push_back({"b", random_tree_vn(rng, 2)});

  // Random plan over a couple of classes.
  std::vector<AggregateRequest> aggs;
  for (int c = 0; c < 3; ++c) {
    AggregateRequest a;
    a.app = static_cast<int>(rng.below(apps.size()));
    a.ingress = static_cast<net::NodeId>(rng.below(s.num_nodes()));
    a.demand = rng.uniform(1.0, 6.0);
    if (aggs.end() == std::find_if(aggs.begin(), aggs.end(), [&](const auto& x) {
          return x.app == a.app && x.ingress == a.ingress;
        }))
      aggs.push_back(a);
  }
  const Plan plan = solve_plan_vne(s, apps, aggs);
  OliveEmbedder algo(s, apps, plan);

  std::vector<workload::Request> live;
  int next_id = 0;
  for (int step = 0; step < 300; ++step) {
    if (rng.chance(0.6) || live.empty()) {
      workload::Request r;
      r.id = next_id++;
      r.arrival = step;
      r.duration = 5;
      r.ingress = static_cast<net::NodeId>(rng.below(s.num_nodes()));
      r.app = static_cast<int>(rng.below(apps.size()));
      r.demand = rng.uniform(0.2, 3.0);
      const auto out = algo.embed(r);
      if (out.accepted()) {
        live.push_back(r);
        // Preempted victims are no longer live.
        for (const int vid : out.preempted_ids)
          std::erase_if(live, [&](const auto& x) { return x.id == vid; });
      }
    } else {
      const std::size_t pick = rng.below(live.size());
      algo.depart(live[pick]);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
    }
    // Invariant: no element is ever overdrawn.
    EXPECT_GE(algo.load().min_residual(), -1e-6) << "step " << step;
  }
  // Departing everything restores the full capacity exactly.
  for (const auto& r : live) algo.depart(r);
  for (int e = 0; e < s.element_count(); ++e)
    EXPECT_NEAR(algo.load().residual(e), s.element_capacity(e), 1e-6)
        << "element " << e;
}

INSTANTIATE_TEST_SUITE_P(Seeds, OliveConservation, ::testing::Range(0, 20));

class PlanSweep : public ::testing::TestWithParam<int> {};

TEST_P(PlanSweep, RandomPlansAreFeasibleAndConvex) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 4241 + 17);
  const auto s = random_substrate(rng, 4 + static_cast<int>(rng.below(4)));
  std::vector<net::Application> apps;
  const int napps = 1 + static_cast<int>(rng.below(3));
  for (int a = 0; a < napps; ++a)
    apps.push_back({"app" + std::to_string(a),
                    random_tree_vn(rng, 2 + static_cast<int>(rng.below(3)))});
  std::vector<AggregateRequest> aggs;
  for (int v = 0; v < s.num_nodes(); ++v) {
    for (int a = 0; a < napps; ++a) {
      if (!rng.chance(0.4)) continue;
      AggregateRequest agg;
      agg.app = a;
      agg.ingress = v;
      agg.demand = rng.uniform(0.5, 20.0);
      aggs.push_back(agg);
    }
  }
  if (aggs.empty()) return;
  PlanVneConfig cfg;
  cfg.quantiles = 1 + static_cast<int>(rng.below(10));
  const Plan plan = solve_plan_vne(s, apps, aggs, cfg);

  std::vector<double> lo(s.element_count(), 0.0);
  for (const auto& pc : plan.classes()) {
    EXPECT_NEAR(pc.accepted_fraction() + pc.rejected_fraction(), 1.0, 1e-6);
    for (const double y : pc.rejected_per_quantile) {
      EXPECT_GE(y, -1e-9);
      EXPECT_LE(y, 1.0 / cfg.quantiles + 1e-9);
    }
    for (const auto& col : pc.columns) {
      EXPECT_TRUE(net::is_valid_embedding(
          s, apps[pc.aggregate.app].topology, col.embedding));
      for (const auto& [elem, amt] : col.usage)
        lo[elem] += col.fraction * pc.aggregate.demand * amt;
    }
  }
  for (int e = 0; e < s.element_count(); ++e)
    EXPECT_LE(lo[e], s.element_capacity(e) * (1 + 1e-6)) << "element " << e;
}

INSTANTIATE_TEST_SUITE_P(Seeds, PlanSweep, ::testing::Range(0, 25));

class FullGSweep : public ::testing::TestWithParam<int> {};

TEST_P(FullGSweep, EmbeddingsValidAndWithinCapacity) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 21211 + 2);
  const auto s = random_substrate(rng, 5);
  std::vector<net::Application> apps;
  apps.push_back({"a", random_tree_vn(rng, 3)});
  FullGreedyEmbedder algo(s, apps);
  algo.reset();
  for (int i = 0; i < 40; ++i) {
    workload::Request r;
    r.id = i;
    r.arrival = i;
    r.duration = 1000;
    r.ingress = static_cast<net::NodeId>(rng.below(s.num_nodes()));
    r.app = 0;
    r.demand = rng.uniform(0.2, 2.0);
    const auto out = algo.embed(r);
    if (out.accepted()) {
      EXPECT_GT(out.unit_cost, 0);
      EXPECT_FALSE(out.placement->usage.empty());
    }
    EXPECT_GE(algo.load().min_residual(), -1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FullGSweep, ::testing::Range(0, 15));

struct CollocatedCase {
  std::string topology;
  bool gpu_variant = false;
};

// Prints a case as its name, e.g. "FatTree8Gpu", rather than the struct's
// raw bytes, which hold a heap address and would change the test's name
// from run to run.
std::string case_name(const CollocatedCase& c) {
  return c.topology + (c.gpu_variant ? "Gpu" : "");
}
void PrintTo(const CollocatedCase& c, std::ostream* os) { *os << case_name(c); }

class CollocatedSweep : public ::testing::TestWithParam<CollocatedCase> {};

TEST_P(CollocatedSweep, SearchMatchesLiteralOnRandomResiduals) {
  const CollocatedCase& c = GetParam();
  Rng rng(stable_hash(c.topology) + (c.gpu_variant ? 1 : 0));
  net::SubstrateNetwork s = c.topology == "Iris"         ? topo::iris(rng)
                            : c.topology == "CittaStudi" ? topo::citta_studi(rng)
                                                         : topo::fat_tree(rng, 8);
  // The GPU substrate adds a GPU chain, whose GPU/non-GPU mix has no host.
  auto mix = workload::default_mix();
  if (c.gpu_variant) {
    s = topo::make_gpu_variant(s, rng);
    mix.push_back(workload::AppKind::Gpu);
  }
  const auto apps = workload::sample_application_set(mix, {}, rng);
  const CollocatedSearch search(s, apps);

  long calls = 0, feasible = 0;
  for (const double fill : {0.0, 0.2, 0.4, 0.6, 0.8, 1.0}) {
    // Residual state: each element carries a random load with probability
    // `fill`, and a few are failed to zero capacity.
    LoadTracker load(s);
    for (int e = 0; e < s.element_count(); ++e) {
      if (rng.chance(0.05 * fill)) {
        load.set_capacity(e, 0);
      } else if (rng.chance(fill)) {
        load.apply({{e, 1.0}}, rng.uniform(0.0, 1.0) * s.element_capacity(e));
      }
    }
    for (int app = 0; app < static_cast<int>(apps.size()); ++app) {
      for (net::NodeId ingress = 0; ingress < s.num_nodes(); ++ingress) {
        for (const double demand : {1.0, 50.0, 2000.0, 20000.0}) {
          const auto literal = greedy_collocated_embedding(
              s, apps[app].topology, ingress, demand, load);
          const auto searched = search.embed(app, ingress, demand, load);
          const auto where = [&] {
            return ::testing::Message() << "app " << app << " ingress "
                                        << ingress << " demand " << demand
                                        << " fill " << fill;
          };
          ++calls;
          ASSERT_EQ(literal.has_value(), searched.has_value()) << where();
          if (!literal) continue;
          ++feasible;
          ASSERT_EQ(literal->node_map, searched->node_map) << where();
          ASSERT_EQ(literal->link_paths, searched->link_paths) << where();
          EXPECT_TRUE(search.still_fits(app, *searched, demand, load))
              << where();
        }
      }
    }
  }
  EXPECT_GT(feasible, 0);
  EXPECT_LT(feasible, calls);
}

INSTANTIATE_TEST_SUITE_P(
    Topologies, CollocatedSweep,
    ::testing::Values(CollocatedCase{"Iris", false}, CollocatedCase{"Iris", true},
                      CollocatedCase{"FatTree8", false},
                      CollocatedCase{"FatTree8", true},
                      CollocatedCase{"CittaStudi", false},
                      CollocatedCase{"CittaStudi", true}),
    [](const ::testing::TestParamInfo<CollocatedCase>& info) {
      return case_name(info.param);
    });

}  // namespace
}  // namespace olive::core
