// Embedding search primitives.
//
// 1. min_cost_tree_embedding — exact min-cost embedding of a tree virtual
//    network with the root θ pinned to the ingress, under arbitrary
//    per-element effective costs and ignoring capacities.  Computed by
//    dynamic programming over the tree (children before parents):
//        C(i, v) = β_i·η(i,v)·nodeCost(v)
//                  + Σ_{j child of i} min_w [ β_(ij)·dist(v, w) + C(j, w) ]
//    where dist() is an all-pairs shortest-path metric on the effective
//    per-CU link costs.  This is the pricing oracle of the PLAN-VNE column
//    generation and the candidate generator for the plan's columns.
//
// 2. greedy_collocated_embedding — GREEDYEMBED of §III-C: all VNFs of the
//    request collocate on one substrate node; the virtual links adjacent to
//    θ ride a single substrate path from the ingress; the least-cost
//    feasible host is found with one capacity-filtered Dijkstra.  This is
//    the literal form, kept as the specification.  CollocatedSearch returns
//    the same bytes from per-application tables built once, per-thread
//    scratch in place of per-call vectors, and a Dijkstra that stops as
//    soon as no unsettled node can beat the best host found so far
//    (docs/olive-fastpath.md §5).
#pragma once

#include <optional>
#include <vector>

#include "core/load.hpp"
#include "net/embedding.hpp"
#include "net/paths.hpp"
#include "net/vnet.hpp"

namespace olive::core {

/// Effective per-CU element costs used by the DP (duals-adjusted during
/// column generation, plain element costs otherwise).
struct EffectiveCosts {
  std::vector<double> node_cost;    ///< per substrate node
  std::vector<double> link_weight;  ///< per substrate link

  static EffectiveCosts plain(const net::SubstrateNetwork& s);
};

/// Exact min-cost tree embedding (capacities ignored; η = inf placements
/// excluded).  Returns nullopt if some VNF has no allowed placement.
/// `apsp` must be built on `costs.link_weight`.
std::optional<net::Embedding> min_cost_tree_embedding(
    const net::SubstrateNetwork& s, const net::VirtualNetwork& vn,
    net::NodeId ingress, const EffectiveCosts& costs,
    const net::AllPairsShortestPaths& apsp);

/// Same, on lazily computed shortest paths (the PLAN-VNE pricing path).
std::optional<net::Embedding> min_cost_tree_embedding(
    const net::SubstrateNetwork& s, const net::VirtualNetwork& vn,
    net::NodeId ingress, const EffectiveCosts& costs,
    const net::LazyShortestPaths& paths);

/// The tree-DP tables of min_cost_tree_embedding, decoupled from the
/// ingress: dp[i][v] depends only on (topology, effective costs), so one DP
/// answers embed() for every ingress.  The PLAN-VNE pricing loop builds one
/// per application per dual update and reuses it across all classes of that
/// application — with many ingress classes per app this removes most of the
/// pricing work.  Results are identical to min_cost_tree_embedding.
class MinCostTreeDP {
 public:
  MinCostTreeDP(const net::SubstrateNetwork& s, const net::VirtualNetwork& vn,
                const EffectiveCosts& costs,
                const net::LazyShortestPaths& paths);

  /// Min-cost embedding with the root pinned to `ingress`, or nullopt.
  std::optional<net::Embedding> embed(net::NodeId ingress) const;

 private:
  const net::SubstrateNetwork* s_;
  const net::VirtualNetwork* vn_;
  const net::LazyShortestPaths* paths_;
  std::vector<std::vector<double>> dp_;
  std::vector<std::vector<net::NodeId>> choice_;
};

/// GREEDYEMBED (§III-C): least-cost collocated embedding that fits the
/// residual capacities in `load` for the given demand.  Returns nullopt when
/// no feasible collocated embedding exists (including GPU/non-GPU VNF mixes,
/// which cannot collocate — the reason QUICKG skips the Fig. 10 scenario).
std::optional<net::Embedding> greedy_collocated_embedding(
    const net::SubstrateNetwork& s, const net::VirtualNetwork& vn,
    net::NodeId ingress, double demand, const LoadTracker& load);

/// greedy_collocated_embedding for a fixed (substrate, apps) pair, built
/// once.  embed() returns byte-for-byte what the literal returns for
/// apps[app].topology; the exactness argument is docs/olive-fastpath.md §5.
/// Calls may run concurrently: the search state is per-thread scratch.
class CollocatedSearch {
 public:
  /// `s` must outlive the search.  Throws InvalidArgument if a link cost is
  /// negative or not finite.
  CollocatedSearch(const net::SubstrateNetwork& s,
                   const std::vector<net::Application>& apps);

  std::optional<net::Embedding> embed(int app, net::NodeId ingress,
                                      double demand,
                                      const LoadTracker& load) const;

  /// True if `e`, an embed() result for `app`, passes the search's own
  /// residual tests at `demand`: its host against node_size·demand and
  /// every link of its path against path_size·demand, with the 1e-9
  /// tolerance.  Within one grow epoch and at a demand no smaller than the
  /// one `e` was computed for, that makes `e` exactly what embed() would
  /// return now (docs/olive-fastpath.md §3).
  bool still_fits(int app, const net::Embedding& e, double demand,
                  const LoadTracker& load) const;

 private:
  struct AppTable {
    double node_size = 0;  ///< Σ VNF sizes, in virtual-node order
    double path_size = 0;  ///< Σ sizes of the links adjacent to θ
    int num_vnodes = 0;
    int num_vlinks = 0;
    std::vector<int> root_links;  ///< virtual links adjacent to θ
    /// The nodes that allow every VNF, by ascending (node cost, id).
    std::vector<net::NodeId> hosts;
    std::vector<char> allowed;  ///< per node: listed in `hosts`
  };

  const net::SubstrateNetwork* s_;
  std::vector<AppTable> apps_;
  std::vector<double> node_cost_;
  std::vector<double> link_weight_;
};

/// Capacity-filtered min-cost tree embedding: like min_cost_tree_embedding
/// but every placement/link must individually fit `demand` under the
/// residuals in `load` (a *necessary* condition for any feasible embedding,
/// so the returned optimum lower-bounds all feasible embeddings).  If the
/// result also passes the joint load check, it is exactly the optimal
/// capacitated embedding — FULLG's fast path; it falls back to the ILP only
/// when several virtual elements collide on one substrate element.
std::optional<net::Embedding> capacitated_min_cost_tree_embedding(
    const net::SubstrateNetwork& s, const net::VirtualNetwork& vn,
    net::NodeId ingress, double demand, const LoadTracker& load);

}  // namespace olive::core
