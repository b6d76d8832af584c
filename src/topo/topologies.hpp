// Builders for the four physical topologies of the evaluation (Table II):
//
//   Iris        50 nodes /  64 links   (Internet Topology Zoo)
//   Citta Studi 30 nodes /  35 links   (mobile edge network)
//   5GEN        78 nodes / 100 links   (5G deployment, Madrid)
//   100N150E   100 nodes / 150 links   (connected Erdős–Rényi)
//
// The original topology files are not redistributable, so the builders
// re-create graphs with the published node/link counts and the three-tier
// edge/transport/core structure (see DESIGN.md "Substitutions").  Tier
// capacities and costs follow Table II: successive tiers scale capacity by
// 3x, datacenter costs are drawn uniformly from [50%, 150%] of the tier
// mean, and link cost is 1 per CU everywhere.
#pragma once

#include "net/substrate.hpp"
#include "util/rng.hpp"

namespace olive::topo {

/// Table II tier parameters.
struct TierParams {
  double node_capacity;
  double mean_node_cost;
  double link_capacity;
  double link_cost;
};

TierParams tier_params(net::Tier t) noexcept;

/// Tier of a link: the lower (more edge-ward) tier of its two endpoints.
net::Tier link_tier(const net::SubstrateNetwork& s, net::NodeId a, net::NodeId b);

net::SubstrateNetwork iris(Rng& rng);
net::SubstrateNetwork citta_studi(Rng& rng);
net::SubstrateNetwork fivegen(Rng& rng);
net::SubstrateNetwork erdos_renyi(Rng& rng, int nodes = 100, int links = 150);

/// Synthetic scale family: a k-ary fat-tree datacenter fabric (k even).
/// (k/2)² core switches (Core tier), k pods of k/2 aggregation and k/2 edge
/// switches (Transport tier), and k/2 hosts per edge switch (Edge tier —
/// the ingress datacenters workloads arrive at).  Node/link attributes
/// follow the Table II tier parameters, so utilization calibration and the
/// application mix work unchanged.  k=8 gives 208 nodes / 384 links —
/// several times the paper's largest topology — the master sizes the sparse
/// basis factorization is built for (bench/perf_smoke "scale" cases).
net::SubstrateNetwork fat_tree(Rng& rng, int k);

/// Synthetic ISP-scale topology shaped like the CAIDA source model that
/// drives the `workload/caida` trace generator: `pops` points of presence
/// whose sizes follow a Pareto(pop_shape) draw normalized to ~`edge_nodes`
/// edge datacenters in total, so a handful of metro PoPs hold a large share
/// of the ingress points while a long tail of small PoPs holds the rest.
/// Each PoP is an aggregation router (two for PoPs at twice the mean size,
/// joined laterally) dual-homed into a national core ring with chords; edge
/// nodes single-home to their PoP's aggregation.  Defaults give ~1100 nodes
/// — the `CaidaIsp` scale_xl scenario (docs/engine.md).  Attributes follow
/// the Table II tier parameters, like every other builder here.
net::SubstrateNetwork caida_isp(Rng& rng, int pops = 48, int edge_nodes = 1024,
                                double pop_shape = 1.3);

/// All four evaluation topologies, keyed by their paper names.
struct NamedTopology {
  std::string name;
  net::SubstrateNetwork network;
};
std::vector<NamedTopology> evaluation_topologies(Rng& rng);

/// Fig. 10 GPU variant: half of the core nodes plus `gpu_edge_nodes` random
/// edge nodes become GPU datacenters; all non-GPU datacenters lose 25% of
/// their capacity (§IV-B "GPU").
net::SubstrateNetwork make_gpu_variant(const net::SubstrateNetwork& s, Rng& rng,
                                       int gpu_edge_nodes = 4);

}  // namespace olive::topo
