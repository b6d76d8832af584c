// Embeddings: the mapping x(r) of a virtual network onto the substrate
// (paper §II-A "Embedding"/"Validity"/"Resource Consumption").
//
// An embedding maps every virtual node to a substrate node and every virtual
// link to a substrate path (possibly empty when both endpoints share a
// substrate node).  Resource usage follows Eq. (1):
//   load(x, q, s) = x_s^q * d * β_q * η_s^q
// The η (in)efficiency coefficient encodes placement policy; here it is 1
// for allowed placements and +inf for forbidden ones (GPU rules), exactly
// the mechanism the paper describes for constraining placement.
#pragma once

#include <cstdint>
#include <vector>

#include "net/substrate.hpp"
#include "net/vnet.hpp"

namespace olive::net {

/// (In)efficiency coefficient η for placing virtual node i of `vn` on
/// substrate node v: 1.0 when allowed, +inf when forbidden (GPU VNFs must go
/// to GPU datacenters; GPU datacenters accept only GPU VNFs — §IV-A).
double eta(const SubstrateNetwork& s, const VirtualNetwork& vn, int vnode,
           NodeId v) noexcept;

/// True if virtual node `vnode` may be placed on substrate node v.
bool placement_allowed(const SubstrateNetwork& s, const VirtualNetwork& vn,
                       int vnode, NodeId v) noexcept;

struct Embedding {
  /// node_map[i] = substrate node hosting virtual node i (node_map[0] is the
  /// ingress hosting θ).
  std::vector<NodeId> node_map;
  /// link_paths[i] = substrate links carrying virtual link i, ordered from
  /// the parent's node to the child's node; empty if both ends collocate.
  std::vector<std::vector<LinkId>> link_paths;
};

/// 64-bit FNV-1a fingerprint over the node map and link paths.  Used to
/// deduplicate generated columns in O(1) (hash-set membership) instead of
/// materializing and ordering full embedding copies.  A collision merely
/// drops one duplicate-looking column from the pool — it cannot corrupt a
/// plan — and at the pool sizes involved (thousands of columns) the
/// 64-bit collision probability is negligible.
std::uint64_t fingerprint64(const Embedding& e) noexcept;

/// Per-unit-demand resource usage of an embedding, aggregated per substrate
/// element (flat element indexing): entries (element, Σ β_q · η).
/// Multiplying by d(r) yields Eq. (1)'s loads.
std::vector<std::pair<int, double>> unit_usage(const SubstrateNetwork& s,
                                               const VirtualNetwork& vn,
                                               const Embedding& e);

/// Per-unit-demand resource cost of a unit_usage() result:
/// Σ usage(element) · cost(element), summed left to right.
double usage_cost(const SubstrateNetwork& s,
                  const std::vector<std::pair<int, double>>& usage);

/// usage_cost(s, unit_usage(s, vn, e)).
double unit_cost(const SubstrateNetwork& s, const VirtualNetwork& vn,
                 const Embedding& e);

/// Structural validity: complete node map, every path connects its virtual
/// link's endpoint nodes through existing consecutive substrate links, and
/// all placements are allowed (finite η).
bool is_valid_embedding(const SubstrateNetwork& s, const VirtualNetwork& vn,
                        const Embedding& e);

}  // namespace olive::net
