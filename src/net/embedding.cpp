#include "net/embedding.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/error.hpp"

namespace olive::net {

double eta(const SubstrateNetwork& s, const VirtualNetwork& vn, int vnode,
           NodeId v) noexcept {
  if (vnode == 0) return 1.0;  // θ is an ingress marker with zero size
  const bool vnf_gpu = vn.vnode(vnode).gpu;
  const bool node_gpu = s.node(v).gpu;
  if (vnf_gpu != node_gpu) return std::numeric_limits<double>::infinity();
  return 1.0;
}

bool placement_allowed(const SubstrateNetwork& s, const VirtualNetwork& vn,
                       int vnode, NodeId v) noexcept {
  return std::isfinite(eta(s, vn, vnode, v));
}

std::uint64_t fingerprint64(const Embedding& e) noexcept {
  // FNV-1a over the int sequence node_map, then per path a separator and
  // its links.  The separator keeps path boundaries unambiguous (node and
  // link ids are non-negative).
  constexpr std::uint64_t kOffset = 1469598103934665603ull;
  constexpr std::uint64_t kPrime = 1099511628211ull;
  std::uint64_t h = kOffset;
  const auto mix = [&h](std::uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (value >> (8 * byte)) & 0xffu;
      h *= kPrime;
    }
  };
  for (const NodeId v : e.node_map) mix(static_cast<std::uint64_t>(v));
  for (const auto& path : e.link_paths) {
    mix(~0ull);  // separator (no valid id encodes to this)
    for (const LinkId l : path) mix(static_cast<std::uint64_t>(l));
  }
  return h;
}

std::vector<std::pair<int, double>> unit_usage(const SubstrateNetwork& s,
                                               const VirtualNetwork& vn,
                                               const Embedding& e) {
  OLIVE_REQUIRE(static_cast<int>(e.node_map.size()) == vn.num_nodes(),
                "embedding node map size mismatch");
  OLIVE_REQUIRE(static_cast<int>(e.link_paths.size()) == vn.num_links(),
                "embedding link paths size mismatch");
  std::vector<std::pair<int, double>> usage;
  for (int i = 0; i < vn.num_nodes(); ++i) {
    const double beta = vn.vnode(i).size;
    if (beta == 0) continue;
    usage.emplace_back(s.node_element(e.node_map[i]),
                       beta * eta(s, vn, i, e.node_map[i]));
  }
  for (int l = 0; l < vn.num_links(); ++l) {
    const double beta = vn.vlink(l).size;
    if (beta == 0) continue;
    for (const LinkId sl : e.link_paths[l])
      usage.emplace_back(s.link_element(sl), beta);  // link η is 1 (§IV-A)
  }
  // Aggregate duplicate elements (several VNFs on one node, several virtual
  // links sharing a substrate link).
  std::sort(usage.begin(), usage.end());
  std::vector<std::pair<int, double>> out;
  for (const auto& [elem, amt] : usage) {
    if (!out.empty() && out.back().first == elem) {
      out.back().second += amt;
    } else {
      out.emplace_back(elem, amt);
    }
  }
  return out;
}

double usage_cost(const SubstrateNetwork& s,
                  const std::vector<std::pair<int, double>>& usage) {
  double total = 0;
  for (const auto& [elem, amt] : usage) total += amt * s.element_cost(elem);
  return total;
}

double unit_cost(const SubstrateNetwork& s, const VirtualNetwork& vn,
                 const Embedding& e) {
  return usage_cost(s, unit_usage(s, vn, e));
}

bool is_valid_embedding(const SubstrateNetwork& s, const VirtualNetwork& vn,
                        const Embedding& e) {
  if (static_cast<int>(e.node_map.size()) != vn.num_nodes()) return false;
  if (static_cast<int>(e.link_paths.size()) != vn.num_links()) return false;
  for (int i = 0; i < vn.num_nodes(); ++i) {
    const NodeId v = e.node_map[i];
    if (v < 0 || v >= s.num_nodes()) return false;
    if (!placement_allowed(s, vn, i, v)) return false;
  }
  for (int l = 0; l < vn.num_links(); ++l) {
    const VirtualLink& vl = vn.vlink(l);
    NodeId at = e.node_map[vl.parent];
    const NodeId dst = e.node_map[vl.child];
    for (const LinkId sl : e.link_paths[l]) {
      if (sl < 0 || sl >= s.num_links()) return false;
      const SubstrateLink& edge = s.link(sl);
      if (edge.a == at) {
        at = edge.b;
      } else if (edge.b == at) {
        at = edge.a;
      } else {
        return false;  // path not contiguous
      }
    }
    if (at != dst) return false;
  }
  return true;
}

}  // namespace olive::net
