#include "core/embedder.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <deque>
#include <functional>
#include <limits>

#include "util/error.hpp"

namespace olive::core {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}

EffectiveCosts EffectiveCosts::plain(const net::SubstrateNetwork& s) {
  EffectiveCosts c;
  c.node_cost.resize(s.num_nodes());
  for (net::NodeId v = 0; v < s.num_nodes(); ++v)
    c.node_cost[v] = s.node(v).cost;
  c.link_weight = net::link_cost_weights(s);
  return c;
}

namespace {

// dp[i][v] = min cost of embedding the subtree rooted at virtual node i with
// i placed on substrate node v.  choice[j][v] = best host of child j given
// its parent at v.  The tables are independent of the ingress: only the
// reconstruction pins the root.  Templated over two inputs:
//  * `paths_of(l)`, the shortest-path provider virtual link l routes on
//    (eager AllPairsShortestPaths or memoized LazyShortestPaths — both
//    answer tree(v)/path(a, b) with identical values);
//  * `fits(i, v)`, whether substrate node v may host virtual node i at all
//    (beyond η, which always applies).
template <class PathsOf, class Fits>
void run_tree_dp(const net::SubstrateNetwork& s, const net::VirtualNetwork& vn,
                 const EffectiveCosts& costs, const PathsOf& paths_of,
                 const Fits& fits, std::vector<std::vector<double>>& dp,
                 std::vector<std::vector<net::NodeId>>& choice) {
  const int n_sub = s.num_nodes();
  const int n_virt = vn.num_nodes();
  dp.assign(n_virt, std::vector<double>(n_sub, 0.0));
  choice.assign(n_virt, std::vector<net::NodeId>(n_sub, -1));

  // Hosts with finite subtree cost for one child, in ascending order (the
  // scan order fixes tie-breaking, so it must match the plain loop's).
  std::vector<net::NodeId> finite_hosts;
  std::vector<double> finite_costs;

  const auto& order = vn.preorder();
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const int i = *it;
    // Node i's own placement cost first (ruling out forbidden hosts before
    // any shortest-path tree is requested keeps the lazy provider lazy).
    for (net::NodeId v = 0; v < n_sub; ++v) {
      const double coeff = net::eta(s, vn, i, v);
      dp[i][v] = std::isfinite(coeff) && fits(i, v)
                     ? vn.vnode(i).size * coeff * costs.node_cost[v]
                     : kInf;
    }
    for (const int j : vn.children(i)) {
      finite_hosts.clear();
      finite_costs.clear();
      for (net::NodeId w = 0; w < n_sub; ++w) {
        if (dp[j][w] == kInf) continue;
        finite_hosts.push_back(w);
        finite_costs.push_back(dp[j][w]);
      }
      const int link = vn.parent_link(j);
      const auto& paths = paths_of(link);
      const double beta_link = vn.vlink(link).size;
      for (net::NodeId v = 0; v < n_sub; ++v) {
        if (dp[i][v] == kInf) continue;  // placement already ruled out
        double best = kInf;
        net::NodeId best_w = -1;
        if (!finite_hosts.empty()) {
          const auto& tv = paths.tree(v);
          for (std::size_t k = 0; k < finite_hosts.size(); ++k) {
            const double d = tv.dist[finite_hosts[k]];
            if (d == kInf) continue;
            const double c = beta_link * d + finite_costs[k];
            if (c < best) {
              best = c;
              best_w = finite_hosts[k];
            }
          }
        }
        if (best == kInf) {
          dp[i][v] = kInf;
          continue;
        }
        // Record the child's best host for every possible parent location;
        // only the final root-down pass commits to one.
        choice[j][v] = best_w;
        dp[i][v] += best;
      }
    }
  }
}

template <class PathsOf>
std::optional<net::Embedding> reconstruct_tree_embedding(
    const net::SubstrateNetwork& s, const net::VirtualNetwork& vn,
    net::NodeId ingress, const PathsOf& paths_of,
    const std::vector<std::vector<double>>& dp,
    const std::vector<std::vector<net::NodeId>>& choice) {
  OLIVE_REQUIRE(ingress >= 0 && ingress < s.num_nodes(), "ingress out of range");
  if (dp[0][ingress] == kInf) return std::nullopt;
  // η(θ, ·) must allow the ingress: the root DP folds it in already.
  net::Embedding e;
  e.node_map.assign(vn.num_nodes(), -1);
  e.link_paths.assign(vn.num_links(), {});
  e.node_map[0] = ingress;
  for (const int i : vn.preorder()) {
    if (i == 0) continue;
    const int p = vn.parent(i);
    const net::NodeId pv = e.node_map[p];
    OLIVE_ASSERT(pv >= 0);
    const net::NodeId w = choice[i][pv];
    OLIVE_ASSERT(w >= 0);
    e.node_map[i] = w;
    const int link = vn.parent_link(i);
    if (w != pv) e.link_paths[link] = paths_of(link).path(pv, w);
  }
  return e;
}

// The uncapacitated DP: every virtual link routes on `paths`, and η alone
// restricts placements.
template <class Paths>
auto all_links_on(const Paths& paths) {
  return [&paths](int) -> const Paths& { return paths; };
}
constexpr auto kAnyHost = [](int, net::NodeId) { return true; };

}  // namespace

std::optional<net::Embedding> min_cost_tree_embedding(
    const net::SubstrateNetwork& s, const net::VirtualNetwork& vn,
    net::NodeId ingress, const EffectiveCosts& costs,
    const net::AllPairsShortestPaths& apsp) {
  std::vector<std::vector<double>> dp;
  std::vector<std::vector<net::NodeId>> choice;
  run_tree_dp(s, vn, costs, all_links_on(apsp), kAnyHost, dp, choice);
  return reconstruct_tree_embedding(s, vn, ingress, all_links_on(apsp), dp,
                                    choice);
}

std::optional<net::Embedding> min_cost_tree_embedding(
    const net::SubstrateNetwork& s, const net::VirtualNetwork& vn,
    net::NodeId ingress, const EffectiveCosts& costs,
    const net::LazyShortestPaths& paths) {
  std::vector<std::vector<double>> dp;
  std::vector<std::vector<net::NodeId>> choice;
  run_tree_dp(s, vn, costs, all_links_on(paths), kAnyHost, dp, choice);
  return reconstruct_tree_embedding(s, vn, ingress, all_links_on(paths), dp,
                                    choice);
}

MinCostTreeDP::MinCostTreeDP(const net::SubstrateNetwork& s,
                             const net::VirtualNetwork& vn,
                             const EffectiveCosts& costs,
                             const net::LazyShortestPaths& paths)
    : s_(&s), vn_(&vn), paths_(&paths) {
  run_tree_dp(s, vn, costs, all_links_on(paths), kAnyHost, dp_, choice_);
}

std::optional<net::Embedding> MinCostTreeDP::embed(net::NodeId ingress) const {
  return reconstruct_tree_embedding(*s_, *vn_, ingress, all_links_on(*paths_),
                                    dp_, choice_);
}

std::optional<net::Embedding> capacitated_min_cost_tree_embedding(
    const net::SubstrateNetwork& s, const net::VirtualNetwork& vn,
    net::NodeId ingress, double demand, const LoadTracker& load) {
  OLIVE_REQUIRE(demand > 0, "demand must be positive");
  // Each virtual link routes on the substrate links that individually fit
  // its load: saturated links get +inf weight, which Dijkstra never relaxes
  // over.  Links of one size share one filter, so one provider per size.
  const auto plain = EffectiveCosts::plain(s);
  std::vector<double> sizes;
  std::deque<net::LazyShortestPaths> filtered;  // one per entry of `sizes`
  std::vector<const net::LazyShortestPaths*> paths_of_link(vn.num_links());
  for (int l = 0; l < vn.num_links(); ++l) {
    const double size = vn.vlink(l).size;
    const std::size_t k =
        std::find(sizes.begin(), sizes.end(), size) - sizes.begin();
    if (k == sizes.size()) {
      std::vector<double> w = plain.link_weight;
      for (net::LinkId sl = 0; sl < s.num_links(); ++sl)
        if (load.residual(s.link_element(sl)) < size * demand - 1e-9)
          w[sl] = kInf;
      sizes.push_back(size);
      filtered.emplace_back(s, std::move(w));
    }
    paths_of_link[l] = &filtered[k];
  }
  const auto paths_of = [&](int l) -> const net::LazyShortestPaths& {
    return *paths_of_link[l];
  };
  // Each VNF's host must fit that VNF alone; θ is pinned to the ingress.
  const auto fits = [&](int i, net::NodeId v) {
    return i == 0 || !(load.residual(s.node_element(v)) <
                       vn.vnode(i).size * demand - 1e-9);
  };

  std::vector<std::vector<double>> dp;
  std::vector<std::vector<net::NodeId>> choice;
  run_tree_dp(s, vn, plain, paths_of, fits, dp, choice);
  return reconstruct_tree_embedding(s, vn, ingress, paths_of, dp, choice);
}

std::optional<net::Embedding> greedy_collocated_embedding(
    const net::SubstrateNetwork& s, const net::VirtualNetwork& vn,
    net::NodeId ingress, double demand, const LoadTracker& load) {
  OLIVE_REQUIRE(demand > 0, "demand must be positive");
  // All VNFs share one host: total node usage and the set of virtual links
  // that ride the ingress->host path (exactly those adjacent to θ).
  double node_size = 0;
  for (int i = 1; i < vn.num_nodes(); ++i) node_size += vn.vnode(i).size;
  double path_size = 0;
  for (const int j : vn.children(0))
    path_size += vn.vlink(vn.parent_link(j)).size;

  // A GPU/non-GPU VNF mix cannot collocate on any node.
  const auto host_allowed = [&](net::NodeId v) {
    for (int i = 1; i < vn.num_nodes(); ++i)
      if (!net::placement_allowed(s, vn, i, v)) return false;
    return true;
  };

  // One Dijkstra from the ingress over links with enough residual capacity
  // for the θ-adjacent virtual links.
  const auto tree = net::dijkstra(
      s, ingress, net::link_cost_weights(s), [&](net::LinkId l) {
        return load.residual(s.link_element(l)) >= path_size * demand - 1e-9;
      });

  double best_cost = kInf;
  net::NodeId best = -1;
  for (net::NodeId v = 0; v < s.num_nodes(); ++v) {
    if (!tree.reachable(v)) continue;
    if (!host_allowed(v)) continue;
    if (load.residual(s.node_element(v)) < node_size * demand - 1e-9) continue;
    const double cost =
        node_size * s.node(v).cost + path_size * tree.dist[v];
    if (cost < best_cost) {
      best_cost = cost;
      best = v;
    }
  }
  if (best < 0) return std::nullopt;

  net::Embedding e;
  e.node_map.assign(vn.num_nodes(), best);
  e.node_map[0] = ingress;
  e.link_paths.assign(vn.num_links(), {});
  if (best != ingress) {
    const auto path = tree.path_to(best);
    for (const int j : vn.children(0)) e.link_paths[vn.parent_link(j)] = path;
  }
  return e;
}

namespace {

// Per-thread Dijkstra state of CollocatedSearch::embed (speculation runs
// the search on pool threads).  dist/prev/via of node v are live only when
// stamp[v] equals the current generation, so a search starts in O(1)
// rather than O(nodes).
struct SearchScratch {
  std::vector<std::uint32_t> stamp;
  std::vector<double> dist;
  std::vector<net::NodeId> prev;
  std::vector<net::LinkId> via;
  std::vector<std::pair<double, net::NodeId>> heap;
  std::uint32_t gen = 0;

  void begin(int n) {
    if (static_cast<int>(stamp.size()) < n) {
      stamp.resize(n, 0);
      dist.resize(n);
      prev.resize(n);
      via.resize(n);
    }
    if (++gen == 0) {  // wrapped: an old stamp could match again
      std::fill(stamp.begin(), stamp.end(), 0);
      gen = 1;
    }
    heap.clear();
  }
};

thread_local SearchScratch search_scratch;

}  // namespace

CollocatedSearch::CollocatedSearch(const net::SubstrateNetwork& s,
                                   const std::vector<net::Application>& apps)
    : s_(&s), link_weight_(net::link_cost_weights(s)) {
  for (const double w : link_weight_)
    OLIVE_REQUIRE(std::isfinite(w) && w >= 0,
                  "link costs must be finite and non-negative");
  node_cost_.resize(s.num_nodes());
  for (net::NodeId v = 0; v < s.num_nodes(); ++v) node_cost_[v] = s.node(v).cost;
  apps_.reserve(apps.size());
  for (const net::Application& app : apps) {
    const net::VirtualNetwork& vn = app.topology;
    AppTable t;
    // The same sums, in the same order, as greedy_collocated_embedding.
    for (int i = 1; i < vn.num_nodes(); ++i) t.node_size += vn.vnode(i).size;
    for (const int j : vn.children(0)) {
      t.path_size += vn.vlink(vn.parent_link(j)).size;
      t.root_links.push_back(vn.parent_link(j));
    }
    t.num_vnodes = vn.num_nodes();
    t.num_vlinks = vn.num_links();
    t.allowed.assign(s.num_nodes(), 0);
    for (net::NodeId v = 0; v < s.num_nodes(); ++v) {
      bool allowed = true;
      for (int i = 1; i < vn.num_nodes() && allowed; ++i)
        allowed = net::placement_allowed(s, vn, i, v);
      if (!allowed) continue;
      t.hosts.push_back(v);
      t.allowed[v] = 1;
    }
    std::sort(t.hosts.begin(), t.hosts.end(),
              [&](net::NodeId x, net::NodeId y) {
                if (node_cost_[x] != node_cost_[y])
                  return node_cost_[x] < node_cost_[y];
                return x < y;
              });
    apps_.push_back(std::move(t));
  }
}

std::optional<net::Embedding> CollocatedSearch::embed(
    int app, net::NodeId ingress, double demand,
    const LoadTracker& load) const {
  OLIVE_REQUIRE(demand > 0, "demand must be positive");
  OLIVE_REQUIRE(ingress >= 0 && ingress < s_->num_nodes(),
                "source out of range");
  const AppTable& a = apps_.at(app);
  const std::vector<double>& residual = load.residuals();

  // Early reject: the literal's host test, before any Dijkstra.  The
  // hosts are in ascending cost order, so the first one that passes also
  // gives the least cost of any feasible host.
  const double node_need = a.node_size * demand - 1e-9;
  const auto feasible = [&](net::NodeId v) {
    return !(residual[s_->node_element(v)] < node_need);
  };
  const auto cheapest =
      std::find_if(a.hosts.begin(), a.hosts.end(), feasible);
  if (cheapest == a.hosts.end()) return std::nullopt;
  const double min_cost = node_cost_[*cheapest];

  // The literal's Dijkstra, popped in the same (dist, id) order.  Each
  // feasible host is evaluated as it settles, keeping the (cost, id)-least
  // one: the host the literal's ascending scan with a strict < picks.  The
  // search stops once no unsettled node can beat or tie that host: every
  // one has dist >= the heap top, and rounding is monotone.
  const double link_need = a.path_size * demand - 1e-9;
  SearchScratch& sc = search_scratch;
  sc.begin(s_->num_nodes());
  auto& heap = sc.heap;
  sc.stamp[ingress] = sc.gen;
  sc.dist[ingress] = 0;
  heap.emplace_back(0.0, ingress);
  double best_cost = kInf;
  net::NodeId best = -1;
  while (!heap.empty()) {
    if (best >= 0 &&
        a.node_size * min_cost + a.path_size * heap.front().first > best_cost)
      break;
    std::pop_heap(heap.begin(), heap.end(), std::greater<>{});
    const auto [d, v] = heap.back();
    heap.pop_back();
    if (d > sc.dist[v]) continue;  // stale entry
    if (a.allowed[v] && feasible(v)) {
      const double cost = a.node_size * node_cost_[v] + a.path_size * d;
      if (cost < best_cost || (cost == best_cost && v < best)) {
        best_cost = cost;
        best = v;
      }
    }
    for (const auto& [nbr, l] : s_->adjacency(v)) {
      if (!(residual[s_->link_element(l)] >= link_need)) continue;
      const double nd = d + link_weight_[l];
      if (nd < (sc.stamp[nbr] == sc.gen ? sc.dist[nbr] : kInf)) {
        sc.stamp[nbr] = sc.gen;
        sc.dist[nbr] = nd;
        sc.prev[nbr] = v;
        sc.via[nbr] = l;
        heap.emplace_back(nd, nbr);
        std::push_heap(heap.begin(), heap.end(), std::greater<>{});
      }
    }
  }
  if (best < 0) return std::nullopt;

  net::Embedding e;
  e.node_map.assign(a.num_vnodes, best);
  e.node_map[0] = ingress;
  e.link_paths.assign(a.num_vlinks, {});
  if (best != ingress && !a.root_links.empty()) {
    std::size_t hops = 0;
    for (net::NodeId at = best; at != ingress; at = sc.prev[at]) ++hops;
    std::vector<net::LinkId> path(hops);
    for (net::NodeId at = best; at != ingress; at = sc.prev[at])
      path[--hops] = sc.via[at];
    for (std::size_t i = 0; i + 1 < a.root_links.size(); ++i)
      e.link_paths[a.root_links[i]] = path;
    e.link_paths[a.root_links.back()] = std::move(path);
  }
  return e;
}

bool CollocatedSearch::still_fits(int app, const net::Embedding& e,
                                  double demand,
                                  const LoadTracker& load) const {
  const AppTable& a = apps_.at(app);
  if (a.num_vnodes < 2) return false;  // no VNF: `e` does not name the host
  if (load.residual(s_->node_element(e.node_map[1])) <
      a.node_size * demand - 1e-9)
    return false;
  if (a.root_links.empty()) return true;
  const double link_need = a.path_size * demand - 1e-9;
  for (const net::LinkId l : e.link_paths[a.root_links.front()])
    if (!(load.residual(s_->link_element(l)) >= link_need)) return false;
  return true;
}

}  // namespace olive::core
