#include "core/fullg.hpp"

#include <algorithm>

#include "core/embedder.hpp"
#include "lp/mip.hpp"
#include "lp/model.hpp"
#include "net/embedding.hpp"
#include "util/error.hpp"

namespace olive::core {

namespace {
// The ILP only runs when the exact DP fast path hits a joint-capacity
// collision.  Per-request embedding LPs are near-integral (root-optimal in
// the vast majority of cases), so a small node budget almost never binds;
// when it does, the best incumbent is used — FULLG is a reference baseline
// the paper itself calls impractical (~130x QUICKG's runtime).
constexpr long kMipMaxNodes = 12;
constexpr long kMipMaxPivots = 20000;
}  // namespace

FullGreedyEmbedder::FullGreedyEmbedder(const net::SubstrateNetwork& s,
                                       const std::vector<net::Application>& apps)
    : substrate_(s), apps_(apps), load_(s) {}

void FullGreedyEmbedder::reset() {
  load_.reset();
  active_.clear();
}

EmbedOutcome FullGreedyEmbedder::embed(const workload::Request& r) {
  OLIVE_REQUIRE(r.app >= 0 && r.app < static_cast<int>(apps_.size()),
                "request app out of range");
  const net::VirtualNetwork& vn = apps_[r.app].topology;

  // Fast exact path: the capacity-filtered tree-DP optimum lower-bounds all
  // feasible embeddings, so when it is itself jointly feasible it IS the
  // exact optimum and the ILP can be skipped.  The ILP only runs when
  // several virtual elements collide on one substrate element (rare for
  // small requests) — identical results, ~100x less time.
  if (auto dp = capacitated_min_cost_tree_embedding(substrate_, vn, r.ingress,
                                                    r.demand, load_)) {
    EmbedOutcome out;
    out.kind = OutcomeKind::Greedy;
    out.usage = net::unit_usage(substrate_, vn, *dp);
    out.unit_cost = net::usage_cost(substrate_, out.usage);
    out.embedding = *dp;
    if (load_.fits(out.usage, r.demand)) {
      load_.apply(out.usage, r.demand);
      active_.emplace(r.id, Active{out.usage, *dp, r.demand});
      return out;
    }
  } else {
    // The filter is a necessary condition: no individually-feasible
    // embedding exists, hence no jointly-feasible one either.
    return EmbedOutcome{};
  }

  const int n_sub = substrate_.num_nodes();
  const int n_links = substrate_.num_links();
  const double d = r.demand;

  lp::Model m;
  std::vector<int> int_cols;

  // Placement variables x_{i,v} (allowed placements with residual room).
  // col index lookup: x_col[i][v] or -1.
  std::vector<std::vector<int>> x_col(vn.num_nodes(),
                                      std::vector<int>(n_sub, -1));
  for (int i = 1; i < vn.num_nodes(); ++i) {
    bool any = false;
    for (net::NodeId v = 0; v < n_sub; ++v) {
      if (!net::placement_allowed(substrate_, vn, i, v)) continue;
      if (load_.residual(substrate_.node_element(v)) <
          vn.vnode(i).size * d - 1e-9)
        continue;  // cannot host this VNF alone; prune the variable
      x_col[i][v] = m.add_col(0, 1, d * vn.vnode(i).size * substrate_.node(v).cost);
      int_cols.push_back(x_col[i][v]);
      any = true;
    }
    if (!any) return EmbedOutcome{};  // some VNF has nowhere to go
  }

  // Flow variables y_{l,arc}: arcs 2l' = a->b, 2l'+1 = b->a.
  // y_col[l][arc].
  std::vector<std::vector<int>> y_col(vn.num_links(),
                                      std::vector<int>(2 * n_links, -1));
  for (int l = 0; l < vn.num_links(); ++l) {
    const double beta = vn.vlink(l).size;
    for (int lp_ = 0; lp_ < n_links; ++lp_) {
      if (load_.residual(substrate_.link_element(lp_)) < beta * d - 1e-9)
        continue;  // saturated link: prune both arcs
      const double cost = d * beta * substrate_.link(lp_).cost;
      y_col[l][2 * lp_] = m.add_col(0, 1, cost);
      y_col[l][2 * lp_ + 1] = m.add_col(0, 1, cost);
      int_cols.push_back(y_col[l][2 * lp_]);
      int_cols.push_back(y_col[l][2 * lp_ + 1]);
    }
  }

  // Placement rows: Σ_v x_{i,v} = 1.
  for (int i = 1; i < vn.num_nodes(); ++i) {
    const int row = m.add_row(lp::Sense::EQ, 1.0);
    for (net::NodeId v = 0; v < n_sub; ++v)
      if (x_col[i][v] >= 0) m.add_entry(row, x_col[i][v], 1.0);
  }

  // Flow conservation per virtual link and substrate node (Eq. 14):
  //   Σ_out y − Σ_in y − x_{parent,v} + x_{child,v} = 0,
  // with θ's placement a constant at the ingress.
  for (int l = 0; l < vn.num_links(); ++l) {
    const int parent = vn.vlink(l).parent;
    const int child = vn.vlink(l).child;
    for (net::NodeId v = 0; v < n_sub; ++v) {
      double rhs = 0;
      if (parent == 0) rhs = (v == r.ingress) ? -1.0 : 0.0;  // move constant
      const int row = m.add_row(lp::Sense::EQ, -rhs);
      // -rhs because the constant -x_{θ,v} moves to the right-hand side.
      for (const auto& [nbr, sl] : substrate_.adjacency(v)) {
        (void)nbr;
        const bool v_is_a = substrate_.link(sl).a == v;
        const int out_arc = v_is_a ? 2 * sl : 2 * sl + 1;
        const int in_arc = v_is_a ? 2 * sl + 1 : 2 * sl;
        if (y_col[l][out_arc] >= 0) m.add_entry(row, y_col[l][out_arc], 1.0);
        if (y_col[l][in_arc] >= 0) m.add_entry(row, y_col[l][in_arc], -1.0);
      }
      if (parent != 0 && x_col[parent][v] >= 0)
        m.add_entry(row, x_col[parent][v], -1.0);
      if (x_col[child][v] >= 0) m.add_entry(row, x_col[child][v], 1.0);
    }
  }

  // Capacity rows on residuals (Eq. 15 with Res(S,t,x)).
  for (net::NodeId v = 0; v < n_sub; ++v) {
    const int row =
        m.add_row(lp::Sense::LE, load_.residual(substrate_.node_element(v)));
    bool any = false;
    for (int i = 1; i < vn.num_nodes(); ++i) {
      if (x_col[i][v] >= 0) {
        m.add_entry(row, x_col[i][v], d * vn.vnode(i).size);
        any = true;
      }
    }
    (void)any;
  }
  for (int lp_ = 0; lp_ < n_links; ++lp_) {
    const int row =
        m.add_row(lp::Sense::LE, load_.residual(substrate_.link_element(lp_)));
    for (int l = 0; l < vn.num_links(); ++l) {
      const double beta = vn.vlink(l).size;
      if (y_col[l][2 * lp_] >= 0) m.add_entry(row, y_col[l][2 * lp_], d * beta);
      if (y_col[l][2 * lp_ + 1] >= 0)
        m.add_entry(row, y_col[l][2 * lp_ + 1], d * beta);
    }
  }

  lp::MipOptions mip;
  mip.max_nodes = kMipMaxNodes;
  mip.lp.max_iterations = kMipMaxPivots;
  auto res = lp::solve_mip(m, int_cols, mip);
  if (res.x.empty()) return EmbedOutcome{};  // infeasible or no incumbent

  // Extract the embedding.
  net::Embedding e;
  e.node_map.assign(vn.num_nodes(), -1);
  e.node_map[0] = r.ingress;
  for (int i = 1; i < vn.num_nodes(); ++i) {
    for (net::NodeId v = 0; v < n_sub; ++v) {
      if (x_col[i][v] >= 0 && res.x[x_col[i][v]] > 0.5) {
        e.node_map[i] = v;
        break;
      }
    }
    OLIVE_ASSERT(e.node_map[i] >= 0);
  }
  e.link_paths.assign(vn.num_links(), {});
  for (int l = 0; l < vn.num_links(); ++l) {
    net::NodeId at = e.node_map[vn.vlink(l).parent];
    const net::NodeId dst = e.node_map[vn.vlink(l).child];
    int guard = 0;
    while (at != dst) {
      OLIVE_ASSERT(++guard <= n_links + 1);  // no cycles in an optimal flow
      bool advanced = false;
      for (const auto& [nbr, sl] : substrate_.adjacency(at)) {
        const bool at_is_a = substrate_.link(sl).a == at;
        const int out_arc = at_is_a ? 2 * sl : 2 * sl + 1;
        if (y_col[l][out_arc] >= 0 && res.x[y_col[l][out_arc]] > 0.5) {
          // Consume the arc so parallel revisits don't loop.
          res.x[y_col[l][out_arc]] = 0;
          e.link_paths[l].push_back(sl);
          at = nbr;
          advanced = true;
          break;
        }
      }
      OLIVE_ASSERT(advanced);
    }
  }
  OLIVE_ASSERT(net::is_valid_embedding(substrate_, vn, e));

  EmbedOutcome out;
  out.kind = OutcomeKind::Greedy;
  out.usage = net::unit_usage(substrate_, vn, e);
  out.unit_cost = net::usage_cost(substrate_, out.usage);
  out.embedding = e;
  if (!load_.fits(out.usage, d)) return EmbedOutcome{};  // tolerance edge
  load_.apply(out.usage, d);
  active_.emplace(r.id, Active{out.usage, e, d});
  return out;
}

void FullGreedyEmbedder::depart(const workload::Request& r) {
  const auto it = active_.find(r.id);
  if (it == active_.end()) return;
  load_.release(it->second.usage, it->second.demand);
  active_.erase(it);
}

bool FullGreedyEmbedder::set_element_capacity(int element, double capacity) {
  load_.set_capacity(element, capacity);
  return true;
}

std::optional<EmbedOutcome> FullGreedyEmbedder::adopt(
    const workload::Request& r, const net::Embedding& e) {
  OLIVE_REQUIRE(!active_.contains(r.id), "adopt of a still-active request");
  const net::VirtualNetwork& vn = apps_[r.app].topology;
  EmbedOutcome out;
  out.kind = OutcomeKind::Greedy;
  out.usage = net::unit_usage(substrate_, vn, e);
  out.unit_cost = net::usage_cost(substrate_, out.usage);
  out.embedding = e;
  if (!load_.fits(out.usage, r.demand)) return std::nullopt;
  load_.apply(out.usage, r.demand);
  active_.emplace(r.id, Active{out.usage, e, r.demand});
  return out;
}

}  // namespace olive::core
