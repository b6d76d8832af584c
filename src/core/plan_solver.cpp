#include "core/plan_solver.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <unordered_map>
#include <unordered_set>

#include "core/embedder.hpp"
#include "lp/model.hpp"
#include "net/paths.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace olive::core {

namespace {

/// Classes that share an application, in first-encounter class order.  The
/// ingress-independent tree-DP is the expensive part of pricing, so the
/// parallel grain is one application (its DP plus every embed/reduced-cost
/// evaluation of its classes), not one class.
struct AppGroup {
  int app = -1;
  std::vector<int> classes;
};

std::vector<AppGroup> group_by_app(
    const std::vector<AggregateRequest>& aggregates,
    const std::function<bool(int)>& include_class) {
  std::vector<AppGroup> groups;
  std::unordered_map<int, int> slot;
  for (int c = 0; c < static_cast<int>(aggregates.size()); ++c) {
    if (!include_class(c)) continue;
    const auto [it, inserted] =
        slot.try_emplace(aggregates[c].app, static_cast<int>(groups.size()));
    if (inserted) groups.push_back({aggregates[c].app, {}});
    groups[it->second].classes.push_back(c);
  }
  return groups;
}

/// One class's pricing result for a round (or the initial min-cost pass).
/// Everything here is a pure function of (substrate, app topology, costs,
/// ingress), computed independently per class — the scheduling of the tasks
/// that fill these slots cannot change their contents.
struct PricedClass {
  bool feasible = false;
  net::Embedding embedding;
  Usage usage;
  double unit_cost = 0;
  double unit_eff = 0;  ///< Σ usage·effective cost (rounds only)
  std::uint64_t fingerprint = 0;
};

/// One splitmix64 step over a value (the util helper advances a stream
/// state; here each input is its own one-shot state).
std::uint64_t smix64(std::uint64_t x) noexcept { return splitmix64(x); }

/// 64-bit key for the warm-start/tie-break maps.  Keys must be stable
/// across solves and distinct across key spaces; the tag argument separates
/// capacity rows, convexity rows, quantile columns, and embedding columns.
/// Chaining the bijective splitmix64 finalizer between the inputs leaves
/// only genuine 64-bit birthday collisions (a weaker additive combiner
/// produced real clashes between (class, p) and (class+1, p-4) quantile
/// keys on the 512-class fat-tree masters).
std::uint64_t mix64(std::uint64_t tag, std::uint64_t a,
                    std::uint64_t b = 0) noexcept {
  return smix64(smix64(smix64(tag) ^ a) ^ b);
}

constexpr std::uint64_t kCapacityRowTag = 1;
constexpr std::uint64_t kConvexityRowTag = 2;
constexpr std::uint64_t kQuantileColTag = 3;
constexpr std::uint64_t kEmbeddingColTag = 4;

}  // namespace

double default_psi(const net::SubstrateNetwork& s,
                   const net::VirtualNetwork& app) {
  double max_node_cost = 0, max_link_cost = 0;
  for (net::NodeId v = 0; v < s.num_nodes(); ++v)
    max_node_cost = std::max(max_node_cost, s.node(v).cost);
  for (net::LinkId l = 0; l < s.num_links(); ++l)
    max_link_cost = std::max(max_link_cost, s.link(l).cost);
  return app.total_node_size() * max_node_cost +
         app.total_link_size() * max_link_cost;
}

Plan solve_plan_vne(const net::SubstrateNetwork& s,
                    const std::vector<net::Application>& apps,
                    const std::vector<AggregateRequest>& aggregates,
                    const PlanVneConfig& config, PlanSolveInfo* info,
                    PlanColumnCache* cache, PlanWarmStart* warm) {
  OLIVE_REQUIRE(config.quantiles >= 1, "need at least one quantile");
  for (int e = 0; e < s.element_count(); ++e)
    OLIVE_REQUIRE(s.element_capacity(e) > 0,
                  "every substrate element needs positive capacity");
  OLIVE_REQUIRE(config.capacities.empty() ||
                    static_cast<int>(config.capacities.size()) ==
                        s.element_count(),
                "capacity overlay must cover every substrate element");
  if (aggregates.empty()) {
    if (info) *info = {};
    return Plan::empty();
  }

  const int n_classes = static_cast<int>(aggregates.size());
  const int n_elems = s.element_count();
  const int P = config.quantiles;

  // Capacity overlay (docs/failures.md): rhs fractions and the dead-element
  // set.  `overlay` empty keeps every code path arithmetically identical to
  // the nominal solver (rhs is the literal 1.0, no candidate filtering).
  const bool overlay = !config.capacities.empty();
  constexpr double kDeadCost = 1e30;  // finite: sums/compares stay ordered
  std::vector<char> dead;
  if (overlay) {
    dead.resize(n_elems, 0);
    for (int e = 0; e < n_elems; ++e)
      dead[e] = config.capacities[e] <= 0 ? 1 : 0;
  }
  const auto touches_dead = [&](const Usage& usage) {
    if (!overlay) return false;
    for (const auto& [elem, amount] : usage)
      if (dead[elem] && amount > 0) return true;
    return false;
  };

  // Per-class ψ (fixed per application as in the paper).
  std::vector<double> psi(n_classes);
  for (int c = 0; c < n_classes; ++c) {
    const auto& agg = aggregates[c];
    OLIVE_REQUIRE(agg.app >= 0 && agg.app < static_cast<int>(apps.size()),
                  "aggregate app out of range");
    OLIVE_REQUIRE(agg.demand > 0, "aggregate demand must be positive");
    psi[c] = (config.psi >= 0 ? config.psi
                              : default_psi(s, apps[agg.app].topology)) *
             config.psi_scale;
  }

  // Pricing parallelism.  Tasks are one-per-application (DP build + every
  // embed of that app's classes) and write into per-class slots; every
  // ordering-sensitive step — dedup, reduced-cost filtering, column
  // insertion into the master — happens afterwards on this thread in fixed
  // class order.  That makes the solve bit-identical at any thread count;
  // `threads == 1` never touches the pool (parallel_for degenerates to a
  // plain inline loop).
  const int threads =
      std::max(1, config.threads > 0 ? config.threads : default_thread_count());
  ThreadPool& pool = ThreadPool::global();
  if (threads > 1) pool.ensure_workers(threads - 1);

  std::vector<PricedClass> priced(n_classes);
  // Prices every group's classes against read-only `costs`/`paths`
  // snapshots.  When `eff` is non-null also accumulates the dual-adjusted
  // unit cost (the reduced-cost numerator) inside the task.
  const auto price_groups = [&](const std::vector<AppGroup>& groups,
                                const EffectiveCosts& costs,
                                const net::LazyShortestPaths& paths,
                                bool with_eff) {
    pool.parallel_for(
        static_cast<int>(groups.size()),
        [&](int gi) {
          const AppGroup& g = groups[gi];
          const net::VirtualNetwork& topo = apps[g.app].topology;
          const MinCostTreeDP dp(s, topo, costs, paths);
          for (const int c : g.classes) {
            PricedClass& pr = priced[c];
            pr.feasible = false;
            auto emb = dp.embed(aggregates[c].ingress);
            if (!emb) continue;
            pr.usage = net::unit_usage(s, topo, *emb);
            pr.unit_cost = net::usage_cost(s, pr.usage);
            pr.fingerprint = net::fingerprint64(*emb);
            if (with_eff) {
              double unit_eff = 0;
              for (const auto& [elem, amount] : pr.usage) {
                const double element_eff =
                    s.element_is_node(elem)
                        ? costs.node_cost[elem]
                        : costs.link_weight[elem - s.num_nodes()];
                unit_eff += amount * element_eff;
              }
              pr.unit_eff = unit_eff;
            }
            pr.embedding = std::move(*emb);
            pr.feasible = true;
          }
        },
        threads);
  };

  // Initial columns: the min-cost embedding under plain element costs.  The
  // tree-DP tables are ingress-independent, so one DP per application serves
  // every class of that application; shortest-path trees are computed
  // lazily, only for the sources the DPs actually query.
  EffectiveCosts plain = EffectiveCosts::plain(s);
  if (overlay) {
    // Dead elements price at the sentinel so the min-cost DP routes around
    // them whenever a live alternative exists; embeddings that still touch
    // one are filtered below.
    for (net::NodeId v = 0; v < s.num_nodes(); ++v)
      if (dead[s.node_element(v)]) plain.node_cost[v] = kDeadCost;
    for (net::LinkId l = 0; l < s.num_links(); ++l)
      if (dead[s.link_element(l)]) plain.link_weight[l] = kDeadCost;
  }
  const net::LazyShortestPaths plain_paths(s, plain.link_weight);
  struct Candidate {
    net::Embedding embedding;
    Usage usage;
    double unit_cost;
    std::uint64_t fingerprint = 0;
    int model_col = -1;
  };
  std::vector<std::vector<Candidate>> cand(n_classes);
  std::vector<std::unordered_set<std::uint64_t>> seen(n_classes);
  double max_obj_coeff = 1.0;
  const std::vector<AppGroup> all_groups =
      group_by_app(aggregates, [](int) { return true; });
  price_groups(all_groups, plain, plain_paths, /*with_eff=*/false);
  for (int c = 0; c < n_classes; ++c) {
    const auto& agg = aggregates[c];
    if (!priced[c].feasible)
      continue;  // no feasible placement anywhere: rejection-only
    if (touches_dead(priced[c].usage))
      continue;  // every placement needs a down element: rejection-only now
    Candidate cd;
    cd.usage = std::move(priced[c].usage);
    cd.unit_cost = priced[c].unit_cost;
    cd.embedding = std::move(priced[c].embedding);
    cd.fingerprint = priced[c].fingerprint;
    seen[c].insert(cd.fingerprint);
    max_obj_coeff = std::max(max_obj_coeff, agg.demand * cd.unit_cost);
    max_obj_coeff = std::max(max_obj_coeff, agg.demand * psi[c] * P);
    cand[c].push_back(std::move(cd));
    // Seed the pool with previously generated columns for this class.
    if (cache) {
      for (const auto& cc : cache->bucket(agg.app, agg.ingress).columns) {
        if (touches_dead(cc.usage)) continue;
        if (!seen[c].insert(cc.fingerprint).second) continue;
        Candidate warm;
        warm.embedding = cc.embedding;
        warm.usage = cc.usage;
        warm.unit_cost = cc.unit_cost;
        warm.fingerprint = cc.fingerprint;
        max_obj_coeff = std::max(max_obj_coeff, agg.demand * warm.unit_cost);
        cand[c].push_back(std::move(warm));
      }
    }
  }
  // Objective scaling keeps simplex tolerances meaningful (coefficients span
  // ~1e8 in natural units for the large topologies).
  const double obj_scale = 1.0 / max_obj_coeff;

  // Master LP: capacity rows (scaled to <= 1), then one convexity row per
  // class.  The quantile variables are substituted w_{c,p} = 1/P − y_{c,p}
  // ("accepted share of quantile p"), which turns Eq. 13 into
  //   Σ_k f_{c,k} − Σ_p w_{c,p} = 0.
  // With rhs 0 the initial slack basis is primal feasible, so the simplex
  // never needs phase-1 artificials — this matters for SLOTOFF, which
  // re-solves this master every time slot.  The substitution adds the
  // constant Σ_c ψ_c·d_c·(P+1)/2 to the objective, restored after solving.
  lp::Model master;
  // Warm-start/tie-break keys, aligned with the master's rows and columns.
  // They are pure functions of substrate element, class identity, and
  // embedding fingerprint, so consecutive solves (different masters!) can
  // exchange bases through them.
  std::vector<std::uint64_t> row_keys, col_keys;
  row_keys.reserve(static_cast<std::size_t>(n_elems) + n_classes);
  for (int e = 0; e < n_elems; ++e) {
    // Eq. 15 rhs, scaled by the nominal capacity: 1.0 nominally, the live
    // fraction under a capacity overlay (0 for a down element, so no column
    // using it can take a positive share).
    const double rhs =
        overlay ? std::max(0.0, config.capacities[e]) / s.element_capacity(e)
                : 1.0;
    master.add_row(lp::Sense::LE, rhs);
    row_keys.push_back(mix64(kCapacityRowTag, static_cast<std::uint64_t>(e)));
  }
  std::vector<int> convexity_row(n_classes);
  std::vector<std::uint64_t> class_id(n_classes);
  for (int c = 0; c < n_classes; ++c) {
    convexity_row[c] = master.add_row(lp::Sense::EQ, 0.0);
    class_id[c] = static_cast<std::uint64_t>(
        class_key(aggregates[c].app, aggregates[c].ingress));
    row_keys.push_back(mix64(kConvexityRowTag, class_id[c]));
  }

  double objective_constant = 0;  // scaled units
  std::vector<std::vector<int>> quantile_col(n_classes, std::vector<int>(P));
  for (int c = 0; c < n_classes; ++c) {
    objective_constant +=
        obj_scale * psi[c] * aggregates[c].demand * (P + 1) / 2.0;
    for (int p = 1; p <= P; ++p) {
      const double cost = -obj_scale * psi[c] * aggregates[c].demand * p;
      const int col = master.add_col(0.0, 1.0 / P, cost);
      master.add_entry(convexity_row[c], col, -1.0);
      quantile_col[c][p - 1] = col;
      const std::uint64_t key =
          mix64(kQuantileColTag, class_id[c], static_cast<std::uint64_t>(p));
      master.set_col_fingerprint(col, key);
      col_keys.push_back(key);
    }
  }

  auto column_entries = [&](int c, const Usage& usage) {
    lp::SparseColumn entries;
    entries.reserve(usage.size() + 1);
    for (const auto& [elem, amount] : usage)
      entries.emplace_back(elem, aggregates[c].demand * amount /
                                     s.element_capacity(elem));
    entries.emplace_back(convexity_row[c], 1.0);
    return entries;
  };

  for (int c = 0; c < n_classes; ++c) {
    for (auto& cd : cand[c]) {
      cd.model_col = master.add_col_with_entries(
          0.0, 1.0, obj_scale * aggregates[c].demand * cd.unit_cost,
          column_entries(c, cd.usage));
      const std::uint64_t key =
          mix64(kEmbeddingColTag, class_id[c], cd.fingerprint);
      master.set_col_fingerprint(cd.model_col, key);
      col_keys.push_back(key);
    }
  }

  PlanSolveInfo local_info;
  local_info.pricing_threads = threads;

  // Tall-master pricing switch: Dantzig's pivot counts blow up with the row
  // count, steepest edge's stay near-flat (docs/lp.md).  The threshold sits
  // above every pinned small-topology master so their goldens are untouched.
  lp::SimplexOptions lp_opts = config.lp;
  if (config.steepest_edge_rows > 0 &&
      n_elems + n_classes >= config.steepest_edge_rows)
    lp_opts.pricing = lp::PricingRule::SteepestEdge;
  lp::Simplex solver(master, lp_opts);
  // Basis continuity: start from the previous solve's optimal basis when
  // one was carried in and still fits (surviving rows/columns matched by
  // key; misses fall back to the all-slack cold start).
  bool warm_hit = false;
  if (warm != nullptr && !warm->empty()) {
    local_info.warm_start_attempted = true;
    warm_hit = solver.try_warm_start(warm->basis, row_keys, col_keys);
  }
  local_info.warm_start_hit = warm_hit;
  // All-reject is feasible, so the master can only end Optimal — or
  // GoodEnough when a bounded portfolio-loser solve asked for early
  // termination (lp_opts.early_term_gap > 0); either way the extracted
  // solution and duals are exact for the final primal-feasible basis.
  const auto acceptable = [&](lp::Status st) {
    return st == lp::Status::Optimal ||
           (lp_opts.early_term_gap > 0 && st == lp::Status::GoodEnough);
  };
  lp::SolveResult res = warm_hit ? solver.resolve() : solver.solve();
  OLIVE_ASSERT(acceptable(res.status));
  local_info.simplex_iterations += res.iterations;
  // Classes with no feasible placement never price (their candidate pools
  // are empty for good), so the per-round grouping is fixed up front.
  const std::vector<AppGroup> active_groups =
      group_by_app(aggregates, [&](int c) { return !cand[c].empty(); });
  int round = 0;
  for (; round < config.max_rounds; ++round) {
    // Dual-adjusted effective element costs (π <= 0 on capacity rows, so
    // effective costs only grow; clamp tiny positive dual noise).
    EffectiveCosts eff;
    eff.node_cost.resize(s.num_nodes());
    eff.link_weight.resize(s.num_links());
    // A down element's capacity row has rhs 0 but may sit degenerate with a
    // zero dual, so the dual adjustment alone cannot repel pricing from it —
    // the sentinel does (mirrors the initial plain-cost pass).
    for (net::NodeId v = 0; v < s.num_nodes(); ++v) {
      const int e = s.node_element(v);
      eff.node_cost[v] =
          overlay && dead[e]
              ? kDeadCost
              : std::max(0.0, obj_scale * s.node(v).cost -
                                  res.duals[e] / s.element_capacity(e));
    }
    for (net::LinkId l = 0; l < s.num_links(); ++l) {
      const int e = s.link_element(l);
      eff.link_weight[l] =
          overlay && dead[e]
              ? kDeadCost
              : std::max(0.0, obj_scale * s.link(l).cost -
                                  res.duals[e] / s.element_capacity(e));
    }
    // Lazy trees + one ingress-independent DP per application per round,
    // priced app-parallel against the read-only dual snapshot in `eff`.
    const net::LazyShortestPaths paths(s, eff.link_weight);
    price_groups(active_groups, eff, paths, /*with_eff=*/true);

    // Merge in fixed class order: the reduced-cost filter, the per-class
    // dedup, and — crucially — the order columns enter the master are all
    // independent of which worker priced what.
    int added = 0;
    for (int c = 0; c < n_classes; ++c) {
      if (cand[c].empty() || !priced[c].feasible) continue;
      const auto& agg = aggregates[c];
      // Reduced cost in scaled units: d_c·unitEffCost − μ_c.
      const double mu = res.duals[convexity_row[c]];
      const double rc = agg.demand * priced[c].unit_eff - mu;
      if (rc >= -config.reduced_cost_tol) continue;
      if (touches_dead(priced[c].usage)) continue;  // only dead routes left
      if (!seen[c].insert(priced[c].fingerprint).second) continue;  // dup

      Candidate cd;
      cd.usage = std::move(priced[c].usage);
      cd.unit_cost = priced[c].unit_cost;
      cd.embedding = std::move(priced[c].embedding);
      cd.fingerprint = priced[c].fingerprint;
      const std::uint64_t key =
          mix64(kEmbeddingColTag, class_id[c], cd.fingerprint);
      cd.model_col = solver.add_column(
          0.0, 1.0, obj_scale * agg.demand * cd.unit_cost,
          column_entries(c, cd.usage), key);
      col_keys.push_back(key);
      cand[c].push_back(std::move(cd));
      ++added;
    }
    if (added == 0) break;
    local_info.columns_generated += added;
    res = solver.resolve();
    local_info.simplex_iterations += res.iterations;
    OLIVE_ASSERT(acceptable(res.status));
    // A good-enough master is the signal to stop generating columns too:
    // further pricing against its (near-optimal) duals buys little.
    if (res.status == lp::Status::GoodEnough) {
      ++round;
      break;
    }
  }

  // Feed the columns back into the cache for future solves.  The bucket is
  // rebuilt most-recently-useful-first: the columns this optimum actually
  // uses (f > 0 — the basic columns) lead, then the bucket's previous
  // content, then this solve's unused columns, trimmed to the cap.  Keeping
  // the used columns is what lets the next solve's master contain the
  // carried warm-start basis; everything else is best-effort seeding.
  if (cache) {
    for (int c = 0; c < n_classes; ++c) {
      auto& bucket = cache->bucket(aggregates[c].app, aggregates[c].ingress);
      std::vector<PlanColumnCache::CachedColumn> rebuilt;
      std::unordered_set<std::uint64_t> kept;
      const auto keep = [&](PlanColumnCache::CachedColumn cc) {
        if (!kept.insert(cc.fingerprint).second) return;
        rebuilt.push_back(std::move(cc));
      };
      for (const auto& cd : cand[c])
        if (res.x[cd.model_col] > 1e-9)
          keep({cd.embedding, cd.usage, cd.unit_cost, cd.fingerprint});
      for (auto& cc : bucket.columns) {
        if (rebuilt.size() >= PlanColumnCache::kMaxPerBucket) break;
        keep(std::move(cc));
      }
      for (const auto& cd : cand[c]) {
        if (rebuilt.size() >= PlanColumnCache::kMaxPerBucket) break;
        keep({cd.embedding, cd.usage, cd.unit_cost, cd.fingerprint});
      }
      bucket.columns = std::move(rebuilt);
      bucket.fingerprints = std::move(kept);
    }
    // Age out least-recently-touched buckets beyond the global budget so
    // unbounded solve sequences (day-long re-plan loops, streamed scale_xl
    // runs) hold a flat cache footprint.
    cache->trim();
  }

  // Extract the plan.
  std::vector<PlanClass> classes;
  classes.reserve(aggregates.size());
  for (int c = 0; c < n_classes; ++c) {
    PlanClass pc;
    pc.aggregate = aggregates[c];
    pc.rejected_per_quantile.resize(P);
    for (int p = 0; p < P; ++p)  // undo the substitution: y = 1/P − w
      pc.rejected_per_quantile[p] =
          std::max(0.0, 1.0 / P - res.x[quantile_col[c][p]]);
    for (auto& cd : cand[c]) {
      const double f = res.x[cd.model_col];
      if (f <= 1e-9) continue;
      PlanColumn col;
      col.embedding = std::move(cd.embedding);
      col.usage = std::move(cd.usage);
      col.unit_cost = cd.unit_cost;
      col.fraction = f;
      col.planned_demand = f * aggregates[c].demand;
      pc.columns.push_back(std::move(col));
    }
    classes.push_back(std::move(pc));
  }

  // Hand the final optimal basis to the next solve in the sequence.
  if (warm != nullptr && res.status == lp::Status::Optimal)
    warm->basis = solver.save_warm_start(row_keys, col_keys);

  const lp::FactorStats factor_stats = solver.factor_stats();
  local_info.refactorizations = factor_stats.refactorizations;
  local_info.eta_length_max = factor_stats.eta_length_max;
  local_info.rounds = round;
  local_info.status = res.status;
  local_info.objective = (res.objective + objective_constant) / obj_scale;
  if (info) *info = local_info;
  return Plan(std::move(classes), local_info.objective);
}

}  // namespace olive::core
