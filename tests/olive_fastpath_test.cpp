// Tests for OLIVE's admission fast path (docs/olive-fastpath.md): the
// grow-epoch greedy memo, the class residual max, the preempt reverse
// index, and speculative batched admission.  The contract under test is
// bit-identity — every shortcut must reproduce the specification path's
// decision exactly, under departures, preemption, capacity rescales, and
// plan hot-swaps.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/aggregation.hpp"
#include "core/olive.hpp"
#include "core/plan_solver.hpp"
#include "core/scenario.hpp"
#include "engine/engine.hpp"
#include "engine/replan.hpp"
#include "util/rng.hpp"
#include "workload/request.hpp"

namespace olive::core {
namespace {

net::SubstrateNetwork two_host_network(double cap0, double cap1,
                                       double ingress_cap) {
  net::SubstrateNetwork s;
  s.add_node({"ingress", net::Tier::Edge, ingress_cap, 3.0, false});
  s.add_node({"hostA", net::Tier::Edge, cap0, 1.0, false});
  s.add_node({"hostB", net::Tier::Edge, cap1, 2.0, false});
  s.add_link(0, 1, 10000, 1.0);
  s.add_link(1, 2, 10000, 1.0);
  return s;
}

std::vector<net::Application> chain_app() {
  return {net::Application{"chain",
                           net::VirtualNetwork::chain({10, 10}, {2, 2})}};
}

workload::Request make_request(int id, double demand, net::NodeId ingress = 0) {
  workload::Request r;
  r.id = id;
  r.arrival = 0;
  r.duration = 10;
  r.ingress = ingress;
  r.app = 0;
  r.demand = demand;
  return r;
}

Plan one_class_plan(const net::SubstrateNetwork& s,
                    const std::vector<net::Application>& apps,
                    double planned_demand) {
  std::vector<AggregateRequest> aggs;
  aggs.push_back({0, 0, planned_demand, planned_demand, 1});
  return solve_plan_vne(s, apps, aggs);
}

void expect_same_outcome(const EmbedOutcome& a, const EmbedOutcome& b,
                         const char* what) {
  EXPECT_EQ(a.kind, b.kind) << what;
  EXPECT_EQ(a.unit_cost, b.unit_cost) << what;
  EXPECT_EQ(a.placement == nullptr, b.placement == nullptr) << what;
  if (a.placement != nullptr && b.placement != nullptr) {
    EXPECT_EQ(a.placement->usage, b.placement->usage) << what;
    EXPECT_EQ(a.placement->embedding.node_map, b.placement->embedding.node_map)
        << what;
    EXPECT_EQ(a.placement->embedding.link_paths,
              b.placement->embedding.link_paths)
        << what;
  }
  EXPECT_EQ(a.preempted_ids, b.preempted_ids) << what;
}

TEST(GreedyMemo, ServesRepeatsWithinAnEpochAndInvalidatesOnRelease) {
  const auto s = two_host_network(1000, 1000, 1000);
  const auto apps = chain_app();
  // Empty plan: every admission is a GREEDYEMBED (QUICKG mode).
  OliveEmbedder algo(s, apps, Plan::empty());

  const auto first = algo.embed(make_request(1, 2.0));
  EXPECT_EQ(first.kind, OutcomeKind::Greedy);
  EXPECT_EQ(algo.fastpath_stats().greedy_memo_misses, 1);

  // Same class, same demand, no residual growth since: memo hit, and the
  // embedding is byte-identical.
  const auto second = algo.embed(make_request(2, 2.0));
  EXPECT_EQ(algo.fastpath_stats().greedy_memo_hits, 1);
  expect_same_outcome(first, second, "memo hit repeat");

  // A larger demand may reuse the memo too (feasible sets only shrink), a
  // smaller one must not (something infeasible at 2.0 may fit at 1.0).
  algo.embed(make_request(3, 5.0));
  EXPECT_EQ(algo.fastpath_stats().greedy_memo_hits, 2);
  algo.embed(make_request(4, 1.0));
  EXPECT_EQ(algo.fastpath_stats().greedy_memo_misses, 2);

  // A departure releases residuals — the grow-epoch moves and the memo is
  // stale: a cheaper host may have opened up.
  algo.depart(make_request(1, 2.0));
  algo.embed(make_request(5, 1.0));
  EXPECT_EQ(algo.fastpath_stats().greedy_memo_invalidations, 1);
  EXPECT_EQ(algo.fastpath_stats().greedy_memo_misses, 3);
}

TEST(GreedyMemo, ElementWiseCheckRejectsStaleEmbeddings) {
  // Host A (cost 1) fills up between two same-class arrivals *without* any
  // release: the second must not blindly reuse the memoized host-A
  // embedding — the element-wise residual check forces a recompute, which
  // lands on host B.  A fast-path-off twin keeps the oracle honest.
  const auto s = two_host_network(100, 1000, 1000);
  const auto apps = chain_app();
  OliveOptions off;
  off.enable_fastpath = false;
  OliveEmbedder fast(s, apps, Plan::empty());
  OliveEmbedder slow(s, apps, Plan::empty(), "OLIVE", off);

  // Demand 2.0 puts 2*20=40 CU on the host: host A (100 CU) fits twice.
  for (int id = 1; id <= 4; ++id) {
    const auto a = fast.embed(make_request(id, 2.0));
    const auto b = slow.embed(make_request(id, 2.0));
    expect_same_outcome(a, b, "fill sequence");
  }
  // Host A now holds 80/100 CU; the next 40 CU request must move to B.
  const auto a = fast.embed(make_request(5, 2.0));
  const auto b = slow.embed(make_request(5, 2.0));
  expect_same_outcome(a, b, "spill to host B");
  EXPECT_EQ(a.placement->embedding.node_map[1], 2);  // hostB
  EXPECT_GT(fast.fastpath_stats().greedy_memo_hits, 0);
}

TEST(GreedyMemo, CapacityRaiseInvalidates) {
  // Fill cheap host A, spill to B, then *rescale A back up*: the raise
  // bumps the grow-epoch, so the next arrival must re-discover A instead
  // of reusing the memoized host-B embedding.
  const auto s = two_host_network(40, 1000, 1000);
  const auto apps = chain_app();
  OliveEmbedder algo(s, apps, Plan::empty());

  EXPECT_EQ(algo.embed(make_request(1, 2.0)).placement->embedding.node_map[1],
            1);
  EXPECT_EQ(algo.embed(make_request(2, 2.0)).placement->embedding.node_map[1],
            2);
  // Recovery/rescale: host A's element grows to 80 CU total.
  EXPECT_TRUE(algo.set_element_capacity(s.node_element(1), 80.0));
  const auto back = algo.embed(make_request(3, 2.0));
  EXPECT_EQ(back.placement->embedding.node_map[1], 1);
  EXPECT_GE(algo.fastpath_stats().greedy_memo_invalidations, 1);
}

TEST(GreedyMemo, RevalidatesWithTheSearchsOwnThresholds) {
  // The greedy tests its host against the VNF sizes summed in virtual-node
  // order; the usage vector sums the same sizes sorted, one ulp lower here.
  // After a first admission at demand 0.001 the host's residual sits
  // between the two thresholds at demand 1: the literal rejects the second
  // request, so no cached decision may admit it.  Three caches are covered:
  // the serial memo hit, a speculated greedy commit, and speculation
  // serving the memo.
  const std::vector<double> sizes = {10.837089, 8.651729, 9.156453, 2.710334};
  const std::vector<net::Application> apps = {
      {"ulp", net::VirtualNetwork::chain(sizes, {1, 1, 1, 1})}};
  net::SubstrateNetwork s;
  s.add_node({"ingress", net::Tier::Edge, 0, 1.0, false});
  s.add_node({"host", net::Tier::Edge, 31.386960604, 1.0, false});
  s.add_link(0, 1, 1000, 1.0);

  double node_order = 0;
  for (const double x : sizes) node_order += x;
  std::vector<double> sorted = sizes;
  std::sort(sorted.begin(), sorted.end());
  double aggregated = 0;
  for (const double x : sorted) aggregated += x;

  OliveOptions off;
  off.enable_fastpath = false;
  OliveOptions spec;
  spec.spec_threads = 4;
  const auto run = [&](bool hint_first, bool hint_rest) {
    OliveEmbedder fast(s, apps, Plan::empty(), "OLIVE", spec);
    OliveEmbedder slow(s, apps, Plan::empty(), "OLIVE", off);
    std::vector<workload::Request> batch = {make_request(1, 0.001),
                                            make_request(2, 1.0),
                                            make_request(3, 1.0)};
    if (hint_first) fast.hint_arrivals(batch.data(), batch.size());
    const auto first = fast.embed(batch[0]);
    expect_same_outcome(first, slow.embed(batch[0]), "first admission");
    EXPECT_EQ(first.kind, OutcomeKind::Greedy);
    const double residual = fast.load().residual(s.node_element(1));
    EXPECT_GE(residual, aggregated - 1e-9);
    EXPECT_LT(residual, node_order - 1e-9);
    if (hint_rest) fast.hint_arrivals(batch.data() + 1, batch.size() - 1);
    for (std::size_t i = 1; i < batch.size(); ++i) {
      const auto out = fast.embed(batch[i]);
      expect_same_outcome(out, slow.embed(batch[i]), "one ulp short");
      EXPECT_EQ(out.kind, OutcomeKind::Rejected);
    }
  };
  run(false, false);  // memo hit in embed_serial
  run(true, false);   // speculated greedy commit
  run(false, true);   // speculation serves the memo
}

TEST(ClassMax, SkipsExhaustedPlanStages) {
  const auto s = two_host_network(1000, 1000, 1000);
  const auto apps = chain_app();
  OliveEmbedder algo(s, apps, one_class_plan(s, apps, 10.0));

  EXPECT_EQ(algo.embed(make_request(1, 10.0)).kind, OutcomeKind::Planned);
  // Plan residual is 0 < 5 - 1e-9: the full-fit and preempt stages cannot
  // pass any column gate, so the class max skips them wholesale (borrow
  // still scans — residual 0 fails its > 1e-9 gate per column).
  const auto out = algo.embed(make_request(2, 5.0));
  EXPECT_EQ(out.kind, OutcomeKind::Greedy);
  EXPECT_GT(algo.fastpath_stats().column_skips, 0);

  // A departure restores the residual: the stage must run again.
  algo.depart(make_request(1, 10.0));
  EXPECT_EQ(algo.embed(make_request(3, 10.0)).kind, OutcomeKind::Planned);
}

TEST(PreemptIndex, MatchesFullScanVictimOrder) {
  // Three borrowers of different demands squat on host A; a guaranteed
  // arrival preempts.  The reverse index must select the same victims in
  // the same order as the specification's full active-set scan.
  const auto s = two_host_network(400, 400, 10);
  const auto apps = chain_app();
  const Plan plan = one_class_plan(s, apps, 20.0);
  OliveOptions off;
  off.enable_fastpath = false;
  OliveEmbedder fast(s, apps, plan);
  OliveEmbedder slow(s, apps, plan, "OLIVE", off);

  for (OliveEmbedder* algo : {&fast, &slow}) {
    // Borrowers from the unplanned ingress 2: demands 4, 3, 5 (80/60/100 CU).
    EXPECT_EQ(algo->embed(make_request(1, 4.0, 2)).kind, OutcomeKind::Greedy);
    EXPECT_EQ(algo->embed(make_request(2, 3.0, 2)).kind, OutcomeKind::Greedy);
    EXPECT_EQ(algo->embed(make_request(3, 5.0, 2)).kind, OutcomeKind::Greedy);
  }
  const auto a = fast.embed(make_request(4, 20.0, 0));
  const auto b = slow.embed(make_request(4, 20.0, 0));
  expect_same_outcome(a, b, "preempt victims");
  EXPECT_EQ(a.kind, OutcomeKind::Planned);
  EXPECT_FALSE(a.preempted_ids.empty());

  // Departing a survivor afterwards exercises the index's sorted erase.
  for (OliveEmbedder* algo : {&fast, &slow})
    for (int id = 1; id <= 3; ++id) algo->depart(make_request(id, 0.0, 2));
  const auto a2 = fast.embed(make_request(5, 4.0, 2));
  const auto b2 = slow.embed(make_request(5, 4.0, 2));
  expect_same_outcome(a2, b2, "post-preempt greedy");
}

TEST(PreemptIndex, OverCapBorrowerIsNeverAVictim) {
  // A borrower bigger than the planned arrival sits on the deficient host.
  // The specification reaches it in the victim scan and trips the churn
  // guard; the fast path's merge stops at it, as at the end of the runs.
  // Both must give the same outcome, and it is never preempted.
  const auto s = two_host_network(600, 1000, 10);
  const auto apps = chain_app();
  const Plan plan = one_class_plan(s, apps, 20.0);
  OliveOptions off;
  off.enable_fastpath = false;
  OliveEmbedder fast(s, apps, plan);
  OliveEmbedder slow(s, apps, plan, "OLIVE", off);

  // Borrowers from the unplanned ingress 2, both on host A: demand 25
  // (500 CU, over any later arrival's cap) and demand 3 (60 CU).
  for (OliveEmbedder* algo : {&fast, &slow}) {
    for (const auto& [id, demand] : {std::pair{1, 25.0}, std::pair{2, 3.0}}) {
      const auto out = algo->embed(make_request(id, demand, 2));
      EXPECT_EQ(out.kind, OutcomeKind::Greedy);
      EXPECT_EQ(out.placement->embedding.node_map[1], 1);  // hostA
    }
  }
  // Demand 20 needs 400 CU of host A, 40 are free: preempting the demand-3
  // borrower is not enough and the demand-25 one would exceed the cap.
  const auto a = fast.embed(make_request(3, 20.0, 0));
  const auto b = slow.embed(make_request(3, 20.0, 0));
  expect_same_outcome(a, b, "over-cap borrower blocks the preempt");
  EXPECT_NE(a.kind, OutcomeKind::Planned);
  EXPECT_TRUE(a.preempted_ids.empty());

  // Demand 5 needs 100 CU, 40 are free: the demand-3 borrower covers it,
  // and the over-cap borrower stays.
  const auto a2 = fast.embed(make_request(4, 5.0, 0));
  const auto b2 = slow.embed(make_request(4, 5.0, 0));
  expect_same_outcome(a2, b2, "small victim covers, over-cap stays");
  EXPECT_EQ(a2.kind, OutcomeKind::Planned);
  EXPECT_EQ(a2.preempted_ids, std::vector<workload::RequestId>{2});
  for (const OliveEmbedder* algo : {&fast, &slow}) {
    const auto live = algo->active_allocations();
    EXPECT_TRUE(std::any_of(live.begin(), live.end(),
                            [](const auto& x) { return x.id == 1; }));
  }
}

TEST(PreemptIndex, VictimOnTwoDeficientElementsIsPreemptedOnce) {
  // Two borrowers touch host A and the ingress link, and both elements are
  // short, so the index lists each borrower twice.  Neither covers the
  // deficit alone: the scan must take both, each exactly once.
  net::SubstrateNetwork s;
  s.add_node({"ingress", net::Tier::Edge, 10, 3.0, false});
  s.add_node({"hostA", net::Tier::Edge, 300, 1.0, false});  // 15 units
  s.add_node({"hostB", net::Tier::Edge, 10, 2.0, false});
  s.add_link(0, 1, 30, 1.0);  // 15 units
  s.add_link(1, 2, 10000, 1.0);
  const auto apps = chain_app();
  const Plan plan = one_class_plan(s, apps, 10.0);
  OliveOptions off;
  off.enable_fastpath = false;
  OliveEmbedder fast(s, apps, plan);
  OliveEmbedder slow(s, apps, plan, "OLIVE", off);

  EmbedOutcome borrowed;
  for (OliveEmbedder* algo : {&fast, &slow}) {
    // A planned seat of 8 leaves plan residual 2, so demands of 3 borrow
    // along the same column; the seat then departs and frees the plan
    // residual, and both elements shrink to 11 units.
    EXPECT_EQ(algo->embed(make_request(1, 8.0)).kind, OutcomeKind::Planned);
    for (const int id : {2, 3}) {
      borrowed = algo->embed(make_request(id, 3.0));
      EXPECT_EQ(borrowed.kind, OutcomeKind::Borrowed);
    }
    algo->depart(make_request(1, 8.0));
    EXPECT_TRUE(algo->set_element_capacity(s.node_element(1), 220));
    EXPECT_TRUE(algo->set_element_capacity(s.link_element(0), 22));
  }
  // A planned demand of 10 is 5 units short on both elements.
  int short_elements = 0;
  for (const auto& [elem, amount] : borrowed.placement->usage)
    short_elements += fast.load().residual(elem) < amount * 10.0 - 1e-9;
  EXPECT_EQ(short_elements, 2);

  const auto a = fast.embed(make_request(4, 10.0));
  const auto b = slow.embed(make_request(4, 10.0));
  expect_same_outcome(a, b, "two-element victims");
  EXPECT_EQ(a.kind, OutcomeKind::Planned);
  EXPECT_EQ(a.preempted_ids, (std::vector<workload::RequestId>{3, 2}));
}

TEST(PreemptIndex, ForkedReplayScoresMatchSpecification) {
  // The portfolio regime: a drifted live prefix, then a snapshot, a fork, a
  // freshly solved plan and a replay of the trailing window — the fresh
  // plan's guaranteed seats preempt borrowers the old plan admitted.  The
  // fast and specification embedders must score bit-identically.
  ScenarioConfig cfg;
  cfg.topology = "Iris";
  cfg.utilization = 1.0;
  cfg.drift = 1.5;
  cfg.seed = 11;
  cfg.trace.horizon = 560;
  cfg.trace.plan_slots = 400;
  cfg.trace.lambda_per_node = 2.0;
  const Scenario sc = build_scenario(cfg);
  const int base = sc.online.front().arrival;
  constexpr int kFrom = 40, kSlot = 120;

  // Live prefix: departures first, then the slot's arrivals.
  const auto drive = [&](OliveEmbedder& algo) {
    std::vector<workload::Request> active;
    std::size_t next = 0;
    long preempted = 0;
    for (int t = 0; t < kSlot; ++t) {
      std::erase_if(active, [&](const workload::Request& r) {
        if (r.arrival - base + r.duration != t) return false;
        algo.depart(r);
        return true;
      });
      for (; next < sc.online.size() && sc.online[next].arrival - base == t;
           ++next) {
        const EmbedOutcome out = algo.embed(sc.online[next]);
        if (out.accepted()) active.push_back(sc.online[next]);
        preempted += static_cast<long>(out.preempted_ids.size());
        std::erase_if(active, [&](const workload::Request& r) {
          return std::find(out.preempted_ids.begin(), out.preempted_ids.end(),
                           r.id) != out.preempted_ids.end();
        });
      }
    }
    return preempted;
  };
  OliveOptions off;
  off.enable_fastpath = false;
  OliveEmbedder fast(sc.substrate, sc.apps, sc.plan);
  OliveEmbedder slow(sc.substrate, sc.apps, sc.plan, "OLIVE", off);
  const long live_preempted = drive(fast);
  EXPECT_GT(live_preempted, 0);
  EXPECT_EQ(drive(slow), live_preempted);

  const workload::Trace window =
      engine::clip_window(sc.online, base, kFrom, kSlot);
  ASSERT_FALSE(window.empty());
  AggregationConfig acfg = cfg.aggregation;
  acfg.horizon = kSlot - kFrom;
  Rng rng(cfg.seed);
  const Plan fresh = solve_plan_vne(
      sc.substrate, sc.apps,
      aggregate_history(window, static_cast<int>(sc.apps.size()),
                        sc.substrate.num_nodes(), acfg, rng),
      cfg.plan);
  std::vector<double> psi;
  for (const auto& app : sc.apps)
    psi.push_back(default_psi(sc.substrate, app.topology));

  const auto score = [&](const OliveEmbedder& algo) {
    const std::unique_ptr<OnlineEmbedder> clone = algo.fork(algo.snapshot());
    EXPECT_NE(clone, nullptr);
    EXPECT_TRUE(clone->install_plan(fresh));
    return engine::replay_window(*clone, window, kSlot - kFrom, psi);
  };
  const engine::ReplayScore a = score(fast);
  const engine::ReplayScore b = score(slow);
  EXPECT_GT(a.accepted, 0);
  EXPECT_GT(a.rejected, 0);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.resource_cost),
            std::bit_cast<std::uint64_t>(b.resource_cost));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.rejection_cost),
            std::bit_cast<std::uint64_t>(b.rejection_cost));
  EXPECT_EQ(a.accepted, b.accepted);
  EXPECT_EQ(a.rejected, b.rejected);
}

TEST(PreemptIndex, TiedDemandsDepartAndPreemptInSpecOrder) {
  // Three borrowers of equal demand and a smaller one share host A.  The
  // oldest of the tied ones departs: its index entry must go, not a newer
  // one's with the same demand.  A guaranteed arrival then needs the
  // smaller borrower and one of the two tied survivors: the newer one.
  const auto s = two_host_network(400, 400, 10);
  const auto apps = chain_app();
  const Plan plan = one_class_plan(s, apps, 20.0);
  OliveOptions off;
  off.enable_fastpath = false;
  OliveEmbedder fast(s, apps, plan);
  OliveEmbedder slow(s, apps, plan, "OLIVE", off);

  for (OliveEmbedder* algo : {&fast, &slow}) {
    // Borrowers from the unplanned ingress 2, all on host A: demands 4, 4,
    // 4, 3 (80/80/80/60 CU).
    for (const auto& [id, demand] : {std::pair{1, 4.0}, std::pair{2, 4.0},
                                     std::pair{3, 4.0}, std::pair{4, 3.0}}) {
      const auto out = algo->embed(make_request(id, demand, 2));
      EXPECT_EQ(out.kind, OutcomeKind::Greedy);
      EXPECT_EQ(out.placement->embedding.node_map[1], 1);  // hostA
    }
    algo->depart(make_request(1, 4.0, 2));
  }
  // Demand 14 needs 280 CU of host A, 180 are free: the demand-3 borrower
  // frees 60, and the newer tied survivor the remaining 40.
  const auto a = fast.embed(make_request(5, 14.0, 0));
  const auto b = slow.embed(make_request(5, 14.0, 0));
  expect_same_outcome(a, b, "tied-demand victims");
  EXPECT_EQ(a.kind, OutcomeKind::Planned);
  EXPECT_EQ(a.preempted_ids, (std::vector<workload::RequestId>{4, 3}));
}

TEST(PreemptIndex, RestoredIndexPreemptsLikeTheLiveOne) {
  // A restore rebuilds the sorted index from the ledger.  After a drifted
  // stretch of arrivals, departures and preemptions, a fork of the live
  // embedder must decide every later arrival exactly as the live one does,
  // victims included, and both as the specification does.
  ScenarioConfig cfg;
  cfg.topology = "Iris";
  cfg.utilization = 1.0;
  cfg.drift = 1.5;
  cfg.seed = 11;
  cfg.trace.horizon = 560;
  cfg.trace.plan_slots = 400;
  cfg.trace.lambda_per_node = 2.0;
  const Scenario sc = build_scenario(cfg);
  const int base = sc.online.front().arrival;
  constexpr int kFork = 60, kEnd = 160;

  OliveOptions off;
  off.enable_fastpath = false;
  OliveEmbedder live(sc.substrate, sc.apps, sc.plan);
  OliveEmbedder slow(sc.substrate, sc.apps, sc.plan, "OLIVE", off);
  std::unique_ptr<OnlineEmbedder> forked;
  std::vector<workload::Request> active;
  std::size_t next = 0;
  long probe_preempted = 0;
  for (int t = 0; t < kEnd; ++t) {
    if (t == kFork) {
      forked = live.fork(live.snapshot());
      ASSERT_NE(forked, nullptr);
    }
    std::erase_if(active, [&](const workload::Request& r) {
      if (r.arrival - base + r.duration != t) return false;
      live.depart(r);
      slow.depart(r);
      if (forked) forked->depart(r);
      return true;
    });
    for (; next < sc.online.size() && sc.online[next].arrival - base == t;
         ++next) {
      const workload::Request& r = sc.online[next];
      const EmbedOutcome out = live.embed(r);
      expect_same_outcome(out, slow.embed(r), "live vs specification");
      if (forked) {
        expect_same_outcome(out, forked->embed(r), "live vs restored");
        probe_preempted += static_cast<long>(out.preempted_ids.size());
      }
      if (out.accepted()) active.push_back(r);
      std::erase_if(active, [&](const workload::Request& x) {
        return std::find(out.preempted_ids.begin(), out.preempted_ids.end(),
                         x.id) != out.preempted_ids.end();
      });
    }
  }
  EXPECT_GT(probe_preempted, 0);
}

TEST(SharedPlacement, PlannedAdmissionsShareTheColumnPlacement) {
  // Planned admissions on one column hand out the column itself.  After a
  // plan swap the reclassified borrower still reads its placement from the
  // old plan, which lives on with it, and its departure empties the load.
  const auto s = two_host_network(1000, 1000, 1000);
  const auto apps = chain_app();
  OliveOptions off;
  off.enable_fastpath = false;
  OliveEmbedder fast(s, apps, one_class_plan(s, apps, 10.0));
  OliveEmbedder slow(s, apps, one_class_plan(s, apps, 10.0), "OLIVE", off);

  for (OliveEmbedder* algo : {&fast, &slow}) {
    EmbedOutcome a = algo->embed(make_request(1, 4.0));
    const EmbedOutcome b = algo->embed(make_request(2, 4.0));
    ASSERT_EQ(a.kind, OutcomeKind::Planned);
    ASSERT_EQ(b.kind, OutcomeKind::Planned);
    EXPECT_EQ(a.placement.get(), b.placement.get());
    const auto& columns = algo->plan().cls(0).columns;
    EXPECT_TRUE(std::any_of(columns.begin(), columns.end(),
                            [&](const PlanColumn& col) {
                              return a.placement.get() == &col;
                            }));
    const Placement kept = *a.placement;
    a = EmbedOutcome{};
    algo->depart(make_request(2, 4.0));

    EXPECT_TRUE(algo->install_plan(one_class_plan(s, apps, 30.0)));
    const auto live = algo->active_allocations();
    ASSERT_EQ(live.size(), 1u);
    EXPECT_EQ(live[0].id, 1);
    EXPECT_EQ(live[0].usage, kept.usage);
    EXPECT_EQ(live[0].embedding.node_map, kept.embedding.node_map);
    EXPECT_EQ(live[0].embedding.link_paths, kept.embedding.link_paths);

    algo->depart(make_request(1, 4.0));
    EXPECT_TRUE(algo->active_allocations().empty());
    for (int e = 0; e < s.element_count(); ++e)
      EXPECT_EQ(algo->load().used(e), 0.0) << e;
  }
}

TEST(Speculation, CommitsBatchAndRecoversFromConflicts) {
  // Host A fits exactly two demand-2.0 embeddings beside nothing else; a
  // hinted batch of four same-class arrivals is speculated against the
  // frozen state (all four see "host A fits"), so commits 3 and 4 must
  // detect the conflict and recompute serially — landing on host B.
  const auto s = two_host_network(80, 1000, 1000);
  const auto apps = chain_app();
  OliveOptions spec;
  spec.spec_threads = 4;
  OliveOptions off;
  off.enable_fastpath = false;
  OliveEmbedder fast(s, apps, Plan::empty(), "OLIVE", spec);
  OliveEmbedder slow(s, apps, Plan::empty(), "OLIVE", off);

  std::vector<workload::Request> batch;
  for (int id = 1; id <= 4; ++id) batch.push_back(make_request(id, 2.0));
  fast.hint_arrivals(batch.data(), batch.size());
  for (const auto& r : batch)
    expect_same_outcome(fast.embed(r), slow.embed(r), "speculated batch");

  const FastPathStats st = fast.fastpath_stats();
  EXPECT_GT(st.spec_commits, 0);
  EXPECT_GT(st.spec_misses, 0);
  EXPECT_EQ(st.spec_commits + st.spec_misses + st.spec_serial,
            static_cast<long>(batch.size()));
}

TEST(Speculation, PlanHotSwapKillsTheBatch) {
  // A plan install between hint and commit invalidates every speculative
  // decision (column indices point into the old plan).  The commit must
  // fall back to the serial path and still match the specification twin.
  const auto s = two_host_network(1000, 1000, 1000);
  const auto apps = chain_app();
  OliveOptions spec;
  spec.spec_threads = 4;
  OliveOptions off;
  off.enable_fastpath = false;
  OliveEmbedder fast(s, apps, one_class_plan(s, apps, 10.0), "OLIVE", spec);
  OliveEmbedder slow(s, apps, one_class_plan(s, apps, 10.0), "OLIVE", off);

  std::vector<workload::Request> batch;
  for (int id = 1; id <= 3; ++id) batch.push_back(make_request(id, 4.0));
  fast.hint_arrivals(batch.data(), batch.size());
  EXPECT_TRUE(fast.install_plan(one_class_plan(s, apps, 30.0)));
  EXPECT_TRUE(slow.install_plan(one_class_plan(s, apps, 30.0)));
  for (const auto& r : batch)
    expect_same_outcome(fast.embed(r), slow.embed(r), "post-swap batch");
  EXPECT_EQ(fast.fastpath_stats().spec_commits, 0);
}

TEST(Speculation, PreemptionMidBatchInvalidatesTheRest) {
  // Commit 2 preempts (a release — the grow-epoch moves), so the remaining
  // speculative decisions are discarded even though they were computed for
  // this very batch.  Decisions still match the specification path.
  const auto s = two_host_network(400, 400, 10);
  const auto apps = chain_app();
  const Plan plan = one_class_plan(s, apps, 20.0);
  OliveOptions spec;
  spec.spec_threads = 4;
  OliveOptions off;
  off.enable_fastpath = false;
  OliveEmbedder fast(s, apps, plan, "OLIVE", spec);
  OliveEmbedder slow(s, apps, plan, "OLIVE", off);

  // A borrower fills host A before the batch.
  EXPECT_EQ(fast.embed(make_request(1, 15.0, 2)).kind, OutcomeKind::Greedy);
  EXPECT_EQ(slow.embed(make_request(1, 15.0, 2)).kind, OutcomeKind::Greedy);

  std::vector<workload::Request> batch = {make_request(2, 3.0, 2),
                                          make_request(3, 20.0, 0),
                                          make_request(4, 3.0, 2)};
  fast.hint_arrivals(batch.data(), batch.size());
  for (const auto& r : batch)
    expect_same_outcome(fast.embed(r), slow.embed(r), "preempting batch");
}

TEST(Speculation, EngineDrivenRunsIdenticalAcrossWidths) {
  // Full engine drive on a generated scenario: speculation width must be
  // invisible in every deterministic metric (the fuzz suite covers the
  // failure gauntlet; this pins the plain path, including run() hinting).
  ScenarioConfig cfg;
  cfg.topology = "CittaStudi";
  cfg.utilization = 1.1;
  cfg.seed = 9;
  cfg.trace.horizon = 240;
  cfg.trace.plan_slots = 180;
  cfg.trace.lambda_per_node = 2.0;
  cfg.sim.measure_from = 5;
  cfg.sim.measure_to = 40;
  cfg.sim.drain_slots = 10;
  const Scenario sc = build_scenario(cfg);

  const auto run_width = [&](int width, bool fastpath) {
    engine::EngineConfig ecfg;
    ecfg.sim = cfg.sim;
    engine::Engine eng(sc.substrate, sc.apps, ecfg);
    OliveOptions opt;
    opt.enable_fastpath = fastpath;
    opt.spec_threads = width;
    OliveEmbedder algo(sc.substrate, sc.apps, sc.plan, "OLIVE", opt);
    return eng.run(algo, sc.online);
  };
  const SimMetrics base = run_width(1, false);
  EXPECT_GT(base.offered, 0);
  for (const int width : {1, 4, 8}) {
    const SimMetrics m = run_width(width, true);
    EXPECT_EQ(m.offered, base.offered) << width;
    EXPECT_EQ(m.accepted, base.accepted) << width;
    EXPECT_EQ(m.rejected, base.rejected) << width;
    EXPECT_EQ(m.preempted, base.preempted) << width;
    EXPECT_EQ(m.resource_cost, base.resource_cost) << width;
    EXPECT_EQ(m.rejection_cost, base.rejection_cost) << width;
    EXPECT_EQ(m.allocated_series, base.allocated_series) << width;
  }
}

}  // namespace
}  // namespace olive::core
