// Tests for the simulation drivers: window accounting, cost conventions
// (Eqs. 3–4), preemption bookkeeping, per-slot series, and the SLOTOFF
// baseline driver.
#include <gtest/gtest.h>

#include "core/olive.hpp"
#include "core/scenario.hpp"
#include "core/simulator.hpp"
#include "engine/engine.hpp"
#include "util/error.hpp"

namespace olive::core {
namespace {

net::SubstrateNetwork pair_network(double host_cap) {
  // The ingress has (almost) no hosting capacity so placement decisions are
  // all about the host node.
  net::SubstrateNetwork s;
  s.add_node({"ingress", net::Tier::Edge, 0.5, 3.0, false});
  s.add_node({"host", net::Tier::Edge, host_cap, 1.0, false});
  s.add_link(0, 1, 1e9, 1.0);
  return s;
}

std::vector<net::Application> unit_app() {
  // One VNF of size 1 and a θ-link of size 1: unit cost = 1*1 + 1*1 = 2.
  return {net::Application{"chain", net::VirtualNetwork::chain({1}, {1})}};
}

workload::Request req(int id, int arrival, int duration, double demand) {
  workload::Request r;
  r.id = id;
  r.arrival = arrival;
  r.duration = duration;
  r.ingress = 0;
  r.app = 0;
  r.demand = demand;
  return r;
}

TEST(RunOnline, CountsAndCostsOnTinyTrace) {
  const auto s = pair_network(100.0);
  const auto apps = unit_app();
  workload::Trace trace{req(0, 0, 2, 3.0), req(1, 1, 2, 4.0)};

  OliveEmbedder algo(s, apps, Plan::empty());
  SimulatorConfig cfg;
  cfg.measure_from = 0;
  cfg.measure_to = 10;
  cfg.psi_per_app = {10.0};
  const auto m = engine::Engine(s, apps, {cfg, {}, {}}).run(algo, trace);

  EXPECT_EQ(m.offered, 2);
  EXPECT_EQ(m.accepted, 2);
  EXPECT_EQ(m.rejected, 0);
  EXPECT_DOUBLE_EQ(m.rejection_rate(), 0.0);
  // Unit cost 2 per demand unit: slot 0 -> 3*2, slot 1 -> (3+4)*2,
  // slot 2 -> 4*2.  Total 6 + 14 + 8 = 28.
  EXPECT_NEAR(m.resource_cost, 28.0, 1e-9);
  EXPECT_DOUBLE_EQ(m.rejection_cost, 0.0);
  // Offered/allocated series agree when everything is accepted.
  EXPECT_DOUBLE_EQ(m.offered_series[1], 7.0);
  EXPECT_DOUBLE_EQ(m.allocated_series[1], 7.0);
  EXPECT_DOUBLE_EQ(m.allocated_series[2], 4.0);
}

TEST(RunOnline, RejectionCostUsesFullDuration) {
  const auto s = pair_network(2.0);  // fits 2 demand units only
  const auto apps = unit_app();
  workload::Trace trace{req(0, 0, 5, 2.0), req(1, 0, 7, 3.0)};
  OliveEmbedder algo(s, apps, Plan::empty());
  SimulatorConfig cfg;
  cfg.measure_from = 0;
  cfg.measure_to = 20;
  cfg.psi_per_app = {10.0};
  const auto m = engine::Engine(s, apps, {cfg, {}, {}}).run(algo, trace);
  EXPECT_EQ(m.accepted, 1);
  EXPECT_EQ(m.rejected, 1);
  // Ψ(r) = ψ·d·T = 10 * 3 * 7.
  EXPECT_NEAR(m.rejection_cost, 210.0, 1e-9);
  EXPECT_NEAR(m.rejected_demand, 3.0, 1e-9);
  EXPECT_NEAR(m.rejection_rate(), 0.5, 1e-9);
}

TEST(RunOnline, WindowExcludesOutsideArrivals) {
  const auto s = pair_network(100.0);
  const auto apps = unit_app();
  workload::Trace trace{req(0, 0, 2, 1.0), req(1, 5, 2, 1.0), req(2, 9, 2, 1.0)};
  OliveEmbedder algo(s, apps, Plan::empty());
  SimulatorConfig cfg;
  cfg.measure_from = 4;
  cfg.measure_to = 8;
  const auto m = engine::Engine(s, apps, {cfg, {}, {}}).run(algo, trace);
  EXPECT_EQ(m.offered, 1);  // only the request arriving at slot 5
}

TEST(RunOnline, TraceRebasedToFirstArrival) {
  const auto s = pair_network(100.0);
  const auto apps = unit_app();
  // Arrivals at absolute slots 1000/1001 — window [0,10) must cover them.
  workload::Trace trace{req(0, 1000, 2, 1.0), req(1, 1001, 2, 1.0)};
  OliveEmbedder algo(s, apps, Plan::empty());
  SimulatorConfig cfg;
  cfg.measure_from = 0;
  cfg.measure_to = 10;
  const auto m = engine::Engine(s, apps, {cfg, {}, {}}).run(algo, trace);
  EXPECT_EQ(m.offered, 2);
  EXPECT_EQ(m.accepted, 2);
}

TEST(RunOnline, PreemptionChargedAsRejection) {
  // Plan guarantees the whole host to class (0,0); a greedy borrower from
  // another ingress is preempted when planned demand arrives.
  net::SubstrateNetwork s;
  s.add_node({"in0", net::Tier::Edge, 1.0, 3.0, false});
  s.add_node({"host", net::Tier::Edge, 10.0, 1.0, false});
  s.add_node({"in1", net::Tier::Edge, 1.0, 3.0, false});
  s.add_link(0, 1, 1e9, 1.0);
  s.add_link(1, 2, 1e9, 1.0);
  const auto apps = unit_app();

  std::vector<AggregateRequest> aggs;
  aggs.push_back({0, 0, 10.0, 10.0, 1});
  const Plan plan = solve_plan_vne(s, apps, aggs);

  workload::Trace trace;
  {  // borrower from ingress 2 arrives first, planned demand next slot
    auto r0 = req(0, 0, 10, 8.0);
    r0.ingress = 2;
    trace.push_back(r0);
    trace.push_back(req(1, 1, 10, 10.0));
  }
  OliveEmbedder algo(s, apps, plan);
  SimulatorConfig cfg;
  cfg.measure_from = 0;
  cfg.measure_to = 20;
  cfg.psi_per_app = {1.0};
  cfg.record_requests = true;
  const auto m = engine::Engine(s, apps, {cfg, {}, {}}).run(algo, trace);
  EXPECT_EQ(m.preempted, 1);
  EXPECT_EQ(m.accepted, 1);
  EXPECT_EQ(m.rejected, 0);
  EXPECT_NEAR(m.rejection_rate(), 0.5, 1e-9);
  // Ψ of the preempted borrower: 1.0 * 8 * 10.
  EXPECT_NEAR(m.rejection_cost, 80.0, 1e-9);
  // The record carries the preemption slot.
  ASSERT_EQ(m.records.size(), 2u);
  EXPECT_EQ(m.records[0].preempted_at, 1);
  // The allocated series drops the borrower from slot 1 on.
  EXPECT_DOUBLE_EQ(m.allocated_series[0], 8.0);
  EXPECT_DOUBLE_EQ(m.allocated_series[1], 10.0);
}

TEST(RunSlotOff, AcceptsEverythingWhenCapacityAmple) {
  const auto s = pair_network(100.0);
  const auto apps = unit_app();
  workload::Trace trace{req(0, 0, 3, 2.0), req(1, 1, 3, 3.0)};
  SimulatorConfig cfg;
  cfg.measure_from = 0;
  cfg.measure_to = 10;
  cfg.psi_per_app = {10.0};
  const auto m =
      engine::Engine(s, apps, {cfg, {}, {}}).run_slotoff(trace, {});
  EXPECT_EQ(m.offered, 2);
  EXPECT_EQ(m.accepted, 2);
  EXPECT_EQ(m.rejected, 0);
  EXPECT_GT(m.resource_cost, 0.0);
}

TEST(RunSlotOff, RejectsOverflowNeverReconsiders) {
  const auto s = pair_network(5.0);
  const auto apps = unit_app();
  // Two simultaneous requests of demand 3: only one fits (host cap 5).
  workload::Trace trace{req(0, 0, 4, 3.0), req(1, 0, 4, 3.0)};
  SimulatorConfig cfg;
  cfg.measure_from = 0;
  cfg.measure_to = 10;
  cfg.psi_per_app = {100.0};
  const auto m =
      engine::Engine(s, apps, {cfg, {}, {}}).run_slotoff(trace, {});
  EXPECT_EQ(m.offered, 2);
  EXPECT_EQ(m.accepted + m.rejected + m.preempted, 2);
  EXPECT_GE(m.rejected, 1);
  // Ψ = 100 * 3 * 4 per rejected request.
  EXPECT_NEAR(m.rejection_cost, 1200.0 * (m.rejected + m.preempted), 1e-6);
}

TEST(RunSlotOff, OngoingRequestsMayBeReallocated) {
  // SLOTOFF re-solves per slot; its allocated series tracks active demand.
  const auto s = pair_network(50.0);
  const auto apps = unit_app();
  workload::Trace trace{req(0, 0, 2, 5.0), req(1, 1, 2, 7.0), req(2, 2, 2, 2.0)};
  SimulatorConfig cfg;
  cfg.measure_from = 0;
  cfg.measure_to = 10;
  const auto m =
      engine::Engine(s, apps, {cfg, {}, {}}).run_slotoff(trace, {});
  EXPECT_EQ(m.accepted, 3);
  EXPECT_DOUBLE_EQ(m.allocated_series[0], 5.0);
  EXPECT_DOUBLE_EQ(m.allocated_series[1], 12.0);
  EXPECT_DOUBLE_EQ(m.allocated_series[2], 9.0);
}

TEST(Metrics, RejectionRateHandlesEmptyWindow) {
  SimMetrics m;
  EXPECT_DOUBLE_EQ(m.rejection_rate(), 0.0);
  EXPECT_DOUBLE_EQ(m.total_cost(), 0.0);
}

}  // namespace
}  // namespace olive::core
