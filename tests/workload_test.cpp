// Tests for the workload substrate: request/trace invariants, application
// sampling (Table III), MMPP trace statistics, utilization calibration, and
// the CAIDA-like synthetic trace.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "topo/topologies.hpp"
#include "util/error.hpp"
#include "workload/appgen.hpp"
#include "workload/caida.hpp"
#include "workload/request.hpp"
#include "workload/tracegen.hpp"

namespace olive::workload {
namespace {

TEST(Request, ActivityWindow) {
  Request r;
  r.arrival = 5;
  r.duration = 3;
  EXPECT_FALSE(r.active_at(4));
  EXPECT_TRUE(r.active_at(5));
  EXPECT_TRUE(r.active_at(7));
  EXPECT_FALSE(r.active_at(8));
  EXPECT_EQ(r.departure(), 8);
}

TEST(Trace, ValidationCatchesBadFields) {
  Trace t;
  t.push_back({0, 0, 1, 0, 0, 1.0});
  EXPECT_NO_THROW(validate_trace(t, 2, 1));
  t.push_back({1, 0, 0, 0, 0, 1.0});  // zero duration
  EXPECT_THROW(validate_trace(t, 2, 1), InvalidArgument);
  t.back().duration = 1;
  t.back().demand = 0;  // zero demand
  EXPECT_THROW(validate_trace(t, 2, 1), InvalidArgument);
  t.back().demand = std::numeric_limits<double>::infinity();
  EXPECT_THROW(validate_trace(t, 2, 1), InvalidArgument);
  t.back().demand = 1;
  t.back().app = 3;  // app out of range
  EXPECT_THROW(validate_trace(t, 2, 1), InvalidArgument);
}

TEST(Trace, ActiveAtFiltersCorrectly) {
  Trace t;
  t.push_back({0, 0, 5, 0, 0, 1.0});
  t.push_back({1, 3, 1, 0, 0, 1.0});
  EXPECT_EQ(active_at(t, 0).size(), 1u);
  EXPECT_EQ(active_at(t, 3).size(), 2u);
  EXPECT_EQ(active_at(t, 4).size(), 1u);
}

TEST(AppGen, VnfCountWithinTableRange) {
  Rng rng(1);
  const AppGenConfig cfg;
  for (int i = 0; i < 200; ++i) {
    const auto app = sample_application(AppKind::Chain, cfg, rng);
    const int vnfs = app.topology.num_nodes() - 1;  // exclude θ
    EXPECT_GE(vnfs, 3);
    EXPECT_LE(vnfs, 5);
  }
}

TEST(AppGen, ElementSizesArePositiveAndPlausible) {
  Rng rng(2);
  const AppGenConfig cfg;
  double sum = 0;
  int count = 0;
  for (int i = 0; i < 300; ++i) {
    const auto app = sample_application(AppKind::Chain, cfg, rng);
    for (int v = 1; v < app.topology.num_nodes(); ++v) {
      EXPECT_GT(app.topology.vnode(v).size, 0);
      sum += app.topology.vnode(v).size;
      ++count;
    }
  }
  // N(50, 30) truncated below at 1 has mean μ + σ·φ(α)/(1-Φ(α)) ≈ 53.3.
  EXPECT_NEAR(sum / count, 53.3, 2.0);
}

TEST(AppGen, TreeHasTwoBranches) {
  Rng rng(3);
  const AppGenConfig cfg;
  for (int i = 0; i < 50; ++i) {
    const auto app = sample_application(AppKind::Tree, cfg, rng);
    // Node 1 forks into two branches when >= 3 VNFs (always, per Table III).
    EXPECT_EQ(app.topology.children(1).size(), 2u);
  }
}

TEST(AppGen, AcceleratorShrinksDownstreamLinks) {
  Rng rng(4);
  AppGenConfig cfg;
  cfg.element_size_std = 0;  // deterministic sizes isolate the shrink factor
  const auto app = sample_application(AppKind::Accelerator, cfg, rng);
  const auto& vn = app.topology;
  // Links are either full-size (50) or shrunk (15); at least one of each.
  int full = 0, shrunk = 0;
  for (int l = 0; l < vn.num_links(); ++l) {
    const double sz = vn.vlink(l).size;
    if (std::abs(sz - 50.0) < 1e-9) {
      ++full;
    } else {
      EXPECT_NEAR(sz, 15.0, 1e-9);
      ++shrunk;
    }
  }
  EXPECT_GE(full, 1);
  EXPECT_GE(shrunk, 1);
}

TEST(AppGen, GpuAppHasExactlyOneGpuVnf) {
  Rng rng(5);
  const AppGenConfig cfg;
  for (int i = 0; i < 50; ++i) {
    const auto app = sample_application(AppKind::Gpu, cfg, rng);
    int gpu = 0;
    for (int v = 0; v < app.topology.num_nodes(); ++v)
      gpu += app.topology.vnode(v).gpu;
    EXPECT_EQ(gpu, 1);
    EXPECT_FALSE(app.topology.vnode(0).gpu);  // never θ
    EXPECT_TRUE(app.topology.has_gpu_vnf());
  }
}

TEST(AppGen, DefaultMixMatchesPaper) {
  const auto mix = default_mix();
  ASSERT_EQ(mix.size(), 4u);
  EXPECT_EQ(std::count(mix.begin(), mix.end(), AppKind::Chain), 2);
  EXPECT_EQ(std::count(mix.begin(), mix.end(), AppKind::Tree), 1);
  EXPECT_EQ(std::count(mix.begin(), mix.end(), AppKind::Accelerator), 1);
}

class TraceFixture : public ::testing::Test {
 protected:
  TraceFixture() : topo_rng_(42), substrate_(topo::citta_studi(topo_rng_)) {
    Rng app_rng(7);
    apps_ = sample_application_set(default_mix(), {}, app_rng);
    config_.horizon = 600;
    config_.plan_slots = 500;
  }
  Rng topo_rng_;
  net::SubstrateNetwork substrate_;
  std::vector<net::Application> apps_;
  TraceConfig config_;
};

TEST_F(TraceFixture, GeneratesSortedValidTrace) {
  TraceGenerator gen(substrate_, apps_, config_);
  Rng rng(100);
  const Trace trace = gen.generate(rng);
  EXPECT_NO_THROW(
      validate_trace(trace, substrate_.num_nodes(), static_cast<int>(apps_.size())));
  EXPECT_GT(trace.size(), 1000u);
}

TEST_F(TraceFixture, ArrivalRateMatchesLambda) {
  TraceGenerator gen(substrate_, apps_, config_);
  Rng rng(101);
  const Trace trace = gen.generate(rng);
  const double per_slot = static_cast<double>(trace.size()) / config_.horizon;
  // λ=10 per node, 30 nodes -> mean 300 per slot (MMPP preserves the mean).
  EXPECT_NEAR(per_slot, 300.0, 30.0);
}

TEST_F(TraceFixture, RequestsOriginateOnlyFromEdge) {
  TraceGenerator gen(substrate_, apps_, config_);
  Rng rng(102);
  for (const Request& r : gen.generate(rng))
    EXPECT_EQ(substrate_.node(r.ingress).tier, net::Tier::Edge);
}

TEST_F(TraceFixture, ZipfSkewsIngressPopularity) {
  TraceGenerator gen(substrate_, apps_, config_);
  Rng rng(103);
  const Trace trace = gen.generate(rng);
  std::vector<int> counts(substrate_.num_nodes(), 0);
  for (const Request& r : trace) ++counts[r.ingress];
  std::sort(counts.begin(), counts.end(), std::greater<>());
  // With Zipf(1) over 20 edge nodes, the most popular node receives ~5.5x
  // more requests than a uniform share.
  const double uniform_share =
      static_cast<double>(trace.size()) / gen.edge_nodes().size();
  EXPECT_GT(counts[0], 3.0 * uniform_share);
}

TEST_F(TraceFixture, MmppProducesBurstierArrivalsThanPoisson) {
  TraceGenerator gen(substrate_, apps_, config_);
  Rng rng(104);
  const Trace trace = gen.generate(rng);
  std::vector<double> per_slot(config_.horizon, 0);
  for (const Request& r : trace) per_slot[r.arrival] += 1;
  double mean = 0;
  for (double c : per_slot) mean += c;
  mean /= per_slot.size();
  double var = 0;
  for (double c : per_slot) var += (c - mean) * (c - mean);
  var /= per_slot.size();
  // A plain Poisson process has var ≈ mean; MMPP inflates variance well
  // beyond that (index of dispersion >> 1).
  EXPECT_GT(var / mean, 3.0);
}

TEST_F(TraceFixture, SplitHistoryPartitionsAtBoundary) {
  TraceGenerator gen(substrate_, apps_, config_);
  Rng rng(105);
  const Trace trace = gen.generate(rng);
  const auto [hist, online] = gen.split_history(trace);
  EXPECT_EQ(hist.size() + online.size(), trace.size());
  for (const Request& r : hist) EXPECT_LT(r.arrival, config_.plan_slots);
  for (const Request& r : online) EXPECT_GE(r.arrival, config_.plan_slots);
}

TEST_F(TraceFixture, DeterministicForSameSeed) {
  TraceGenerator gen(substrate_, apps_, config_);
  Rng r1(200), r2(200);
  const Trace a = gen.generate(r1);
  const Trace b = gen.generate(r2);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].ingress, b[i].ingress);
    EXPECT_DOUBLE_EQ(a[i].demand, b[i].demand);
  }
}

TEST_F(TraceFixture, UtilizationCalibrationRoundTrips) {
  for (const double target : {0.6, 1.0, 1.4}) {
    TraceConfig cfg = config_;
    cfg.demand_mean =
        utilization_to_demand_mean(substrate_, apps_, cfg, target);
    cfg.demand_std = cfg.demand_mean * 0.4;  // keep the paper's CoV
    TraceGenerator gen(substrate_, apps_, cfg);
    Rng rng(300);
    const Trace trace = gen.generate(rng);
    const double measured =
        measured_utilization(substrate_, apps_, trace, cfg.horizon);
    EXPECT_NEAR(measured, target, 0.15 * target)
        << "target utilization " << target;
  }
}

TEST_F(TraceFixture, CaidaTraceHasHeavyTailAndValidFields) {
  CaidaConfig caida;
  Rng rng(400);
  const Trace trace =
      generate_caida_trace(substrate_, apps_, config_, caida, rng);
  EXPECT_NO_THROW(
      validate_trace(trace, substrate_.num_nodes(), static_cast<int>(apps_.size())));
  EXPECT_GT(trace.size(), 1000u);
  // Heavy tail: max demand far above the mean.
  double mean = 0, mx = 0;
  for (const Request& r : trace) {
    mean += r.demand;
    mx = std::max(mx, r.demand);
  }
  mean /= static_cast<double>(trace.size());
  EXPECT_NEAR(mean, config_.demand_mean, 2.5);
  EXPECT_GT(mx, 5.0 * mean);
  for (const Request& r : trace)
    EXPECT_EQ(substrate_.node(r.ingress).tier, net::Tier::Edge);
}

}  // namespace
}  // namespace olive::workload
