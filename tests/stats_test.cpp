// Tests for the statistics substrate: percentiles, ECDF, bootstrap
// estimation (coverage property), the Eq. 20 balance index, and mean/CI
// aggregation.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "stats/stats.hpp"
#include "util/distributions.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace olive::stats {
namespace {

TEST(Percentile, KnownValues) {
  const std::vector<double> data{1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(percentile(data, 0), 1);
  EXPECT_DOUBLE_EQ(percentile(data, 50), 3);
  EXPECT_DOUBLE_EQ(percentile(data, 100), 5);
  EXPECT_DOUBLE_EQ(percentile(data, 25), 2);
  EXPECT_DOUBLE_EQ(percentile(data, 80), 4.2);  // type-7 interpolation
}

TEST(Percentile, SingleElementAndErrors) {
  EXPECT_DOUBLE_EQ(percentile({7.0}, 30), 7.0);
  EXPECT_THROW(percentile({}, 50), InvalidArgument);
  EXPECT_THROW(percentile({1.0}, 101), InvalidArgument);
}

TEST(Ecdf, StepFunction) {
  const std::vector<double> data{1, 2, 2, 3};
  EXPECT_DOUBLE_EQ(ecdf(data, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(ecdf(data, 2.0), 0.75);
  EXPECT_DOUBLE_EQ(ecdf(data, 10), 1.0);
}

TEST(Bootstrap, EstimateNearTruePercentile) {
  Rng rng(1);
  std::vector<double> data(2000);
  for (auto& v : data) v = sample_normal(rng, 100.0, 10.0);
  Rng brng(2);
  const auto est = bootstrap_percentile(data, 80, 200, brng);
  // True P80 of N(100,10) is 100 + 0.8416*10 = 108.4.
  EXPECT_NEAR(est.estimate, 108.4, 1.5);
  EXPECT_LT(est.ci_low, est.estimate);
  EXPECT_GT(est.ci_high, est.estimate);
}

TEST(Bootstrap, CoverageOfTruePercentile) {
  // The 95% CI should contain the true percentile in most repetitions —
  // the conformance test the paper applies to online demand (§III-A).
  Rng rng(3);
  const double true_p80 = 100 + 0.8416212 * 10;
  int covered = 0;
  const int reps = 40;
  for (int rep = 0; rep < reps; ++rep) {
    std::vector<double> data(500);
    for (auto& v : data) v = sample_normal(rng, 100.0, 10.0);
    Rng brng(static_cast<std::uint64_t>(rep) + 1000);
    const auto est = bootstrap_percentile(data, 80, 150, brng);
    covered += (true_p80 >= est.ci_low && true_p80 <= est.ci_high);
  }
  EXPECT_GE(covered, reps * 3 / 4);  // generous: nominal coverage is 95%
}

TEST(Bootstrap, DeterministicInRng) {
  const std::vector<double> data{1, 5, 2, 8, 3, 9, 4};
  Rng a(10), b(10);
  const auto e1 = bootstrap_percentile(data, 80, 100, a);
  const auto e2 = bootstrap_percentile(data, 80, 100, b);
  EXPECT_DOUBLE_EQ(e1.estimate, e2.estimate);
  EXPECT_DOUBLE_EQ(e1.ci_low, e2.ci_low);
}

/// The bootstrap as first written: materialize each resample and take its
/// type-7 percentile with nth_element.  The rank-counting implementation
/// must match it bit for bit and consume the same draws.
BootstrapEstimate reference_bootstrap(const std::vector<double>& data,
                                      double alpha, int resamples, Rng& rng) {
  std::vector<double> replicates(resamples);
  std::vector<double> sample(data.size());
  const double h = (alpha / 100.0) * (static_cast<double>(data.size()) - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(h));
  const double frac = h - static_cast<double>(lo);
  for (int b = 0; b < resamples; ++b) {
    for (auto& v : sample) v = data[rng.below(data.size())];
    const auto nth = sample.begin() + static_cast<std::ptrdiff_t>(lo);
    std::nth_element(sample.begin(), nth, sample.end());
    double v = *nth;
    if (frac != 0.0 && lo + 1 < sample.size())
      v += frac * (*std::min_element(nth + 1, sample.end()) - v);
    replicates[b] = v;
  }
  BootstrapEstimate est;
  double sum = 0;
  for (double v : replicates) sum += v;
  est.estimate = sum / resamples;
  est.ci_low = percentile(replicates, 2.5);
  est.ci_high = percentile(replicates, 97.5);
  return est;
}

/// A demand-like series: runs of zeros (idle slots) and values on a coarse
/// grid (many ties), or continuous values when `ties` is false.
std::vector<double> demand_series(std::size_t n, bool ties, Rng& rng) {
  std::vector<double> out(n);
  bool idle = false;
  for (auto& v : out) {
    if (rng.chance(0.2)) idle = !idle;
    if (idle)
      v = 0.0;
    else
      v = ties ? 2.5 * static_cast<double>(rng.below(4))
               : sample_normal(rng, 40.0, 12.0);
  }
  return out;
}

TEST(Bootstrap, CountingMatchesMaterializedResamplesBitForBit) {
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  Rng gen(17);
  for (const std::size_t n : {1, 2, 3, 100, 1200}) {
    for (const bool ties : {true, false}) {
      const std::vector<double> data = demand_series(n, ties, gen);
      for (const double alpha : {0.0, 2.5, 80.0, 97.5, 100.0}) {
        Rng ref_rng(n * 1000 + static_cast<std::uint64_t>(alpha * 10));
        Rng rng = ref_rng;
        const auto ref = reference_bootstrap(data, alpha, 50, ref_rng);
        const auto got = bootstrap_percentile(data, alpha, 50, rng);
        SCOPED_TRACE(testing::Message() << "n=" << n << " ties=" << ties
                                        << " alpha=" << alpha);
        EXPECT_EQ(bits(got.estimate), bits(ref.estimate));
        EXPECT_EQ(bits(got.ci_low), bits(ref.ci_low));
        EXPECT_EQ(bits(got.ci_high), bits(ref.ci_high));
        // Same draws consumed: both generators continue identically.
        for (int i = 0; i < 4; ++i) EXPECT_EQ(rng(), ref_rng());
      }
    }
  }
}

TEST(BalanceIndex, PerfectBalanceIsOne) {
  // Equal rejections across applications at every node.
  const std::vector<std::vector<double>> rejected{{5, 5, 5, 5}, {2, 2, 2, 2}};
  EXPECT_NEAR(rejection_balance_index(rejected, {10, 20}), 1.0, 1e-12);
}

TEST(BalanceIndex, FullImbalanceIsOneOverA) {
  // All rejections on one application -> Jain index 1/|A|.
  const std::vector<std::vector<double>> rejected{{8, 0, 0, 0}};
  EXPECT_NEAR(rejection_balance_index(rejected, {1}), 0.25, 1e-12);
}

TEST(BalanceIndex, ZeroRejectionNodeCountsAsBalanced) {
  const std::vector<std::vector<double>> rejected{{0, 0}, {4, 0}};
  // node 0 contributes 1.0, node 1 contributes 0.5; equal weights -> 0.75.
  EXPECT_NEAR(rejection_balance_index(rejected, {1, 1}), 0.75, 1e-12);
}

TEST(BalanceIndex, WeightsSkewTheAverage) {
  const std::vector<std::vector<double>> rejected{{1, 1}, {6, 0}};
  // indexes: 1.0 and 0.5; weights 3:1 -> (3*1 + 1*0.5)/4 = 0.875.
  EXPECT_NEAR(rejection_balance_index(rejected, {3, 1}), 0.875, 1e-12);
}

TEST(BalanceIndex, EmptyInputIsBalanced) {
  EXPECT_DOUBLE_EQ(rejection_balance_index({}, {}), 1.0);
}

TEST(BalanceIndex, RejectsMalformedInput) {
  EXPECT_THROW(rejection_balance_index({{1, 2}}, {1, 2}), InvalidArgument);
  EXPECT_THROW(rejection_balance_index({{-1, 2}}, {1}), InvalidArgument);
}

TEST(MeanCi, KnownSmallSample) {
  const auto ci = mean_ci({2, 4, 6});
  EXPECT_DOUBLE_EQ(ci.mean, 4.0);
  EXPECT_EQ(ci.n, 3u);
  // sample sd = 2, stderr = 2/sqrt(3).
  EXPECT_NEAR(ci.half_width, 1.96 * 2.0 / std::sqrt(3.0), 1e-9);
}

TEST(MeanCi, DegenerateInputs) {
  EXPECT_EQ(mean_ci({}).n, 0u);
  const auto one = mean_ci({5});
  EXPECT_DOUBLE_EQ(one.mean, 5.0);
  EXPECT_DOUBLE_EQ(one.half_width, 0.0);
}

}  // namespace
}  // namespace olive::stats
