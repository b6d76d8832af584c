#include "stats/stats.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "util/error.hpp"

namespace olive::stats {

namespace {

/// Where the type-7 alpha-percentile of n values sits: order statistic lo,
/// interpolated towards statistic lo + 1 by `frac` (0 when there is none).
struct Type7 {
  std::size_t lo = 0;
  double frac = 0;
};

Type7 type7(std::size_t n, double alpha) {
  OLIVE_REQUIRE(alpha >= 0 && alpha <= 100, "alpha must be in [0, 100]");
  const double h = (alpha / 100.0) * (static_cast<double>(n) - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(h));
  const double frac = h - static_cast<double>(lo);
  return {lo, lo + 1 < n ? frac : 0.0};
}

}  // namespace

double percentile(std::vector<double> data, double alpha) {
  OLIVE_REQUIRE(!data.empty(), "percentile of empty data");
  const auto [lo, frac] = type7(data.size(), alpha);
  const auto nth = data.begin() + static_cast<std::ptrdiff_t>(lo);
  std::nth_element(data.begin(), nth, data.end());
  const double vlo = *nth;
  if (frac == 0.0) return vlo;
  // After nth_element everything past `nth` is >= *nth, so the next order
  // statistic is the minimum of the tail.
  const double vhi = *std::min_element(nth + 1, data.end());
  return vlo + frac * (vhi - vlo);
}

double ecdf(const std::vector<double>& data, double x) {
  OLIVE_REQUIRE(!data.empty(), "ecdf of empty data");
  std::size_t count = 0;
  for (double v : data) count += (v <= x);
  return static_cast<double>(count) / static_cast<double>(data.size());
}

BootstrapEstimate bootstrap_percentile(const std::vector<double>& data,
                                       double alpha, int resamples, Rng& rng) {
  OLIVE_REQUIRE(!data.empty(), "bootstrap of empty data");
  OLIVE_REQUIRE(resamples > 0, "need at least one resample");
  // A resample only matters through its order statistics, so it is never
  // materialized: sort the series once, tally the rank of the value each
  // rng.below(n) draw picks, and walk the tally to the two order statistics
  // the type-7 estimator reads.  The draws, the values picked and the
  // interpolation are exactly percentile()'s on the materialized resample,
  // so every replicate is bit-identical to it.
  const std::size_t n = data.size();
  const auto [lo, frac] = type7(n, alpha);
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return data[a] < data[b]; });
  std::vector<double> sorted(n);
  std::vector<std::size_t> rank(n);
  for (std::size_t r = 0; r < n; ++r) {
    sorted[r] = data[order[r]];
    rank[order[r]] = r;
  }

  std::vector<double> replicates(resamples);
  std::vector<std::size_t> count(n);
  for (int b = 0; b < resamples; ++b) {
    std::fill(count.begin(), count.end(), 0);
    for (std::size_t j = 0; j < n; ++j) ++count[rank[rng.below(n)]];
    // Order statistic lo is the value at the first rank r whose draws,
    // with all draws of lower ranks (`below`), exceed lo.
    std::size_t r = 0, below = 0;
    while (below + count[r] <= lo) below += count[r++];
    const double vlo = sorted[r];
    double v = vlo;
    if (frac != 0.0) {
      // Order statistic lo + 1 shares rank r, or sits at the next drawn one.
      if (below + count[r] <= lo + 1) {
        do ++r;
        while (count[r] == 0);
      }
      v = vlo + frac * (sorted[r] - vlo);
    }
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

double rejection_balance_index(
    const std::vector<std::vector<double>>& rejected,
    const std::vector<double>& weight) {
  OLIVE_REQUIRE(rejected.size() == weight.size(),
                "rejected/weight size mismatch");
  if (rejected.empty()) return 1.0;
  double total_weight = 0, total = 0;
  for (std::size_t v = 0; v < rejected.size(); ++v) {
    OLIVE_REQUIRE(weight[v] >= 0, "weights must be non-negative");
    const auto& xs = rejected[v];
    OLIVE_REQUIRE(!xs.empty(), "each node needs per-application counts");
    double sum = 0, sumsq = 0;
    for (double x : xs) {
      OLIVE_REQUIRE(x >= 0, "rejection counts must be non-negative");
      sum += x;
      sumsq += x * x;
    }
    // Jain's index of the per-application rejection vector at v; a node
    // with zero rejections is perfectly balanced.
    const double jain =
        sumsq > 0 ? (sum * sum) / (static_cast<double>(xs.size()) * sumsq)
                  : 1.0;
    total += weight[v] * jain;
    total_weight += weight[v];
  }
  return total_weight > 0 ? total / total_weight : 1.0;
}

MeanCi mean_ci(const std::vector<double>& samples) {
  MeanCi out;
  out.n = samples.size();
  if (samples.empty()) return out;
  double sum = 0;
  for (double v : samples) sum += v;
  out.mean = sum / static_cast<double>(samples.size());
  if (samples.size() < 2) return out;
  double ss = 0;
  for (double v : samples) ss += (v - out.mean) * (v - out.mean);
  const double var = ss / static_cast<double>(samples.size() - 1);
  out.half_width =
      1.96 * std::sqrt(var / static_cast<double>(samples.size()));
  return out;
}

}  // namespace olive::stats
