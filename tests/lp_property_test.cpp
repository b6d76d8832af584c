// Property-based tests for the LP substrate.
//
// For every randomly generated LP that the simplex declares Optimal we check
// a full KKT certificate (lp_certificate.hpp).  MIP results are
// cross-checked against exhaustive enumeration of all integer assignments
// on small instances.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "lp/mip.hpp"
#include "lp/model.hpp"
#include "lp/simplex.hpp"
#include "lp_certificate.hpp"
#include "util/rng.hpp"

namespace olive::lp {
namespace {

class RandomLpSweep : public ::testing::TestWithParam<int> {};

TEST_P(RandomLpSweep, OptimalSolutionsCarryKktCertificate) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 13);
  const int n_cols = 2 + static_cast<int>(rng.below(10));
  const int n_rows = 1 + static_cast<int>(rng.below(8));
  const Model m = random_feasible_lp(rng, n_cols, n_rows);
  const auto res = solve_lp(m);
  // Bounded boxes + feasible-by-construction: must be Optimal.
  ASSERT_EQ(res.status, Status::Optimal) << "seed " << GetParam();
  expect_kkt_certificate(m, res);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomLpSweep, ::testing::Range(0, 60));

class RandomMipSweep : public ::testing::TestWithParam<int> {};

TEST_P(RandomMipSweep, MatchesBruteForceEnumeration) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 104729 + 7);
  const int n = 3 + static_cast<int>(rng.below(6));  // 3..8 binaries
  const int rows = 1 + static_cast<int>(rng.below(4));
  Model m;
  std::vector<int> ints;
  for (int c = 0; c < n; ++c) ints.push_back(m.add_col(0, 1, rng.uniform(-10, 10)));
  std::vector<std::vector<double>> a(rows, std::vector<double>(n, 0.0));
  std::vector<double> rhs(rows);
  std::vector<Sense> sense(rows);
  for (int r = 0; r < rows; ++r) {
    const int row = m.add_row(Sense::LE, 0);
    for (int c = 0; c < n; ++c) {
      if (!rng.chance(0.7)) continue;
      a[r][c] = rng.uniform(0.0, 4.0);
      m.add_entry(row, c, a[r][c]);
    }
    double total = 0;
    for (int c = 0; c < n; ++c) total += a[r][c];
    rhs[r] = rng.uniform(0.0, total + 1.0);
    sense[r] = Sense::LE;
    // Patch rhs into the model (row was added with rhs 0).
    // Rebuild is simpler: a fresh model would also work, but Model has no
    // rhs setter by design; instead encode via an extra LE row trick:
    // we simply regenerate the model below.
  }
  // Rebuild the model with correct rhs values.
  Model m2;
  std::vector<int> ints2;
  for (int c = 0; c < n; ++c) ints2.push_back(m2.add_col(0, 1, m.col_cost(c)));
  for (int r = 0; r < rows; ++r) {
    const int row = m2.add_row(sense[r], rhs[r]);
    for (int c = 0; c < n; ++c)
      if (a[r][c] != 0.0) m2.add_entry(row, c, a[r][c]);
  }

  // Brute force over all 2^n assignments.
  double best = std::numeric_limits<double>::infinity();
  for (int mask = 0; mask < (1 << n); ++mask) {
    std::vector<double> x(n);
    for (int c = 0; c < n; ++c) x[c] = (mask >> c) & 1;
    if (m2.max_violation(x) > 1e-9) continue;
    best = std::min(best, m2.objective_value(x));
  }

  const auto res = solve_mip(m2, ints2);
  ASSERT_TRUE(std::isfinite(best));  // all-zeros is always feasible here
  ASSERT_EQ(res.status, Status::Optimal) << "seed " << GetParam();
  EXPECT_NEAR(res.objective, best, 1e-6) << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomMipSweep, ::testing::Range(0, 40));

class ColumnGenerationSweep : public ::testing::TestWithParam<int> {};

TEST_P(ColumnGenerationSweep, IncrementalMatchesFromScratch) {
  // Adding columns one at a time with warm resolves must reach the same
  // optimum as building the full model and solving cold.
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 31337 + 1);
  const int n_rows = 2 + static_cast<int>(rng.below(5));
  const int n_cols = 4 + static_cast<int>(rng.below(10));

  Model full;
  std::vector<std::vector<std::pair<int, double>>> cols(n_cols);
  std::vector<double> costs(n_cols), lo(n_cols), up(n_cols);
  for (int r = 0; r < n_rows; ++r) full.add_row(Sense::LE, rng.uniform(1.0, 8.0));
  for (int c = 0; c < n_cols; ++c) {
    costs[c] = rng.uniform(-5.0, 5.0);
    lo[c] = 0.0;
    up[c] = rng.uniform(0.5, 3.0);
    for (int r = 0; r < n_rows; ++r)
      if (rng.chance(0.5)) cols[c].emplace_back(r, rng.uniform(0.0, 2.0));
    full.add_col_with_entries(lo[c], up[c], costs[c], cols[c]);
  }
  const auto cold = solve_lp(full);
  ASSERT_EQ(cold.status, Status::Optimal);

  Model empty;
  for (int r = 0; r < n_rows; ++r) empty.add_row(Sense::LE, full.row_rhs(r));
  Simplex solver(empty);
  auto res = solver.solve();
  ASSERT_EQ(res.status, Status::Optimal);
  for (int c = 0; c < n_cols; ++c) {
    solver.add_column(lo[c], up[c], costs[c], cols[c]);
    res = solver.resolve();
    ASSERT_EQ(res.status, Status::Optimal) << "after column " << c;
  }
  EXPECT_NEAR(res.objective, cold.objective, 1e-6) << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, ColumnGenerationSweep, ::testing::Range(0, 40));

}  // namespace
}  // namespace olive::lp
