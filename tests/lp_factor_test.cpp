// Unit tests for the sparse LU basis factorization (lp/factor.hpp):
// FTRAN/BTRAN correctness against a dense reference solve, singular-basis
// rejection, the relaxed rank-revealing mode, eta updates, and the
// refactorization triggers — plus simplex-level checks that eta replay
// after resolve() keeps the factor consistent.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "lp/factor.hpp"
#include "lp/model.hpp"
#include "lp/simplex.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace olive::lp {
namespace {

/// Sparse columns with owned storage, viewable as FactorColumn.
struct TestMatrix {
  int m = 0;
  std::vector<std::vector<int>> rows;
  std::vector<std::vector<double>> vals;

  std::vector<FactorColumn> view() const {
    std::vector<FactorColumn> v(m);
    for (int k = 0; k < m; ++k)
      v[k] = {rows[k].data(), vals[k].data(), static_cast<int>(rows[k].size())};
    return v;
  }

  /// Dense column-major copy for the reference solves.
  std::vector<double> dense() const {
    std::vector<double> d(static_cast<std::size_t>(m) * m, 0.0);
    for (int k = 0; k < m; ++k)
      for (std::size_t e = 0; e < rows[k].size(); ++e)
        d[static_cast<std::size_t>(k) * m + rows[k][e]] += vals[k][e];
    return d;
  }
};

/// Random sparse nonsingular-ish matrix: a signed permutation diagonal
/// (guarantees structural nonsingularity) plus random off-diagonal fill.
TestMatrix random_basis(Rng& rng, int m, double fill) {
  TestMatrix t;
  t.m = m;
  t.rows.resize(m);
  t.vals.resize(m);
  std::vector<int> perm(m);
  for (int i = 0; i < m; ++i) perm[i] = i;
  for (int i = m - 1; i > 0; --i)
    std::swap(perm[i], perm[rng.below(static_cast<std::uint64_t>(i) + 1)]);
  for (int k = 0; k < m; ++k) {
    t.rows[k].push_back(perm[k]);
    t.vals[k].push_back(rng.uniform(0.5, 2.0) * (rng.below(2) ? 1 : -1));
    for (int i = 0; i < m; ++i) {
      if (i == perm[k]) continue;
      if (rng.uniform(0.0, 1.0) < fill) {
        t.rows[k].push_back(i);
        t.vals[k].push_back(rng.uniform(-1.0, 1.0));
      }
    }
  }
  return t;
}

/// Dense Gaussian elimination solve of A x = b (A column-major).
std::vector<double> dense_solve(std::vector<double> a, std::vector<double> b,
                                int m, bool transpose) {
  // Build row-major working matrix W = A or A^T.
  std::vector<double> w(static_cast<std::size_t>(m) * m);
  for (int i = 0; i < m; ++i)
    for (int j = 0; j < m; ++j)
      w[static_cast<std::size_t>(i) * m + j] =
          transpose ? a[static_cast<std::size_t>(i) * m + j]
                    : a[static_cast<std::size_t>(j) * m + i];
  for (int piv = 0; piv < m; ++piv) {
    int arg = piv;
    for (int i = piv + 1; i < m; ++i)
      if (std::abs(w[static_cast<std::size_t>(i) * m + piv]) >
          std::abs(w[static_cast<std::size_t>(arg) * m + piv]))
        arg = i;
    if (arg != piv) {
      for (int j = 0; j < m; ++j)
        std::swap(w[static_cast<std::size_t>(arg) * m + j],
                  w[static_cast<std::size_t>(piv) * m + j]);
      std::swap(b[arg], b[piv]);
    }
    const double d = w[static_cast<std::size_t>(piv) * m + piv];
    for (int i = piv + 1; i < m; ++i) {
      const double f = w[static_cast<std::size_t>(i) * m + piv] / d;
      if (f == 0.0) continue;
      for (int j = piv; j < m; ++j)
        w[static_cast<std::size_t>(i) * m + j] -=
            f * w[static_cast<std::size_t>(piv) * m + j];
      b[i] -= f * b[piv];
    }
  }
  std::vector<double> x(m);
  for (int i = m - 1; i >= 0; --i) {
    double acc = b[i];
    for (int j = i + 1; j < m; ++j)
      acc -= w[static_cast<std::size_t>(i) * m + j] * x[j];
    x[i] = acc / w[static_cast<std::size_t>(i) * m + i];
  }
  return x;
}

TEST(BasisFactor, FtranBtranMatchDenseReference) {
  Rng rng(stable_hash("factor-ftran"));
  for (const int m : {1, 2, 7, 25, 80}) {
    const TestMatrix t = random_basis(rng, m, 3.0 / std::max(4, m));
    BasisFactor f;
    f.factorize(m, t.view());
    EXPECT_TRUE(f.factorized());
    const auto dense = t.dense();
    for (int trial = 0; trial < 3; ++trial) {
      std::vector<double> b(m);
      for (int i = 0; i < m; ++i) b[i] = rng.uniform(-5.0, 5.0);

      std::vector<double> x = b;
      f.ftran(x);
      const auto x_ref = dense_solve(dense, b, m, /*transpose=*/false);
      for (int i = 0; i < m; ++i)
        EXPECT_NEAR(x[i], x_ref[i], 1e-8 * (1 + std::abs(x_ref[i])))
            << "m=" << m << " i=" << i;

      std::vector<double> y = b;
      f.btran(y);
      const auto y_ref = dense_solve(dense, b, m, /*transpose=*/true);
      for (int i = 0; i < m; ++i)
        EXPECT_NEAR(y[i], y_ref[i], 1e-8 * (1 + std::abs(y_ref[i])))
            << "m=" << m << " i=" << i;
    }
  }
}

TEST(BasisFactor, SingletonDominatedBasisFactorizesWithLowFill) {
  // The PLAN-VNE master regime: mostly slack (unit) columns.  The
  // triangular singleton passes must factorize it with zero fill beyond
  // the input nonzeros.
  Rng rng(stable_hash("factor-slack"));
  const int m = 200;
  TestMatrix t;
  t.m = m;
  t.rows.resize(m);
  t.vals.resize(m);
  long input_nnz = 0;
  for (int k = 0; k < m; ++k) {
    t.rows[k].push_back(k);
    t.vals[k].push_back(1.0);
    ++input_nnz;
    if (k % 10 == 0 && k + 3 < m) {  // a few coupled columns
      t.rows[k].push_back(k + 3);
      t.vals[k].push_back(rng.uniform(0.1, 1.0));
      ++input_nnz;
    }
  }
  BasisFactor f;
  f.factorize(m, t.view());
  EXPECT_LE(f.stats().lu_fill_nnz, input_nnz + m);
}

TEST(BasisFactor, RejectsSingularBases) {
  // Duplicate columns.
  {
    TestMatrix t;
    t.m = 2;
    t.rows = {{0, 1}, {0, 1}};
    t.vals = {{1.0, 2.0}, {1.0, 2.0}};
    BasisFactor f;
    EXPECT_THROW(f.factorize(2, t.view()), SolverError);
    EXPECT_GE(f.last_failure_row(), 0);
  }
  // A row no column covers.
  {
    TestMatrix t;
    t.m = 3;
    t.rows = {{0}, {1}, {0, 1}};
    t.vals = {{1.0}, {1.0}, {0.5, 0.5}};
    BasisFactor f;
    EXPECT_THROW(f.factorize(3, t.view()), SolverError);
  }
  // Numerically zero pivot.
  {
    TestMatrix t;
    t.m = 2;
    t.rows = {{0}, {1}};
    t.vals = {{1e-15}, {1.0}};
    BasisFactor f;
    EXPECT_THROW(f.factorize(2, t.view()), SolverError);
  }
}

TEST(BasisFactor, RelaxedModeReportsUncoveredRowsAndUnpivotedPositions) {
  // Columns 0 and 1 are identical: one of them cannot pivot, and one row
  // loses coverage.  The relaxed mode reports the pair instead of throwing.
  TestMatrix t;
  t.m = 3;
  t.rows = {{0, 1}, {0, 1}, {2}};
  t.vals = {{1.0, 2.0}, {1.0, 2.0}, {1.0}};
  BasisFactor f;
  std::vector<int> uncovered, unpivoted;
  f.factorize_relaxed(3, t.view(), &uncovered, &unpivoted);
  ASSERT_EQ(uncovered.size(), 1u);
  ASSERT_EQ(unpivoted.size(), 1u);
  EXPECT_TRUE(uncovered[0] == 0 || uncovered[0] == 1);
  EXPECT_TRUE(unpivoted[0] == 0 || unpivoted[0] == 1);
  EXPECT_FALSE(f.factorized());  // incomplete: unusable until strict refactor

  // A nonsingular matrix through the relaxed path is complete and usable.
  Rng rng(stable_hash("factor-relaxed"));
  const TestMatrix ok = random_basis(rng, 30, 0.1);
  f.factorize_relaxed(30, ok.view(), &uncovered, &unpivoted);
  EXPECT_TRUE(uncovered.empty());
  EXPECT_TRUE(unpivoted.empty());
  EXPECT_TRUE(f.factorized());
  std::vector<double> b(30, 1.0), x = b;
  f.ftran(x);
  const auto x_ref = dense_solve(ok.dense(), b, 30, false);
  for (int i = 0; i < 30; ++i) EXPECT_NEAR(x[i], x_ref[i], 1e-8);
}

TEST(BasisFactor, EtaUpdatesTrackColumnReplacement) {
  Rng rng(stable_hash("factor-eta"));
  const int m = 40;
  TestMatrix t = random_basis(rng, m, 0.08);
  BasisFactor f;
  f.factorize(m, t.view());

  for (int rep = 0; rep < 10; ++rep) {
    // Replace a random basis position with a fresh random column.
    const int r = static_cast<int>(rng.below(m));
    std::vector<int> new_rows;
    std::vector<double> new_vals;
    for (int i = 0; i < m; ++i)
      if (i == r || rng.uniform(0.0, 1.0) < 0.15) {
        new_rows.push_back(i);
        new_vals.push_back(rng.uniform(0.2, 2.0));
      }
    // alpha = B^-1 a_q must have a usable pivot at r before updating.
    std::vector<double> alpha(m, 0.0);
    for (std::size_t e = 0; e < new_rows.size(); ++e)
      alpha[new_rows[e]] += new_vals[e];
    f.ftran(alpha);
    if (std::abs(alpha[r]) < 1e-6) continue;  // degenerate draw: skip
    ASSERT_TRUE(f.update(r, alpha));
    t.rows[r] = new_rows;
    t.vals[r] = new_vals;

    // FTRAN and BTRAN through the eta file must match a dense solve of the
    // *updated* matrix.
    std::vector<double> b(m);
    for (int i = 0; i < m; ++i) b[i] = rng.uniform(-2.0, 2.0);
    std::vector<double> x = b, y = b;
    f.ftran(x);
    f.btran(y);
    const auto dense = t.dense();
    const auto x_ref = dense_solve(dense, b, m, false);
    const auto y_ref = dense_solve(dense, b, m, true);
    for (int i = 0; i < m; ++i) {
      EXPECT_NEAR(x[i], x_ref[i], 1e-6 * (1 + std::abs(x_ref[i])));
      EXPECT_NEAR(y[i], y_ref[i], 1e-6 * (1 + std::abs(y_ref[i])));
    }
  }
  EXPECT_GT(f.eta_count(), 0);
  EXPECT_GT(f.stats().eta_length_max, 0);
}

TEST(BasisFactor, RefactorizationTriggers) {
  Rng rng(stable_hash("factor-triggers"));
  const int m = 20;
  TestMatrix t = random_basis(rng, m, 0.1);
  FactorOptions opts;
  opts.max_etas = 3;
  BasisFactor f(opts);
  f.factorize(m, t.view());
  EXPECT_FALSE(f.needs_refactorization());

  std::vector<double> alpha(m, 0.0);
  int updates = 0;
  for (int r = 0; r < m && updates < 3; ++r) {
    std::fill(alpha.begin(), alpha.end(), 0.0);
    alpha[r] = 1.0;  // re-enter a unit column: valid, pivot 1 at r
    f.ftran(alpha);
    if (std::abs(alpha[r]) < 1e-9) continue;
    ASSERT_TRUE(f.update(r, alpha));
    ++updates;
  }
  ASSERT_EQ(updates, 3);
  EXPECT_TRUE(f.needs_refactorization());  // eta-length trigger
  f.factorize(m, t.view());
  EXPECT_EQ(f.eta_count(), 0);
  EXPECT_FALSE(f.needs_refactorization());

  // Fill-growth trigger: tiny allowed growth means a single dense-ish eta
  // trips it even below the eta-count cap.
  FactorOptions tight;
  tight.max_etas = 1000;
  tight.eta_fill_growth = 0.01;
  BasisFactor g(tight);
  g.factorize(m, t.view());
  std::fill(alpha.begin(), alpha.end(), 1.0);
  ASSERT_TRUE(g.update(0, alpha));
  EXPECT_TRUE(g.needs_refactorization());

  // update() refuses a pivot below tolerance.
  std::fill(alpha.begin(), alpha.end(), 1.0);
  alpha[2] = 1e-15;
  EXPECT_FALSE(g.update(2, alpha));
}

TEST(SimplexFactor, EtaReplayAfterResolveMatchesFreshSolve) {
  // Column generation: add_column + resolve() (which runs on the
  // eta-updated factor) must reach the same optimum as a fresh solve of the
  // final model, and the factor stats must reflect the eta lifecycle.
  Rng rng(stable_hash("factor-replay"));
  for (int draw = 0; draw < 5; ++draw) {
    Model m;
    for (int c = 0; c < 40; ++c)
      m.add_col(0, rng.uniform(0.5, 2.0), rng.uniform(-4.0, 4.0));
    for (int r = 0; r < 15; ++r) {
      const int row = m.add_row(Sense::LE, rng.uniform(2.0, 8.0));
      for (int k = 0; k < 5; ++k)
        m.add_entry(row, static_cast<int>(rng.below(40)), rng.uniform(0.1, 1.2));
    }
    Simplex incremental(m);
    auto res = incremental.solve();
    ASSERT_EQ(res.status, Status::Optimal);

    for (int batch = 0; batch < 3; ++batch) {
      for (int k = 0; k < 15; ++k) {
        const double up = rng.uniform(0.5, 2.0);
        const double cost = rng.uniform(-5.0, 1.0);
        SparseColumn entries;
        for (int e = 0; e < 4; ++e)
          entries.emplace_back(static_cast<int>(rng.below(15)),
                               rng.uniform(0.1, 1.2));
        incremental.add_column(0, up, cost, entries);
        m.add_col_with_entries(0, up, cost, entries);
      }
      res = incremental.resolve();
      ASSERT_EQ(res.status, Status::Optimal);
      const auto fresh = solve_lp(m);
      ASSERT_EQ(fresh.status, Status::Optimal);
      EXPECT_NEAR(res.objective, fresh.objective,
                  1e-7 * (1 + std::abs(fresh.objective)))
          << "draw " << draw << " batch " << batch;
      EXPECT_LE(m.max_violation(res.x), 1e-6);
    }
    EXPECT_GT(incremental.factor_stats().refactorizations, 0);
  }
}

}  // namespace
}  // namespace olive::lp
