// Shared LP test helpers: a KKT optimality certificate and a random LP
// generator that is feasible by construction.
//
// The certificate checks primal feasibility, dual sign conditions per row
// sense, and reduced-cost sign conditions per variable bound status against
// the model itself, so it proves optimality independently of the solver's
// internal state.
#pragma once

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "lp/model.hpp"
#include "lp/simplex.hpp"
#include "util/rng.hpp"

namespace olive::lp {

inline constexpr double kKktTol = 1e-6;

inline void expect_kkt_certificate(const Model& m, const SolveResult& res) {
  ASSERT_EQ(res.status, Status::Optimal);
  // Primal feasibility.
  EXPECT_LE(m.max_violation(res.x), kKktTol);
  EXPECT_NEAR(m.objective_value(res.x), res.objective, kKktTol * 10);

  // Row dual signs: LE rows need y <= 0, GE rows y >= 0 (EQ free), plus
  // complementary slackness (nonzero dual only on binding rows).
  std::vector<double> activity(m.num_rows(), 0.0);
  for (int c = 0; c < m.num_cols(); ++c)
    for (const auto& [r, v] : m.col(c)) activity[r] += v * res.x[c];
  for (int r = 0; r < m.num_rows(); ++r) {
    const double y = res.duals[r];
    switch (m.row_sense(r)) {
      case Sense::LE:
        EXPECT_LE(y, kKktTol) << "row " << r;
        if (y < -kKktTol) {
          EXPECT_NEAR(activity[r], m.row_rhs(r), kKktTol) << "row " << r;
        }
        break;
      case Sense::GE:
        EXPECT_GE(y, -kKktTol) << "row " << r;
        if (y > kKktTol) {
          EXPECT_NEAR(activity[r], m.row_rhs(r), kKktTol) << "row " << r;
        }
        break;
      case Sense::EQ:
        break;
    }
  }

  // Reduced-cost conditions per variable.
  for (int c = 0; c < m.num_cols(); ++c) {
    double d = m.col_cost(c);
    for (const auto& [r, v] : m.col(c)) d -= res.duals[r] * v;
    const double x = res.x[c];
    const bool at_lower = x <= m.col_lo(c) + kKktTol;
    const bool at_upper = x >= m.col_up(c) - kKktTol;
    if (at_lower && at_upper) continue;  // fixed/degenerate: any sign fine
    if (at_lower) {
      EXPECT_GE(d, -kKktTol) << "col " << c;
    } else if (at_upper) {
      EXPECT_LE(d, kKktTol) << "col " << c;
    } else {
      EXPECT_NEAR(d, 0.0, kKktTol) << "col " << c;
    }
  }
}

/// Builds a random LP guaranteed feasible: constraints are generated around
/// a known interior point.
inline Model random_feasible_lp(Rng& rng, int n_cols, int n_rows) {
  Model m;
  std::vector<double> point(n_cols);
  for (int c = 0; c < n_cols; ++c) {
    const double lo = rng.uniform(-5.0, 0.0);
    const double up = lo + rng.uniform(0.5, 10.0);
    point[c] = rng.uniform(lo, up);
    m.add_col(lo, up, rng.uniform(-10.0, 10.0));
  }
  for (int r = 0; r < n_rows; ++r) {
    double act = 0;
    std::vector<std::pair<int, double>> entries;
    for (int c = 0; c < n_cols; ++c) {
      if (!rng.chance(0.6)) continue;
      const double coeff = rng.uniform(-4.0, 4.0);
      entries.emplace_back(c, coeff);
      act += coeff * point[c];
    }
    const int kind = static_cast<int>(rng.below(3));
    int row;
    if (kind == 0) {
      row = m.add_row(Sense::LE, act + rng.uniform(0.0, 5.0));
    } else if (kind == 1) {
      row = m.add_row(Sense::GE, act - rng.uniform(0.0, 5.0));
    } else {
      row = m.add_row(Sense::EQ, act);
    }
    for (const auto& [c, v] : entries) m.add_entry(row, c, v);
  }
  return m;
}

}  // namespace olive::lp
