#include "lp/factor.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include "util/error.hpp"

namespace olive::lp {

namespace {

/// Sorted-row representation of the active submatrix during elimination.
struct WorkRow {
  std::vector<int> cols;
  std::vector<double> vals;
  int size() const noexcept { return static_cast<int>(cols.size()); }
  /// Index of `col` in the sorted column list, or -1.
  int find(int col) const noexcept {
    const auto it = std::lower_bound(cols.begin(), cols.end(), col);
    if (it == cols.end() || *it != col) return -1;
    return static_cast<int>(it - cols.begin());
  }
};

}  // namespace

void BasisFactor::factorize(int m, const std::vector<FactorColumn>& cols) {
  factorize_impl(m, cols, /*relaxed=*/false, nullptr, nullptr);
}

void BasisFactor::factorize_relaxed(int m, const std::vector<FactorColumn>& cols,
                                    std::vector<int>* uncovered_rows,
                                    std::vector<int>* unpivoted_positions) {
  factorize_impl(m, cols, /*relaxed=*/true, uncovered_rows,
                 unpivoted_positions);
}

void BasisFactor::factorize_impl(int m, const std::vector<FactorColumn>& cols,
                                 bool relaxed,
                                 std::vector<int>* uncovered_rows,
                                 std::vector<int>* unpivoted_positions) {
  OLIVE_REQUIRE(static_cast<int>(cols.size()) == m,
                "basis must have exactly m columns");
  // m_ flags a usable factorization: it is set only when elimination
  // completes, so a thrown SolverError leaves factorized() == false.
  m_ = 0;
  pivot_row_.clear();
  pivot_col_.clear();
  diag_.clear();
  l_start_.assign(1, 0);
  u_start_.assign(1, 0);
  l_index_.clear();
  l_value_.clear();
  u_index_.clear();
  u_value_.clear();
  etas_.clear();
  eta_nnz_ = 0;
  last_failure_row_ = -1;
  ++stats_.refactorizations;
  if (m == 0) {
    stats_.lu_fill_nnz = 0;
    return;
  }

  // Row-wise working matrix with per-column row lists (lazily cleaned) for
  // pivot-column lookups, plus exact row/column nonzero counts.
  std::vector<WorkRow> rows(m);
  std::vector<std::vector<int>> col_rows(m);  // superset, verify before use
  std::vector<int> ccnt(m, 0);
  for (int k = 0; k < m; ++k) {
    const FactorColumn& c = cols[k];
    for (int e = 0; e < c.nnz; ++e) {
      const int i = c.rows[e];
      OLIVE_REQUIRE(i >= 0 && i < m, "basis column entry row out of range");
      if (c.vals[e] == 0.0) continue;
      rows[i].cols.push_back(k);
      rows[i].vals.push_back(c.vals[e]);
    }
  }
  for (int i = 0; i < m; ++i) {
    WorkRow& r = rows[i];
    // Sort the row by column id and coalesce duplicate (row, column) pairs
    // (callers may pass columns with repeated row entries; they accumulate,
    // matching the simplex's FTRAN of a column).
    std::vector<int> order(r.cols.size());
    for (std::size_t e = 0; e < order.size(); ++e) order[e] = static_cast<int>(e);
    std::sort(order.begin(), order.end(),
              [&](int a, int b) { return r.cols[a] < r.cols[b]; });
    WorkRow sorted;
    sorted.cols.reserve(r.cols.size());
    sorted.vals.reserve(r.vals.size());
    for (const int e : order) {
      if (!sorted.cols.empty() && sorted.cols.back() == r.cols[e]) {
        sorted.vals.back() += r.vals[e];
        continue;
      }
      sorted.cols.push_back(r.cols[e]);
      sorted.vals.push_back(r.vals[e]);
    }
    r = std::move(sorted);
    for (const int j : r.cols) {
      ++ccnt[j];
      col_rows[j].push_back(i);
    }
  }

  std::vector<char> row_active(m, 1), col_active(m, 1);
  std::vector<int> active_rows(m);
  for (int i = 0; i < m; ++i) active_rows[i] = i;

  // Singleton work queues (verified on pop; counts may have moved on).
  std::vector<int> col_singletons, row_singletons;
  for (int j = 0; j < m; ++j)
    if (ccnt[j] == 1) col_singletons.push_back(j);
  for (int i = 0; i < m; ++i)
    if (rows[i].size() == 1) row_singletons.push_back(i);
  std::size_t cs_head = 0, rs_head = 0;

  // Returns the active rows that genuinely contain column j, compacting the
  // lazy list in place (deterministic order: first-insertion order).  The
  // stamp array makes deduplication O(list length); lists accumulate
  // duplicate row ids from repeated fill-in/cancellation cycles.
  std::vector<int> row_stamp(m, -1);
  int stamp = 0;
  const auto rows_of_col = [&](int j) -> std::vector<int>& {
    std::vector<int>& lst = col_rows[j];
    const int this_stamp = stamp++;
    std::size_t kept = 0;
    for (const int i : lst) {
      if (!row_active[i] || row_stamp[i] == this_stamp || rows[i].find(j) < 0)
        continue;
      row_stamp[i] = this_stamp;
      lst[kept++] = i;
    }
    lst.resize(kept);
    return lst;
  };

  // Scratch for row merges.
  std::vector<int> merged_cols;
  std::vector<double> merged_vals;

  // Pivots still needed; rows dropped by the relaxed mode count against it
  // (they will never pivot).
  int remaining = m;

  // Eliminates pivot (pi, pj): records the factor entries for this step and
  // updates every other active row containing pj.
  const auto eliminate = [&](int pi, int pj, double pval) {
    pivot_row_.push_back(pi);
    pivot_col_.push_back(pj);
    diag_.push_back(pval);

    // U row: the pivot row's surviving entries (columns still active).
    WorkRow& prow = rows[pi];
    for (int e = 0; e < prow.size(); ++e) {
      if (prow.cols[e] == pj) continue;
      u_index_.push_back(prow.cols[e]);
      u_value_.push_back(prow.vals[e]);
    }
    u_start_.push_back(static_cast<int>(u_index_.size()));

    // L entries and row updates: row_k -= (a_kpj / pval) * row_pi.
    for (const int k : rows_of_col(pj)) {
      if (k == pi) continue;
      WorkRow& krow = rows[k];
      const int pos = krow.find(pj);
      const double l = krow.vals[pos] / pval;
      l_index_.push_back(k);
      l_value_.push_back(l);

      merged_cols.clear();
      merged_vals.clear();
      merged_cols.reserve(krow.cols.size() + prow.cols.size());
      merged_vals.reserve(krow.cols.size() + prow.cols.size());
      int a = 0, b = 0;
      while (a < krow.size() || b < prow.size()) {
        const int ca = a < krow.size() ? krow.cols[a]
                                       : std::numeric_limits<int>::max();
        const int cb = b < prow.size() ? prow.cols[b]
                                       : std::numeric_limits<int>::max();
        if (ca < cb) {
          merged_cols.push_back(ca);
          merged_vals.push_back(krow.vals[a]);
          ++a;
        } else if (cb < ca) {
          // Fill-in.
          const double v = -l * prow.vals[b];
          if (v != 0.0 && cb != pj) {
            merged_cols.push_back(cb);
            merged_vals.push_back(v);
            ++ccnt[cb];
            col_rows[cb].push_back(k);
            if (ccnt[cb] == 1) col_singletons.push_back(cb);
          }
          ++b;
        } else {
          if (ca != pj) {  // the pj entry cancels exactly by construction
            const double v = krow.vals[a] - l * prow.vals[b];
            if (v != 0.0) {
              merged_cols.push_back(ca);
              merged_vals.push_back(v);
            } else {
              --ccnt[ca];
              if (ccnt[ca] == 1) col_singletons.push_back(ca);
            }
          }
          ++a;
          ++b;
        }
      }
      krow.cols = merged_cols;
      krow.vals = merged_vals;
      if (krow.size() == 0) {
        if (relaxed) {
          // The surviving columns no longer span row k: drop it (one basis
          // position will stay unpivoted to match) and keep going.
          row_active[k] = 0;
          --remaining;
          continue;
        }
        last_failure_row_ = k;
        std::string msg = "singular basis: row ";
        msg += std::to_string(k);
        msg += " vanished during elimination";
        throw SolverError(msg);
      }
      if (krow.size() == 1) row_singletons.push_back(k);
    }
    l_start_.push_back(static_cast<int>(l_index_.size()));

    // Retire the pivot row and column.
    --ccnt[pj];
    for (int e = 0; e < prow.size(); ++e) {
      const int j = prow.cols[e];
      if (j == pj) continue;
      --ccnt[j];
      if (ccnt[j] == 1 && col_active[j]) col_singletons.push_back(j);
    }
    row_active[pi] = 0;
    col_active[pj] = 0;
    prow.cols.clear();
    prow.vals.clear();
  };

  while (remaining > 0) {
    // 1. Column singletons: pivot with no elimination work and zero fill.
    bool advanced = false;
    while (cs_head < col_singletons.size()) {
      const int j = col_singletons[cs_head++];
      if (!col_active[j] || ccnt[j] != 1) continue;
      const std::vector<int>& holders = rows_of_col(j);
      OLIVE_ASSERT(holders.size() == 1);
      const int i = holders[0];
      const double v = rows[i].vals[rows[i].find(j)];
      if (std::abs(v) <= options_.abs_pivot_tol) {
        if (relaxed) {
          // Numerically zero column: retire it unpivoted and delete its
          // lone entry.
          const int pos = rows[i].find(j);
          rows[i].cols.erase(rows[i].cols.begin() + pos);
          rows[i].vals.erase(rows[i].vals.begin() + pos);
          --ccnt[j];
          col_active[j] = 0;
          if (rows[i].size() == 0) {
            row_active[i] = 0;
            --remaining;
          } else if (rows[i].size() == 1) {
            row_singletons.push_back(i);
          }
          advanced = true;
          continue;
        }
        last_failure_row_ = i;
        throw SolverError("singular basis: column singleton below pivot tolerance");
      }
      eliminate(i, j, v);
      --remaining;
      advanced = true;
    }
    if (remaining == 0) break;
    if (advanced) continue;  // new singletons may have been queued

    // 2. Row singletons: single-entry pivot row, updates delete one entry
    // per touched row (no fill).
    while (rs_head < row_singletons.size()) {
      const int i = row_singletons[rs_head++];
      if (!row_active[i] || rows[i].size() != 1) continue;
      const int j = rows[i].cols[0];
      const double v = rows[i].vals[0];
      if (std::abs(v) <= options_.abs_pivot_tol) {
        if (relaxed) {
          // Numerically zero row: drop it uncovered and delete its entry.
          rows[i].cols.clear();
          rows[i].vals.clear();
          row_active[i] = 0;
          --remaining;
          --ccnt[j];
          if (ccnt[j] == 0) {
            col_active[j] = 0;
          } else if (ccnt[j] == 1) {
            col_singletons.push_back(j);
          }
          advanced = true;
          break;
        }
        last_failure_row_ = i;
        throw SolverError("singular basis: row singleton below pivot tolerance");
      }
      eliminate(i, j, v);
      --remaining;
      advanced = true;
      break;  // re-check column singletons first: they are cheaper
    }
    if (advanced) continue;

    // 3. Markowitz search over the remaining (small) core: minimize
    // (rcnt-1)*(ccnt-1) over entries passing the row-relative threshold.
    long best_merit = -1;
    int best_row = -1, best_col = -1;
    double best_val = 0;
    std::size_t kept = 0;
    for (const int i : active_rows) {
      if (!row_active[i]) continue;
      active_rows[kept++] = i;
      const WorkRow& r = rows[i];
      double row_max = 0;
      for (int e = 0; e < r.size(); ++e)
        row_max = std::max(row_max, std::abs(r.vals[e]));
      const double threshold =
          std::max(options_.abs_pivot_tol, options_.rel_pivot_tol * row_max);
      for (int e = 0; e < r.size(); ++e) {
        if (std::abs(r.vals[e]) < threshold) continue;
        const int j = r.cols[e];
        const long merit = static_cast<long>(r.size() - 1) * (ccnt[j] - 1);
        if (best_merit < 0 || merit < best_merit) {
          best_merit = merit;
          best_row = i;
          best_col = j;
          best_val = r.vals[e];
        }
      }
    }
    active_rows.resize(kept);
    if (best_row < 0) {
      if (relaxed) {
        // Nothing admissible remains: every still-active row stays
        // uncovered.
        for (const int i : active_rows) row_active[i] = 0;
        remaining = 0;
        break;
      }
      // Prefer reporting an uncovered (empty) active row; fall back to the
      // first active row.
      for (const int i : active_rows) {
        if (rows[i].size() == 0) {
          last_failure_row_ = i;
          break;
        }
      }
      if (last_failure_row_ < 0 && !active_rows.empty())
        last_failure_row_ = active_rows[0];
      throw SolverError("singular basis: no admissible pivot in active core");
    }
    eliminate(best_row, best_col, best_val);
    --remaining;
  }

  stats_.lu_fill_nnz = static_cast<long>(l_index_.size()) +
                       static_cast<long>(u_index_.size()) + m;
  m_ = m;

  if (relaxed) {
    std::vector<char> row_pivoted(m, 0), col_pivoted(m, 0);
    for (const int i : pivot_row_) row_pivoted[i] = 1;
    for (const int j : pivot_col_) col_pivoted[j] = 1;
    uncovered_rows->clear();
    unpivoted_positions->clear();
    for (int i = 0; i < m; ++i)
      if (!row_pivoted[i]) uncovered_rows->push_back(i);
    for (int j = 0; j < m; ++j)
      if (!col_pivoted[j]) unpivoted_positions->push_back(j);
    OLIVE_ASSERT(uncovered_rows->size() == unpivoted_positions->size());
    if (!uncovered_rows->empty()) m_ = 0;  // incomplete: unusable for solves
  }
}

void BasisFactor::solve_lower(std::vector<double>& x) const {
  for (int t = 0; t < m_; ++t) {
    const double xp = x[pivot_row_[t]];
    if (xp == 0.0) continue;
    for (int e = l_start_[t]; e < l_start_[t + 1]; ++e)
      x[l_index_[e]] -= l_value_[e] * xp;
  }
}

void BasisFactor::solve_upper(std::vector<double>& x) const {
  // Input is indexed by constraint row; the solution is indexed by basis
  // position (= pivot column).  The two index spaces overlap, so the
  // solution is built in a scratch vector and copied back.
  thread_local std::vector<double> work;
  work.assign(m_, 0.0);
  for (int t = m_ - 1; t >= 0; --t) {
    double acc = x[pivot_row_[t]];
    for (int e = u_start_[t]; e < u_start_[t + 1]; ++e)
      acc -= u_value_[e] * work[u_index_[e]];
    work[pivot_col_[t]] = acc / diag_[t];
  }
  x = work;
}

void BasisFactor::solve_upper_transposed(std::vector<double>& x) const {
  // Solve U'ᵀ v = c: input indexed by basis position, output by constraint
  // row, scatter-updating the remaining right-hand side as we go.
  thread_local std::vector<double> work;
  work.assign(m_, 0.0);
  for (int t = 0; t < m_; ++t) {
    const double v = x[pivot_col_[t]] / diag_[t];
    work[pivot_row_[t]] = v;
    if (v == 0.0) continue;
    for (int e = u_start_[t]; e < u_start_[t + 1]; ++e)
      x[u_index_[e]] -= u_value_[e] * v;
  }
  x = work;
}

void BasisFactor::solve_lower_transposed(std::vector<double>& x) const {
  for (int t = m_ - 1; t >= 0; --t) {
    double acc = x[pivot_row_[t]];
    for (int e = l_start_[t]; e < l_start_[t + 1]; ++e)
      acc -= l_value_[e] * x[l_index_[e]];
    x[pivot_row_[t]] = acc;
  }
}

void BasisFactor::ftran(std::vector<double>& x) const {
  OLIVE_ASSERT(static_cast<int>(x.size()) == m_);
  solve_lower(x);
  solve_upper(x);
  for (const Eta& eta : etas_) {
    const double t = x[eta.r] / eta.pivot;
    if (t != 0.0) {
      for (std::size_t e = 0; e < eta.rows.size(); ++e)
        x[eta.rows[e]] -= eta.vals[e] * t;
    }
    x[eta.r] = t;
  }
}

void BasisFactor::btran(std::vector<double>& x) const {
  OLIVE_ASSERT(static_cast<int>(x.size()) == m_);
  for (auto it = etas_.rbegin(); it != etas_.rend(); ++it) {
    const Eta& eta = *it;
    double acc = x[eta.r];
    for (std::size_t e = 0; e < eta.rows.size(); ++e)
      acc -= eta.vals[e] * x[eta.rows[e]];
    x[eta.r] = acc / eta.pivot;
  }
  solve_upper_transposed(x);
  solve_lower_transposed(x);
}

bool BasisFactor::update(int r, const std::vector<double>& alpha) {
  OLIVE_ASSERT(r >= 0 && r < m_);
  if (std::abs(alpha[r]) <= options_.abs_pivot_tol) return false;
  Eta eta;
  eta.r = r;
  eta.pivot = alpha[r];
  for (int i = 0; i < m_; ++i) {
    if (i == r || alpha[i] == 0.0) continue;
    eta.rows.push_back(i);
    eta.vals.push_back(alpha[i]);
  }
  eta_nnz_ += static_cast<long>(eta.rows.size()) + 1;
  etas_.push_back(std::move(eta));
  stats_.eta_length_max =
      std::max(stats_.eta_length_max, static_cast<long>(etas_.size()));
  return true;
}

void BasisFactor::adopt(BasisFactor&& fresh) {
  FactorStats merged = stats_;
  merged.refactorizations += fresh.stats_.refactorizations;
  merged.eta_length_max =
      std::max(merged.eta_length_max, fresh.stats_.eta_length_max);
  merged.lu_fill_nnz = fresh.stats_.lu_fill_nnz;
  *this = std::move(fresh);
  stats_ = merged;
}

bool BasisFactor::needs_refactorization() const noexcept {
  if (static_cast<int>(etas_.size()) >= options_.max_etas) return true;
  return static_cast<double>(eta_nnz_) >
         options_.eta_fill_growth * static_cast<double>(std::max(
                                        stats_.lu_fill_nnz, static_cast<long>(1)));
}

}  // namespace olive::lp
