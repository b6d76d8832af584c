#include "lp/simplex.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <unordered_map>

#include "util/error.hpp"

namespace olive::lp {

namespace {
constexpr double kPivotTol = 1e-9;
constexpr int kDegenerateRunForBland = 40;
/// Primal feasibility tolerance (absolute, on variable bounds).
constexpr double kFeasTol = 1e-7;
/// Reduced-cost optimality tolerance.
constexpr double kOptTol = 1e-9;
/// Trailing pivot window of the early-termination rule
/// (SimplexOptions::early_term_gap), also the minimum pivot count before it
/// may fire.
constexpr int kEarlyTermWindow = 32;
/// How many columns a full pricing scan keeps as candidates.
constexpr std::size_t kCandidateListSize = 128;
/// Below this many internal columns every iteration scans everything: the
/// candidate-list bookkeeping costs more than it saves on small LPs.
constexpr int kPartialPricingMinCols = 192;
}  // namespace

const char* to_string(Status s) noexcept {
  switch (s) {
    case Status::Optimal: return "Optimal";
    case Status::Infeasible: return "Infeasible";
    case Status::Unbounded: return "Unbounded";
    case Status::IterationLimit: return "IterationLimit";
    case Status::GoodEnough: return "GoodEnough";
  }
  return "?";
}

Simplex::Simplex(const Model& model, SimplexOptions options)
    : options_(options) {
  build_standard_form(model);
}

void Simplex::build_standard_form(const Model& model) {
  n_structural_ = model.num_cols();
  n_rows_ = model.num_rows();
  cols_.clear();
  cols_.reserve(static_cast<std::size_t>(n_structural_ + n_rows_));
  model_index_.clear();
  fingerprint_.clear();
  artificial_.clear();

  for (int c = 0; c < n_structural_; ++c) {
    Column col;
    col.lo = model.col_lo(c);
    col.up = model.col_up(c);
    col.cost = model.col_cost(c);
    OLIVE_REQUIRE(col.lo > -kInf || col.up < kInf,
                  "free variables are not supported; give one finite bound");
    for (const auto& [r, v] : model.col(c)) {
      col.rows.push_back(r);
      col.vals.push_back(v);
    }
    cols_.push_back(std::move(col));
    model_index_.push_back(c);
    fingerprint_.push_back(model.col_fingerprint(c));
    artificial_.push_back(0);
  }

  rhs_.resize(n_rows_);
  slack_col_.resize(n_rows_);
  for (int r = 0; r < n_rows_; ++r) {
    rhs_[r] = model.row_rhs(r);
    Column slack;
    slack.rows = {r};
    slack.vals = {1.0};
    slack.cost = 0.0;
    switch (model.row_sense(r)) {
      case Sense::LE: slack.lo = 0.0;   slack.up = kInf; break;
      case Sense::GE: slack.lo = -kInf; slack.up = 0.0;  break;
      case Sense::EQ: slack.lo = 0.0;   slack.up = 0.0;  break;
    }
    slack_col_[r] = static_cast<int>(cols_.size());
    cols_.push_back(std::move(slack));
    model_index_.push_back(-1);
    fingerprint_.push_back(static_cast<std::uint64_t>(slack_col_[r]));
    artificial_.push_back(0);
  }
  has_basis_ = false;
}

double Simplex::value_of(int col) const {
  const Column& c = cols_[col];
  switch (status_[col]) {
    case VarStatus::Basic: return xb_[basis_pos_[col]];
    case VarStatus::AtLower:
    case VarStatus::Fixed: return c.lo;
    case VarStatus::AtUpper: return c.up;
  }
  return 0;
}

void Simplex::drop_artificials() {
  while (!cols_.empty() && artificial_.back()) {
    cols_.pop_back();
    model_index_.pop_back();
    fingerprint_.pop_back();
    artificial_.pop_back();
  }
}

void Simplex::reset_nonbasic_statuses() {
  const int n = static_cast<int>(cols_.size());
  status_.assign(n, VarStatus::AtLower);
  for (int c = 0; c < n; ++c) {
    const Column& col = cols_[c];
    if (col.lo == col.up) {
      status_[c] = VarStatus::Fixed;
    } else if (col.lo > -kInf) {
      status_[c] = VarStatus::AtLower;
    } else {
      status_[c] = VarStatus::AtUpper;
    }
  }
}

void Simplex::install_slack_basis() {
  // Drop artificial columns from any previous solve.
  drop_artificials();
  reset_nonbasic_statuses();
  crash_basis_from_residuals();
}

/// Demotes every basic structural column to its nearest bound and rebuilds
/// the basis from slacks/artificials.  With the nonbasic statuses kept from
/// a warm start this is the "status crash": always feasible by
/// construction, near-optimal when the statuses came from a neighboring
/// optimum.
void Simplex::crash_basis_from_statuses() {
  drop_artificials();
  status_.resize(cols_.size());  // shed statuses of the dropped artificials
  for (std::size_t c = 0; c < cols_.size(); ++c) {
    if (status_[c] != VarStatus::Basic) continue;
    const Column& col = cols_[c];
    const double v = basis_pos_[c] >= 0 ? xb_[basis_pos_[c]] : col.lo;
    if (col.lo == col.up) {
      status_[c] = VarStatus::Fixed;
    } else if (col.lo <= -kInf) {
      status_[c] = VarStatus::AtUpper;
    } else if (col.up >= kInf) {
      status_[c] = VarStatus::AtLower;
    } else {
      status_[c] = (v - col.lo <= col.up - v) ? VarStatus::AtLower
                                              : VarStatus::AtUpper;
    }
  }
  crash_basis_from_residuals();
}

void Simplex::crash_basis_from_residuals() {
  // Residual each row's slack would have to absorb.
  std::vector<double> residual = rhs_;
  for (std::size_t c = 0; c < cols_.size(); ++c) {
    if (model_index_[c] < 0) continue;  // only structural columns
    const double v = value_of(static_cast<int>(c));
    if (v == 0.0) continue;
    const Column& col = cols_[c];
    for (std::size_t k = 0; k < col.rows.size(); ++k)
      residual[col.rows[k]] -= col.vals[k] * v;
  }

  basis_.assign(n_rows_, -1);
  xb_.assign(n_rows_, 0.0);
  for (int r = 0; r < n_rows_; ++r) {
    const int slack = slack_col_[r];
    const Column& s = cols_[slack];
    if (residual[r] >= s.lo - kFeasTol && residual[r] <= s.up + kFeasTol) {
      basis_[r] = slack;
      status_[slack] = VarStatus::Basic;
      xb_[r] = residual[r];
    } else {
      // Clamp the slack to its nearest bound and cover the gap with a
      // non-negative artificial column (phase-1 objective drives it to 0).
      const double clamped = std::clamp(residual[r], s.lo, s.up);
      status_[slack] = (s.lo == s.up) ? VarStatus::Fixed
                       : (clamped == s.lo ? VarStatus::AtLower
                                          : VarStatus::AtUpper);
      const double gap = residual[r] - clamped;
      basis_[r] = append_artificial(r, gap > 0 ? 1.0 : -1.0);
      xb_[r] = std::abs(gap);
    }
  }

  basis_pos_.assign(cols_.size(), -1);
  for (int r = 0; r < n_rows_; ++r) basis_pos_[basis_[r]] = r;
  needs_phase1_ = false;

  factorize_basis();

  has_basis_ = true;
  needs_phase1_ = false;
}

void Simplex::compute_basic_values() {
  std::vector<double>& v = scratch_values_;
  v = rhs_;
  const int n = static_cast<int>(cols_.size());
  for (int c = 0; c < n; ++c) {
    if (status_[c] == VarStatus::Basic) continue;
    const double val = value_of(c);
    if (val == 0.0) continue;
    const Column& col = cols_[c];
    for (std::size_t k = 0; k < col.rows.size(); ++k)
      v[col.rows[k]] -= col.vals[k] * val;
  }
  factor_.ftran(v);
  xb_ = v;
}

void Simplex::compute_duals(const std::vector<double>& costs,
                            std::vector<double>& y) {
  std::vector<double>& cb = scratch_cb_;
  cb.resize(n_rows_);
  bool any = false;
  for (int k = 0; k < n_rows_; ++k) {
    cb[k] = costs[basis_[k]];
    any |= cb[k] != 0.0;
  }
  if (!any) {
    y.assign(n_rows_, 0.0);
    return;
  }
  y = cb;
  factor_.btran(y);
}

void Simplex::ftran(const Column& col, std::vector<double>& out) {
  out.assign(n_rows_, 0.0);
  for (std::size_t k = 0; k < col.rows.size(); ++k)
    out[col.rows[k]] += col.vals[k];
  factor_.ftran(out);
}

void Simplex::basis_row(int r, std::vector<double>& rho) {
  rho.assign(n_rows_, 0.0);
  rho[r] = 1.0;
  factor_.btran(rho);
}

double Simplex::reduced_cost(int c, const std::vector<double>& y,
                             const std::vector<double>& costs) const {
  const Column& col = cols_[c];
  double d = costs[c];
  for (std::size_t k = 0; k < col.rows.size(); ++k)
    d -= y[col.rows[k]] * col.vals[k];
  return d;
}

bool Simplex::price_eligible(VarStatus st, int c, double d, double* score,
                             int* dir) const {
  // Eligibility (reduced cost beyond kOptTol in the improving direction) is
  // rule-independent; only the score that ranks eligible columns changes.
  if (st == VarStatus::AtLower && d < -kOptTol) {
    *score = options_.pricing == PricingRule::Dantzig ? -d : d * d / weight_[c];
    *dir = +1;
    return true;
  }
  if (st == VarStatus::AtUpper && d > kOptTol) {
    *score = options_.pricing == PricingRule::Dantzig ? d : d * d / weight_[c];
    *dir = -1;
    return true;
  }
  return false;
}

void Simplex::reset_pricing_weights() {
  // Called at every run() start and after every refactorization: eta-file
  // resets invalidate nothing mathematically, but restarting the framework
  // there keeps the approximation error bounded by the refactor interval
  // and makes the weight state a pure function of the pivot history.
  //
  // The restart installs the static norms 1 + ||a_j||^2 — exact for B = I
  // (the cold-start slack basis) and a far better estimate of
  // 1 + ||B^-1 a_j||^2 than 1.0 for the columns the per-pivot recurrence
  // never touches (it only updates the candidate list, so with unit resets
  // a full scan would rank almost every column exactly like Dantzig).
  if (options_.pricing == PricingRule::Dantzig) return;
  weight_.resize(cols_.size());
  for (std::size_t c = 0; c < cols_.size(); ++c) {
    double norm2 = 1.0;
    for (const double v : cols_[c].vals) norm2 += v * v;
    weight_[c] = norm2;
  }
}

void Simplex::update_pricing_weights(int entering, int leaving, double pivot,
                                     const std::vector<double>& rho) {
  if (options_.pricing == PricingRule::Dantzig) return;
  // Forrest–Goldfarb max-form recurrence over the reference framework:
  // gamma_q is the entering column's framework weight (anchored to the
  // exact slack-basis norms by reset_pricing_weights).
  //
  // The update is restricted to the candidate list: those are the only
  // columns that can enter before the next full scan rebuilds the list
  // (and with it the reference anchoring), so the per-pivot cost stays
  // proportional to the working set.  With rho = row r of the old B^-1,
  // alpha_rj = rho · a_j.
  //
  // (The exact Goldfarb–Reid update — subtractive term via an extra BTRAN
  // per pivot — was measured on the FatTree16 colgen master and lost to
  // this max form: 94975 vs 92855 pivots.  The max form never
  // underestimates a weight, which matters when resets re-anchor the
  // framework every refactorization anyway.)
  const double gamma_q = weight_[entering];
  const double inv_pivot2 = 1.0 / (pivot * pivot);
  for (const int c : candidates_) {
    if (c == entering) continue;
    const VarStatus st = status_[c];
    if (st == VarStatus::Basic || st == VarStatus::Fixed) continue;
    const Column& col = cols_[c];
    double arj = 0;
    for (std::size_t k = 0; k < col.rows.size(); ++k)
      arj += rho[col.rows[k]] * col.vals[k];
    if (arj == 0.0) continue;
    const double cand = arj * arj * inv_pivot2 * gamma_q;
    if (cand > weight_[c]) weight_[c] = cand;
  }
  // The leaving column re-enters the nonbasic pool with the weight its own
  // basis image implies (its image is e_r scaled by 1/pivot).
  weight_[leaving] = std::max(gamma_q * inv_pivot2, 1.0);
}

bool Simplex::better_candidate(double score, int c, double best_score,
                               int best) const {
  if (score != best_score) return score > best_score;
  if (best < 0) return true;
  const std::uint64_t fc = fingerprint_[c], fb = fingerprint_[best];
  if (fc != fb) return fc < fb;
  return c < best;
}

int Simplex::price_full_scan(const std::vector<double>& y,
                             const std::vector<double>& costs, bool bland,
                             int* direction, double* entering_rc) {
  const int n = static_cast<int>(cols_.size());
  const bool keep_candidates = !bland && n >= kPartialPricingMinCols;
  scratch_eligible_.clear();
  int best = -1, best_dir = 0;
  // Weighted scores (d^2/w) can be legitimately below kOptTol for an
  // eligible column, so only Dantzig may use the tolerance as a floor.
  double best_score = options_.pricing == PricingRule::Dantzig ? kOptTol : 0.0;
  double best_rc = 0;
  for (int c = 0; c < n; ++c) {
    const VarStatus st = status_[c];
    if (st == VarStatus::Basic || st == VarStatus::Fixed) continue;
    const double d = reduced_cost(c, y, costs);
    double score;
    int dir;
    if (!price_eligible(st, c, d, &score, &dir)) continue;
    if (bland) {  // first eligible index
      *direction = dir;
      *entering_rc = d;
      return c;
    }
    if (keep_candidates) scratch_eligible_.emplace_back(score, c);
    if (better_candidate(score, c, best_score, best)) {
      best_score = score;
      best = c;
      best_dir = dir;
      best_rc = d;
    }
  }
  if (keep_candidates) {
    // Seed the candidate list with the most attractive columns.  The
    // comparator is a total order (score, then fingerprint, then index), so
    // membership at the cap boundary is deterministic.
    const auto prefer = [this](const std::pair<double, int>& a,
                               const std::pair<double, int>& b) {
      if (a.first != b.first) return a.first > b.first;
      const std::uint64_t fa = fingerprint_[a.second];
      const std::uint64_t fb = fingerprint_[b.second];
      if (fa != fb) return fa < fb;
      return a.second < b.second;
    };
    if (scratch_eligible_.size() > kCandidateListSize) {
      std::nth_element(scratch_eligible_.begin(),
                       scratch_eligible_.begin() + kCandidateListSize - 1,
                       scratch_eligible_.end(), prefer);
      scratch_eligible_.resize(kCandidateListSize);
    }
    candidates_.clear();
    for (const auto& [score, c] : scratch_eligible_) candidates_.push_back(c);
  }
  *direction = best_dir;
  *entering_rc = best_rc;
  return best;
}

int Simplex::price(const std::vector<double>& y, const std::vector<double>& costs,
                   bool bland, int* direction, double* entering_rc) {
  const int n = static_cast<int>(cols_.size());
  if (bland || n < kPartialPricingMinCols)
    return price_full_scan(y, costs, bland, direction, entering_rc);

  // Minor iteration: reprice just the candidates (exact reduced costs under
  // the current duals), dropping the ones that are no longer attractive.
  int best = -1, best_dir = 0;
  double best_score = options_.pricing == PricingRule::Dantzig ? kOptTol : 0.0;
  double best_rc = 0;
  std::size_t kept = 0;
  for (const int c : candidates_) {
    const VarStatus st = status_[c];
    if (st == VarStatus::Basic || st == VarStatus::Fixed) continue;
    const double d = reduced_cost(c, y, costs);
    double score;
    int dir;
    if (!price_eligible(st, c, d, &score, &dir)) continue;  // stale: drop
    candidates_[kept++] = c;
    if (better_candidate(score, c, best_score, best)) {
      best_score = score;
      best = c;
      best_dir = dir;
      best_rc = d;
    }
  }
  candidates_.resize(kept);
  if (best >= 0) {
    *direction = best_dir;
    *entering_rc = best_rc;
    return best;
  }
  // Candidate list ran dry: full refresh.  Optimality is only ever declared
  // here, after a clean scan of every column.
  return price_full_scan(y, costs, /*bland=*/false, direction, entering_rc);
}

double Simplex::phase1_infeasibility() const {
  double total = 0;
  for (std::size_t c = 0; c < cols_.size(); ++c)
    if (artificial_[c] && status_[c] == VarStatus::Basic)
      total += std::abs(xb_[basis_pos_[c]]);
  return total;
}

void Simplex::prepare_phase1_costs(std::vector<double>& costs) const {
  costs.assign(cols_.size(), 0.0);
  for (std::size_t c = 0; c < cols_.size(); ++c)
    if (artificial_[c]) costs[c] = 1.0;
}

void Simplex::gather_basis_columns() {
  scratch_factor_cols_.resize(n_rows_);
  for (int k = 0; k < n_rows_; ++k) {
    const Column& col = cols_[basis_[k]];
    scratch_factor_cols_[k] = {col.rows.data(), col.vals.data(),
                               static_cast<int>(col.rows.size())};
  }
}

int Simplex::append_artificial(int row, double coeff) {
  Column art;
  art.rows = {row};
  art.vals = {coeff};
  art.lo = 0.0;
  art.up = kInf;
  art.cost = 0.0;
  cols_.push_back(std::move(art));
  model_index_.push_back(-1);
  fingerprint_.push_back(cols_.size() - 1);
  artificial_.push_back(1);
  status_.push_back(VarStatus::Basic);
  return static_cast<int>(cols_.size()) - 1;
}

void Simplex::factorize_basis() {
  gather_basis_columns();
  factor_.factorize(n_rows_, scratch_factor_cols_);
}

void Simplex::refactorize() {
  factorize_basis();
  compute_basic_values();
}

SolveResult Simplex::run(bool phase1, long& iteration_budget) {
  std::vector<double>& costs = scratch_costs_;
  if (phase1) {
    prepare_phase1_costs(costs);
  } else {
    costs.resize(cols_.size());
    for (std::size_t c = 0; c < cols_.size(); ++c) costs[c] = cols_[c].cost;
  }

  // Duals for the current basis; kept incrementally up to date across
  // pivots and recomputed only on refactorization.
  std::vector<double>& y = scratch_y_;
  compute_duals(costs, y);
  candidates_.clear();  // cost vector changed: stale scores mean nothing
  reset_pricing_weights();

  std::vector<double>& alpha = scratch_alpha_;
  std::vector<double>& rho = scratch_rho_;
  bool bland = false;
  int degenerate_run = 0;
  long iters = 0;

  // Diminishing-returns early termination (SimplexOptions::early_term_gap;
  // phase 2 only — a GoodEnough result must be primal feasible).  Tracks the
  // objective gain of each applied step (bound flips included) in a trailing
  // ring; pure function of the deterministic pivot sequence.
  const bool early_term = !phase1 && options_.early_term_gap > 0;
  double et_total = 0, et_window_sum = 0;
  long et_steps = 0;
  std::vector<double> et_ring;
  if (early_term) et_ring.assign(kEarlyTermWindow, 0.0);

  while (true) {
    if (early_term && et_steps >= kEarlyTermWindow && et_total > 0 &&
        et_window_sum <= options_.early_term_gap * et_total)
      return finish(Status::GoodEnough, iters);
    if (iteration_budget-- <= 0) return finish(Status::IterationLimit, iters);
    ++iters;

    if (phase1 && phase1_infeasibility() <= kFeasTol)
      return finish(Status::Optimal, iters);

    int dir = 0;
    double entering_rc = 0;
    const int entering = price(y, costs, bland, &dir, &entering_rc);
    if (entering < 0) return finish(Status::Optimal, iters);

    ftran(cols_[entering], alpha);

    // Ratio test: how far can the entering variable move?
    const Column& ecol = cols_[entering];
    double t = (ecol.up < kInf && ecol.lo > -kInf) ? ecol.up - ecol.lo : kInf;
    int leaving_row = -1;
    bool leaving_at_upper = false;
    for (int i = 0; i < n_rows_; ++i) {
      const double a = dir * alpha[i];
      const Column& bcol = cols_[basis_[i]];
      if (a > kPivotTol) {  // basic variable decreases toward its lower bound
        if (bcol.lo > -kInf) {
          const double limit = std::max(0.0, (xb_[i] - bcol.lo)) / a;
          if (limit < t - 1e-12 ||
              (limit < t + 1e-12 && leaving_row >= 0 &&
               std::abs(alpha[i]) > std::abs(alpha[leaving_row]))) {
            t = limit;
            leaving_row = i;
            leaving_at_upper = false;
          }
        }
      } else if (a < -kPivotTol) {  // basic variable increases toward upper
        if (bcol.up < kInf) {
          const double limit = std::max(0.0, (bcol.up - xb_[i])) / (-a);
          if (limit < t - 1e-12 ||
              (limit < t + 1e-12 && leaving_row >= 0 &&
               std::abs(alpha[i]) > std::abs(alpha[leaving_row]))) {
            t = limit;
            leaving_row = i;
            leaving_at_upper = true;
          }
        }
      }
    }

    if (t == kInf && leaving_row < 0)
      return finish(phase1 ? Status::Infeasible : Status::Unbounded, iters);

    degenerate_run = (t <= 1e-10) ? degenerate_run + 1 : 0;
    if (degenerate_run > kDegenerateRunForBland) bland = true;

    // Apply the step.
    for (int i = 0; i < n_rows_; ++i) xb_[i] -= dir * t * alpha[i];

    if (early_term) {
      const double gain = -(entering_rc * dir * t);  // objective gain, >= 0
      const std::size_t pos =
          static_cast<std::size_t>(et_steps++ % kEarlyTermWindow);
      et_window_sum += gain - et_ring[pos];
      et_ring[pos] = gain;
      et_total += gain;
    }

    if (leaving_row < 0) {
      // Bound flip: the entering variable traverses its whole range.  The
      // basis (and hence the duals) is unchanged.
      status_[entering] = (dir > 0) ? VarStatus::AtUpper : VarStatus::AtLower;
      continue;
    }

    const int leaving = basis_[leaving_row];
    if (artificial_[leaving]) {
      // Once an artificial leaves the basis it is locked out for good.
      cols_[leaving].lo = cols_[leaving].up = 0.0;
      status_[leaving] = VarStatus::Fixed;
    } else {
      status_[leaving] = leaving_at_upper ? VarStatus::AtUpper : VarStatus::AtLower;
    }
    basis_pos_[leaving] = -1;

    status_[entering] = VarStatus::Basic;
    basis_[leaving_row] = entering;
    basis_pos_[entering] = leaving_row;
    const double enter_from = (dir > 0) ? ecol.lo : ecol.up;
    xb_[leaving_row] = enter_from + dir * t;

    // Basis update, fused with the incremental dual update: with rho = row
    // r of the old B^-1,
    //   new duals y = y + (d_entering / pivot) * rho
    // (the dual identity: the entering reduced cost must drop to zero and
    // all other basic reduced costs stay zero).  The factor then appends
    // one eta for the pivot.
    const double pivot = alpha[leaving_row];
    OLIVE_ASSERT(std::abs(pivot) > kPivotTol / 10);
    const double inv_pivot = 1.0 / pivot;
    const double dual_step = entering_rc * inv_pivot;
    basis_row(leaving_row, rho);
    for (int j = 0; j < n_rows_; ++j)
      if (rho[j] != 0.0) y[j] += dual_step * rho[j];
    update_pricing_weights(entering, leaving, pivot, rho);

    // A pivot too small for a stable eta, or an eta file past its length or
    // fill trigger: refactorize the new basis.
    if (!factor_.update(leaving_row, alpha) ||
        factor_.needs_refactorization()) {
      refactorize();
      compute_duals(costs, y);
      reset_pricing_weights();
    }
  }
}

SolveResult Simplex::finish(Status status, long iterations) {
  SolveResult res;
  res.status = status;
  res.iterations = iterations;
  return res;
}

SolveResult Simplex::solve() {
  install_slack_basis();
  long budget = options_.max_iterations;
  long phase1_iterations = 0;

  if (phase1_infeasibility() > kFeasTol) {
    SolveResult p1 = run(/*phase1=*/true, budget);
    if (p1.status == Status::IterationLimit) return p1;
    if (phase1_infeasibility() > std::max(kFeasTol, 1e-6)) {
      p1.status = Status::Infeasible;
      return p1;
    }
    phase1_iterations = p1.iterations;
  }
  lock_artificials();
  SolveResult res = resolve_internal(budget);
  res.iterations += phase1_iterations;
  return res;
}

void Simplex::lock_artificials() {
  // Lock any artificial still hanging around (basic at ~0).
  for (std::size_t c = 0; c < cols_.size(); ++c) {
    if (!artificial_[c]) continue;
    cols_[c].lo = cols_[c].up = 0.0;
    if (status_[c] != VarStatus::Basic) status_[c] = VarStatus::Fixed;
  }
}

SolveResult Simplex::resolve() {
  OLIVE_REQUIRE(has_basis_, "resolve() requires a prior solve()");
  long budget = options_.max_iterations;

  if (needs_phase1_) {
    // A warm start that needed repair artificials: drive them out with a
    // short phase 1 from the mostly-warm basis, then optimize as usual.
    needs_phase1_ = false;
    long phase1_iterations = 0;
    if (phase1_infeasibility() > kFeasTol) {
      SolveResult p1 = run(/*phase1=*/true, budget);
      if (p1.status == Status::IterationLimit) return p1;
      if (phase1_infeasibility() > std::max(kFeasTol, 1e-6)) {
        // The repair basis could not reach feasibility (the true problem is
        // feasible, so this is a numerical dead end): restart cold.
        SolveResult cold = solve();
        cold.iterations += p1.iterations;
        return cold;
      }
      phase1_iterations = p1.iterations;
    }
    lock_artificials();
    SolveResult res = resolve_internal(budget);
    res.iterations += phase1_iterations;
    return res;
  }

  compute_basic_values();
  // If the basis drifted out of feasibility (should not happen when only
  // columns were added), fall back to a cold solve.
  for (int i = 0; i < n_rows_; ++i) {
    const Column& bcol = cols_[basis_[i]];
    if (xb_[i] < bcol.lo - 1e-6 || xb_[i] > bcol.up + 1e-6) return solve();
  }
  return resolve_internal(budget);
}

void Simplex::extract_solution(SolveResult& res) {
  // Basic values and duals are recomputed from a fresh LU of the final
  // basis, which doubles as a free refactorization (the eta file is reset
  // for the next resolve).
  bool fresh = false;
  try {
    gather_basis_columns();
    // Factorize into a scratch object first: a SolverError mid-elimination
    // must not tear down the live factor (the fallback below and later
    // resolve() calls keep solving against it).
    BasisFactor local;
    local.factorize(n_rows_, scratch_factor_cols_);
    factor_.adopt(std::move(local));
    fresh = true;
  } catch (const SolverError&) {
    // A basis the pivoting machinery accepted but the LU tolerances reject:
    // fall back to the incrementally maintained values.
  }

  if (fresh) {
    std::vector<double>& v = scratch_values_;
    v = rhs_;
    const int n = static_cast<int>(cols_.size());
    for (int c = 0; c < n; ++c) {
      if (status_[c] == VarStatus::Basic) continue;
      const double val = value_of(c);
      if (val == 0.0) continue;
      const Column& col = cols_[c];
      for (std::size_t k = 0; k < col.rows.size(); ++k)
        v[col.rows[k]] -= col.vals[k] * val;
    }
    factor_.ftran(v);
    xb_ = v;
  }

  res.x.assign(n_structural_, 0.0);
  double obj = 0;
  for (std::size_t c = 0; c < cols_.size(); ++c) {
    const double v = value_of(static_cast<int>(c));
    const int mc = model_index_[c];
    if (mc >= 0) {
      res.x[mc] = v;
      obj += cols_[c].cost * v;
    }
  }
  res.objective = obj;

  std::vector<double>& cb = scratch_cb_;
  cb.resize(n_rows_);
  bool any = false;
  for (int k = 0; k < n_rows_; ++k) {
    cb[k] = cols_[basis_[k]].cost;
    any |= cb[k] != 0.0;
  }
  res.duals.assign(n_rows_, 0.0);
  if (any) {
    res.duals = cb;
    factor_.btran(res.duals);
  }
}

SolveResult Simplex::resolve_internal(long& budget) {
  SolveResult res = run(/*phase1=*/false, budget);
  // GoodEnough bases are primal feasible, just not proven optimal — their
  // solution and duals are exact for the final basis and safe to extract.
  if (res.status != Status::Optimal && res.status != Status::GoodEnough)
    return res;
  extract_solution(res);
  return res;
}

int Simplex::add_column(double lo, double up, double cost,
                        const SparseColumn& entries) {
  return add_column(lo, up, cost, entries,
                    static_cast<std::uint64_t>(n_structural_));
}

int Simplex::add_column(double lo, double up, double cost,
                        const SparseColumn& entries,
                        std::uint64_t fingerprint) {
  OLIVE_REQUIRE(lo <= up, "column bounds must satisfy lo <= up");
  OLIVE_REQUIRE(lo > -kInf || up < kInf, "free variables are not supported");
  Column col;
  col.lo = lo;
  col.up = up;
  col.cost = cost;
  for (const auto& [r, v] : entries) {
    OLIVE_REQUIRE(r >= 0 && r < n_rows_, "entry row out of range");
    col.rows.push_back(r);
    col.vals.push_back(v);
  }
  cols_.push_back(std::move(col));
  artificial_.push_back(0);
  model_index_.push_back(n_structural_);
  fingerprint_.push_back(fingerprint);
  const int model_col = n_structural_++;
  if (has_basis_) {
    OLIVE_ASSERT(status_.size() == cols_.size() - 1);
    status_.push_back(lo == up          ? VarStatus::Fixed
                      : (lo > -kInf)    ? VarStatus::AtLower
                                        : VarStatus::AtUpper);
    basis_pos_.push_back(-1);
  }
  return model_col;
}

WarmStart Simplex::save_warm_start(
    const std::vector<std::uint64_t>& row_keys,
    const std::vector<std::uint64_t>& col_keys) const {
  OLIVE_REQUIRE(has_basis_, "save_warm_start requires a solved basis");
  OLIVE_REQUIRE(static_cast<int>(row_keys.size()) == n_rows_,
                "row_keys size mismatch");
  OLIVE_REQUIRE(static_cast<int>(col_keys.size()) == n_structural_,
                "col_keys size mismatch");
  WarmStart ws;
  ws.basic.reserve(n_rows_);
  for (int r = 0; r < n_rows_; ++r) {
    const int b = basis_[r];
    WarmStart::BasicEntry e;
    e.row_key = row_keys[r];
    if (model_index_[b] >= 0) {
      e.kind = WarmStart::BasicKind::Structural;
      e.key = col_keys[model_index_[b]];
    } else if (artificial_[b]) {
      // A degenerate artificial still basic at ~0: the row restarts from
      // its own slack.
      e.kind = WarmStart::BasicKind::Slack;
      e.key = row_keys[r];
    } else {
      // A slack, possibly basic in a different row than its own.
      e.kind = WarmStart::BasicKind::Slack;
      e.key = row_keys[cols_[b].rows[0]];
    }
    ws.basic.push_back(e);
  }
  for (std::size_t c = 0; c < cols_.size(); ++c) {
    if (model_index_[c] < 0) continue;
    if (status_[c] == VarStatus::AtUpper)
      ws.at_upper.push_back(col_keys[model_index_[c]]);
  }
  return ws;
}

bool Simplex::warm_factorize_repair(int* artificials_added) {
  // Factorize the candidate warm basis, repairing rank deficiencies: a
  // relaxed factorization runs elimination to the end and reports every
  // row the basis no longer spans, paired with the (equally many) basis
  // positions that never pivoted.  Exact ±1 cancellation chains through
  // the convexity rows produce such deficiencies even when every recorded
  // column survived.  Each pair gets a unit column — the row's slack when
  // free, else a phase-1 artificial — and the result is factorized
  // strictly.
  gather_basis_columns();
  std::vector<int> uncovered, unpivoted;
  factor_.factorize_relaxed(n_rows_, scratch_factor_cols_, &uncovered,
                            &unpivoted);
  for (std::size_t i = 0; i < uncovered.size(); ++i) {
    const int bad = uncovered[i];
    const int pos = unpivoted[i];
    const int out = basis_[pos];
    status_[out] = cols_[out].lo == cols_[out].up ? VarStatus::Fixed
                   : cols_[out].lo > -kInf       ? VarStatus::AtLower
                                                 : VarStatus::AtUpper;
    basis_pos_[out] = -1;
    const int slack = slack_col_[bad];
    if (status_[slack] != VarStatus::Basic) {
      basis_[pos] = slack;
      status_[slack] = VarStatus::Basic;
      basis_pos_[slack] = pos;
    } else {
      // Sign fixed by the caller's flip step.
      basis_[pos] = append_artificial(bad, 1.0);
      basis_pos_.push_back(pos);
      ++*artificials_added;
    }
  }
  try {
    // With no repairs the relaxed factorization completed and is already
    // the valid factor.
    if (!uncovered.empty()) factorize_basis();
  } catch (const SolverError&) {
    return false;  // numerically singular even after repair: start cold
  }
  return true;
}

bool Simplex::try_warm_start(const WarmStart& ws,
                             const std::vector<std::uint64_t>& row_keys,
                             const std::vector<std::uint64_t>& col_keys) {
  OLIVE_REQUIRE(static_cast<int>(row_keys.size()) == n_rows_,
                "row_keys size mismatch");
  OLIVE_REQUIRE(static_cast<int>(col_keys.size()) == n_structural_,
                "col_keys size mismatch");
  has_basis_ = false;
  needs_phase1_ = false;
  if (ws.empty() || n_rows_ == 0) return false;
  drop_artificials();

  std::unordered_map<std::uint64_t, int> row_of;
  row_of.reserve(row_keys.size());
  for (int r = 0; r < n_rows_; ++r)
    if (!row_of.emplace(row_keys[r], r).second) return false;  // key clash
  std::unordered_map<std::uint64_t, int> col_of;  // key -> internal column
  col_of.reserve(col_keys.size());
  for (std::size_t c = 0; c < cols_.size(); ++c) {
    if (model_index_[c] < 0) continue;
    if (!col_of.emplace(col_keys[model_index_[c]], static_cast<int>(c)).second)
      return false;  // key clash
  }

  reset_nonbasic_statuses();
  for (const std::uint64_t key : ws.at_upper) {
    const auto it = col_of.find(key);
    if (it == col_of.end()) continue;
    const Column& col = cols_[it->second];
    if (col.up < kInf && col.lo != col.up)
      status_[it->second] = VarStatus::AtUpper;
  }

  basis_.assign(n_rows_, -1);
  std::vector<char> used(cols_.size(), 0);
  for (const WarmStart::BasicEntry& e : ws.basic) {
    const auto rit = row_of.find(e.row_key);
    if (rit == row_of.end()) continue;  // row departed
    int b = -1;
    if (e.kind == WarmStart::BasicKind::Slack) {
      const auto sit = row_of.find(e.key);
      if (sit != row_of.end()) b = slack_col_[sit->second];
    } else {
      const auto cit = col_of.find(e.key);
      if (cit != col_of.end()) b = cit->second;
    }
    if (b < 0 || used[b] || basis_[rit->second] >= 0) continue;
    basis_[rit->second] = b;
    used[b] = 1;
  }
  // Rows whose recorded basic column departed fall back to their own
  // slack.  A fallback slack is a unit vector on its row, so it is exactly
  // dependent with any basic *single-entry structural column* on the same
  // row (quantile columns are ±e_c on their convexity row): installing
  // both would make the basis singular.  Prefer the slack and kick the
  // unit column out; the kicked column's position falls back in turn.
  std::unordered_map<int, int> unit_position;  // entry row -> basis position
  for (int r = 0; r < n_rows_; ++r) {
    const int b = basis_[r];
    if (b >= 0 && model_index_[b] >= 0 && cols_[b].rows.size() == 1)
      unit_position.emplace(cols_[b].rows[0], r);
  }
  std::vector<int> fallback;
  for (int r = 0; r < n_rows_; ++r)
    if (basis_[r] < 0) fallback.push_back(r);
  while (!fallback.empty()) {
    const int r = fallback.back();
    fallback.pop_back();
    const int slack = slack_col_[r];
    if (used[slack]) return false;  // this row's slack serves another row
    const auto uit = unit_position.find(r);
    if (uit != unit_position.end()) {
      const int pos = uit->second;
      used[basis_[pos]] = 0;
      basis_[pos] = -1;
      fallback.push_back(pos);
      unit_position.erase(uit);
    }
    basis_[r] = slack;
    used[slack] = 1;
  }

  for (int r = 0; r < n_rows_; ++r) status_[basis_[r]] = VarStatus::Basic;
  basis_pos_.assign(cols_.size(), -1);
  for (int r = 0; r < n_rows_; ++r) basis_pos_[basis_[r]] = r;
  xb_.assign(n_rows_, 0.0);
  int artificials_added = 0;

  if (!warm_factorize_repair(&artificials_added)) return false;
  compute_basic_values();

  // Repair bound violations: data changes since the basis was saved
  // (demand drift between slots) can push basic values out of their
  // bounds.  Kick each violator to its nearest bound and cover its row
  // with a phase-1 artificial; the caller's resolve() then runs a short
  // phase 1 from this mostly-warm basis, which is far cheaper than a cold
  // all-slack start.  Kicking changes the remaining basic values, so the
  // repair iterates; a handful of passes always suffices in practice
  // (capped, then cold).
  constexpr int kMaxRepairPasses = 8;
  for (int pass = 0;; ++pass) {
    // An artificial's basic value is the row's residual gap; scaling its
    // column by -1 flips exactly that component, making it non-negative.
    bool flipped = false;
    for (int r = 0; r < n_rows_; ++r) {
      const int b = basis_[r];
      if (artificial_[b] && xb_[r] < 0.0) {
        cols_[b].vals[0] = -cols_[b].vals[0];
        flipped = true;
      }
    }
    if (flipped) {
      if (!warm_factorize_repair(&artificials_added)) return false;
      compute_basic_values();
    }

    std::vector<int> violated;
    for (int r = 0; r < n_rows_; ++r) {
      const Column& bcol = cols_[basis_[r]];
      if (xb_[r] < bcol.lo - kFeasTol || xb_[r] > bcol.up + kFeasTol)
        violated.push_back(r);
    }
    if (violated.empty()) break;
    if (pass == kMaxRepairPasses) {
      // The kicked columns keep redistributing load onto their neighbors
      // instead of converging.  Terminal fallback: the status crash —
      // every nonbasic variable keeps its warm bound, but the basis
      // itself is rebuilt from slacks/artificials via residuals, which is
      // feasible by construction.  Phase 1 then drives out the
      // artificials from a near-optimal point, which still beats the cold
      // all-slack start (where every status is at its default bound).
      crash_basis_from_statuses();
      needs_phase1_ = true;
      has_basis_ = true;
      return true;
    }
    for (const int r : violated) {
      const int b = basis_[r];
      const Column& bcol = cols_[b];
      status_[b] = bcol.lo == bcol.up ? VarStatus::Fixed
                   : xb_[r] < bcol.lo ? VarStatus::AtLower
                                      : VarStatus::AtUpper;
      basis_pos_[b] = -1;
      // Sign fixed by the next pass's flip step.
      basis_[r] = append_artificial(r, 1.0);
      basis_pos_.push_back(r);
      ++artificials_added;
    }
    if (!warm_factorize_repair(&artificials_added)) return false;
    compute_basic_values();
  }
  needs_phase1_ = artificials_added > 0;
  has_basis_ = true;
  return true;
}

FactorStats Simplex::factor_stats() const noexcept { return factor_.stats(); }

SolveResult solve_lp(const Model& model, SimplexOptions options) {
  Simplex solver(model, options);
  return solver.solve();
}

}  // namespace olive::lp
