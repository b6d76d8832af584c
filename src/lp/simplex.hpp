// Two-phase revised simplex for bounded-variable linear programs.
//
// Design notes
//  * Standard computational form: every row gets a slack column (bounds
//    chosen from the row sense); phase 1 adds artificial columns only for
//    rows whose initial slack value would violate its bounds.
//  * The basis is a Markowitz-ordered sparse LU factorization with
//    eta/product-form updates per pivot (lp/factor.hpp).  FTRAN, BTRAN and
//    the dual update are sparse solves, so pivots cost roughly O(nnz)
//    instead of O(m²).  At optimality the solution, duals and objective are
//    extracted from a fresh LU of the final basis.
//  * Duals are maintained incrementally: a pivot updates y with the leaving
//    row of the old inverse (y += (d_q/alpha_r) * rho_r) instead of
//    recomputing c_B^T B^-1 from scratch each iteration; a full recompute
//    happens only at (re)starts and refactorizations.
//  * Pricing is candidate-list partial pricing: a full Dantzig scan runs
//    only when the candidate list is exhausted and seeds the list with the
//    most attractive nonbasic columns; minor iterations reprice just the
//    candidates (their exact reduced costs under the current duals).
//    Optimality is still only declared after a clean full scan.  An
//    automatic switch to Bland's rule (full scan, lowest eligible index)
//    after a run of degenerate pivots guarantees termination.  Reduced-cost
//    ties are broken by column fingerprint (then index), so equal-cost
//    column choices do not depend on which scan found them.
//  * Tolerances and pricing sizes are constants of simplex.cpp
//    (docs/lp.md "Solver constants"); SimplexOptions carries only the
//    settings callers vary.
//  * Columns can be appended between solves (add_column/resolve), which is
//    what the PLAN-VNE column-generation loop uses for warm starts; a
//    WarmStart snapshot additionally carries the basis itself across
//    *different* Simplex instances (the SLOTOFF per-slot masters).
#pragma once

#include <cstdint>
#include <vector>

#include "lp/factor.hpp"
#include "lp/model.hpp"

namespace olive::lp {

/// GoodEnough: phase-2 stopped early by the diminishing-returns rule
/// (SimplexOptions::early_term_gap).  The basis is primal feasible and the
/// extracted solution/duals are exact for it — only optimality is waived.
enum class Status { Optimal, Infeasible, Unbounded, IterationLimit, GoodEnough };

const char* to_string(Status s) noexcept;

struct SolveResult {
  Status status = Status::IterationLimit;
  double objective = 0;
  /// Values of the model's structural columns.
  std::vector<double> x;
  /// Row duals y, with the convention: reduced cost of a column equals
  /// cost_j - sum_i y_i A_ij.  (For a minimization with <= rows at
  /// optimality, y_i <= 0.)
  std::vector<double> duals;
  long iterations = 0;
};

/// Entering-column selection rule (docs/lp.md "Pricing and determinism").
///
///  * Dantzig (default): most negative reduced cost.  The historical rule;
///    every golden trace and checked-in objective was pinned under it.
///  * SteepestEdge: reference-framework weights (Forrest–Goldfarb).  Scores
///    are d²/w_j; weights grow via the pivot recurrence, and every reset
///    (solve start and refactorization) anchors them to the exact
///    steepest-edge norms of the slack basis, w_j = 1 + ‖a_j‖² — exact for
///    B = I and a far better estimate of 1 + ‖B⁻¹a_j‖² for untouched
///    columns than a unit framework.  On tall masters (thousands of rows)
///    this cuts pivot counts below Dantzig's.
///
/// Both rules share the same eligibility test, tolerance, and
/// deterministic tie-break (score, then fingerprint, then index), so each
/// rule is individually bit-reproducible; they differ only in which eligible
/// column they prefer, i.e. the path taken to the optimum.
enum class PricingRule { Dantzig, SteepestEdge };

struct SimplexOptions {
  long max_iterations = 200000;
  /// Entering-column selection rule (see PricingRule).  The PLAN-VNE solver
  /// switches large masters to SteepestEdge automatically
  /// (PlanVneConfig::steepest_edge_rows).
  PricingRule pricing = PricingRule::Dantzig;
  /// Diminishing-returns early termination for phase 2 ("good enough"
  /// bounded solves; docs/replanning.md).  0 — the default — disables it and
  /// leaves every code path bit-identical to the exact solver.  > 0: after
  /// at least kEarlyTermWindow (32, simplex.cpp) phase-2 pivots, the solve
  /// stops with Status::GoodEnough once the objective improvement of that
  /// many trailing pivots is at most `early_term_gap` times the total
  /// phase-2 improvement so far.  The rule reads only the deterministic
  /// pivot sequence (never wall time), so bounded solves are bit-identical
  /// at every thread count.  Phase 1 is never cut short: a GoodEnough
  /// result is always primal feasible.
  double early_term_gap = 0.0;
};

/// A basis snapshot that survives across Simplex instances.  Rows and
/// structural columns are identified by caller-supplied 64-bit keys that
/// must be stable across the LPs being bridged (the PLAN-VNE master keys
/// rows by substrate element / request class and columns by embedding
/// fingerprint, so consecutive SLOTOFF slots can exchange bases even though
/// their masters have different shapes).
struct WarmStart {
  enum class BasicKind : unsigned char { Structural, Slack };
  struct BasicEntry {
    std::uint64_t row_key = 0;  ///< the row this basis position covers
    BasicKind kind = BasicKind::Slack;
    /// Structural: the basic column's key.  Slack: the key of the row whose
    /// slack is basic here (usually row_key itself).
    std::uint64_t key = 0;
  };
  std::vector<BasicEntry> basic;
  /// Keys of structural columns nonbasic at their *upper* bound (lower is
  /// the default; slack statuses are forced by their bounds).
  std::vector<std::uint64_t> at_upper;

  bool empty() const noexcept { return basic.empty(); }
};

class Simplex {
 public:
  explicit Simplex(const Model& model, SimplexOptions options = {});

  /// Solves from scratch (slack basis, phase 1 if needed, then phase 2).
  SolveResult solve();

  /// Appends a structural column (used by column generation).  The column
  /// enters nonbasic at its lower bound, so an existing feasible basis stays
  /// feasible.  Returns the new column's index in the model numbering.
  /// `fingerprint` is the pricing tie-break key (see header comment);
  /// omitted, it defaults to the column's model index.
  int add_column(double lo, double up, double cost, const SparseColumn& entries);
  int add_column(double lo, double up, double cost, const SparseColumn& entries,
                 std::uint64_t fingerprint);

  /// Re-optimizes from the current basis (after add_column calls).
  SolveResult resolve();

  /// Captures the current basis, keyed by the caller's stable identities
  /// (`row_keys[r]` for row r, `col_keys[c]` for structural column c).
  /// Requires a prior successful solve()/resolve().
  WarmStart save_warm_start(const std::vector<std::uint64_t>& row_keys,
                            const std::vector<std::uint64_t>& col_keys) const;

  /// Installs `ws` as the starting basis: every row whose recorded basic
  /// column survives (by key) gets it, everything else falls back to the
  /// row's slack.  Basic variables pushed out of their bounds by data
  /// changes (demand drift between SLOTOFF slots) are repaired in place:
  /// each is kicked to its nearest bound and covered by a phase-1
  /// artificial, so the next resolve() runs a short phase 1 from the
  /// mostly-warm basis instead of restarting from all-slack.  Returns
  /// false — leaving the solver cold — only when the basis is singular or
  /// the repair does not converge.
  bool try_warm_start(const WarmStart& ws,
                      const std::vector<std::uint64_t>& row_keys,
                      const std::vector<std::uint64_t>& col_keys);

  int num_structural() const noexcept { return n_structural_; }

  /// Basis-maintenance counters accumulated over this instance's lifetime.
  FactorStats factor_stats() const noexcept;

 private:
  enum class VarStatus : unsigned char { AtLower, AtUpper, Basic, Fixed };

  struct Column {
    std::vector<int> rows;
    std::vector<double> vals;
    double lo = 0, up = 0, cost = 0;
  };

  // --- setup ---
  void build_standard_form(const Model& model);
  void install_slack_basis();
  /// Rebuilds the basis from slacks/artificials for the *current* nonbasic
  /// statuses (feasible by construction).  install_slack_basis resets the
  /// statuses first; the warm-start status crash keeps them.
  void crash_basis_from_residuals();
  void crash_basis_from_statuses();
  void drop_artificials();
  void reset_nonbasic_statuses();

  // --- core iteration machinery ---
  double value_of(int col) const;
  void compute_basic_values();
  void compute_duals(const std::vector<double>& costs, std::vector<double>& y);
  void ftran(const Column& col, std::vector<double>& out);
  /// Row `r` of the current B^-1 (the BTRAN of the r-th unit vector).
  void basis_row(int r, std::vector<double>& rho);
  /// Exact reduced cost of column c under duals y.
  double reduced_cost(int c, const std::vector<double>& y,
                      const std::vector<double>& costs) const;
  /// Entering eligibility of nonbasic column c with reduced cost d: fills
  /// the improvement score (rule-dependent: |d| for Dantzig, d²/w_c for the
  /// weighted rules) and movement direction, or returns false.  Shared by
  /// full scans and candidate minor iterations so the two loops can never
  /// disagree on what counts as an attractive column.
  bool price_eligible(VarStatus st, int c, double d, double* score,
                      int* dir) const;
  /// Pricing-weight lifecycle (SteepestEdge; no-ops under Dantzig): reset
  /// installs the reference framework (the exact slack-basis norms
  /// 1 + ‖a_j‖²), the update applies the
  /// Forrest–Goldfarb max-form recurrence to the candidate working set + the
  /// leaving column using the leaving row `rho` of B⁻¹ — already computed
  /// for the dual update, so a pivot costs no extra solves.
  void reset_pricing_weights();
  void update_pricing_weights(int entering, int leaving, double pivot,
                              const std::vector<double>& rho);
  /// Deterministic pricing order: higher score, then smaller fingerprint,
  /// then smaller index.  Shared by every pricing loop, so equal-cost
  /// column choices cannot depend on the pricing mode.
  bool better_candidate(double score, int c, double best_score,
                        int best) const;
  /// Picks the entering column.  Returns -1 at optimality; otherwise sets
  /// *direction (+1 entering from lower, -1 from upper) and *entering_rc to
  /// the column's exact reduced cost (used for the incremental dual update).
  int price(const std::vector<double>& y, const std::vector<double>& costs,
            bool bland, int* direction, double* entering_rc);
  int price_full_scan(const std::vector<double>& y,
                      const std::vector<double>& costs, bool bland,
                      int* direction, double* entering_rc);
  SolveResult run(bool phase1, long& iteration_budget);
  void lock_artificials();
  /// Warm-start helper: factorizes the candidate basis, repairing rank
  /// deficiencies by swapping unit columns (slack or phase-1 artificial) in
  /// for the uncovered-row / unpivoted-position pairs the relaxed
  /// factorization reports.  Returns false when the result is numerically
  /// singular even after repair.
  bool warm_factorize_repair(int* artificials_added);
  /// Points scratch_factor_cols_ at the current basis columns.
  void gather_basis_columns();
  /// Appends a phase-1 artificial column (coeff·e_row), Basic, keeping
  /// every parallel column array in sync.  Returns its internal index; the
  /// caller wires basis_/basis_pos_.
  int append_artificial(int row, double coeff);
  /// Factorizes the current basis columns (resets the eta file).
  void factorize_basis();
  /// factorize_basis() plus fresh basic values.
  void refactorize();
  /// Extraction of the optimal solution: basic values and duals are
  /// recomputed from a fresh LU of the final basis, which then replaces the
  /// live factor (a free refactorization for the next resolve()).
  void extract_solution(SolveResult& res);
  double phase1_infeasibility() const;
  void prepare_phase1_costs(std::vector<double>& costs) const;
  SolveResult resolve_internal(long& budget);
  SolveResult finish(Status status, long iterations);

  SimplexOptions options_;
  int n_structural_ = 0;  // number of structural (model-visible) columns
  int n_rows_ = 0;
  std::vector<Column> cols_;        // structural + slack + artificial, mixed
  std::vector<int> model_index_;    // internal col -> model col, or -1
  std::vector<std::uint64_t> fingerprint_;  // internal col -> tie-break key
  std::vector<char> artificial_;    // internal col -> is phase-1 artificial
  std::vector<int> slack_col_;      // row -> internal index of its slack
  std::vector<double> rhs_;
  std::vector<VarStatus> status_;
  std::vector<int> basis_;          // row position -> internal column index
  std::vector<int> basis_pos_;      // internal column index -> row pos or -1
  std::vector<double> xb_;          // basic values by row position
  BasisFactor factor_;              // sparse LU + eta file of the basis
  std::vector<int> candidates_;     // partial-pricing candidate columns
  std::vector<double> weight_;      // steepest-edge reference weights
  std::vector<std::pair<double, int>> scratch_eligible_;  // refresh scratch
  // Scratch vectors reused across solve()/resolve() calls so the hot loop
  // never reallocates (see run()).
  std::vector<double> scratch_alpha_, scratch_rho_, scratch_y_;
  std::vector<double> scratch_costs_, scratch_values_, scratch_cb_;
  std::vector<FactorColumn> scratch_factor_cols_;
  bool has_basis_ = false;
  /// Set by a warm start that needed repair artificials: the next resolve()
  /// runs phase 1 first to drive them out.
  bool needs_phase1_ = false;
};

/// One-shot convenience wrapper.
SolveResult solve_lp(const Model& model, SimplexOptions options = {});

}  // namespace olive::lp
