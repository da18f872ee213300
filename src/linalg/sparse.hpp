// Sparse (CSR) matrices and a split symbolic/numeric sparse LU for the
// MNA systems of SI netlists, which are >90 % structurally zero with a
// pattern that never changes after Circuit::finalize().
//
// The solver follows the standard circuit-simulator recipe (KLU-style):
//
//   1. symbolic phase, once per topology — fill-reducing pre-order
//      (greedy minimum degree on A + A^T), then a left-looking sparse
//      LU (Gilbert & Peierls) with partial pivoting that fixes the row
//      permutation and freezes the L+U fill pattern and slot layout in
//      time proportional to its arithmetic.  Its pivots are exactly
//      those of dense partial pivoting on the pre-ordered matrix (see
//      DESIGN.md, "Sparse pivoting contract");
//   2. numeric phase, per solve — refactor the values over the frozen
//      pattern (no searching, no allocation) and substitute.
//
// Pivot magnitudes are checked on every refactor: if the operating
// point drifts far enough that a frozen pivot becomes too small, the
// refactor throws PivotDriftError and the caller re-runs the pivoting
// factorization.
#pragma once

#include <cstdint>
#include <memory>

#include "linalg/lu.hpp"
#include "linalg/matrix.hpp"

namespace si::linalg {

/// Thrown when a stamp targets a coordinate outside the frozen nonzero
/// pattern (an element violated the stamp-pattern contract, see
/// DESIGN.md); the MNA engine adds the coordinate to the pattern and
/// restarts the solve.
class PatternMissError : public std::logic_error {
 public:
  PatternMissError(int row, int col)
      : std::logic_error("stamp outside the frozen sparsity pattern at (" +
                         std::to_string(row) + "," + std::to_string(col) +
                         ")"),
        row_(row),
        col_(col) {}
  int row() const { return row_; }
  int col() const { return col_; }

 private:
  int row_, col_;
};

/// Thrown by SparseLu::refactor when a frozen pivot falls below the
/// drift threshold; re-run factor() to re-pivot.
class PivotDriftError : public std::runtime_error {
 public:
  explicit PivotDriftError(std::size_t row)
      : std::runtime_error("sparse refactor pivot too small at row " +
                           std::to_string(row)),
        row_(row) {}
  std::size_t row() const { return row_; }

 private:
  std::size_t row_;
};

/// Immutable CSR sparsity structure shared by every SparseMatrix /
/// SparseLu built for one circuit topology.
class SparsePattern {
 public:
  SparsePattern() = default;

  int dim() const { return n_; }
  std::size_t nnz() const { return col_idx_.size(); }

  /// Slot of entry (r, c), or -1 if outside the pattern.  Binary search
  /// within the (short, sorted) row.
  int find(int r, int c) const {
    std::size_t lo = row_ptr_[static_cast<std::size_t>(r)];
    std::size_t hi = row_ptr_[static_cast<std::size_t>(r) + 1];
    while (lo < hi) {
      const std::size_t mid = (lo + hi) / 2;
      if (col_idx_[mid] < c)
        lo = mid + 1;
      else
        hi = mid;
    }
    if (lo < row_ptr_[static_cast<std::size_t>(r) + 1] &&
        col_idx_[lo] == c)
      return static_cast<int>(lo);
    return -1;
  }

  const std::vector<std::size_t>& row_ptr() const { return row_ptr_; }
  const std::vector<int>& col_idx() const { return col_idx_; }

  /// Slot of (i, i) for every row (every diagonal entry is always part
  /// of the pattern) — used for gmin stamping and pivoting.
  const std::vector<int>& diag_slots() const { return diag_slots_; }

 private:
  friend class PatternBuilder;
  int n_ = 0;
  std::vector<std::size_t> row_ptr_;
  std::vector<int> col_idx_;
  std::vector<int> diag_slots_;
};

/// Collects (row, col) touches during the discovery stamping pass and
/// freezes them into a SparsePattern.
class PatternBuilder {
 public:
  explicit PatternBuilder(int n) : n_(n) {}

  int dim() const { return n_; }

  void add(int r, int c) {
    coords_.push_back((static_cast<std::uint64_t>(static_cast<std::uint32_t>(
                           r))
                       << 32) |
                      static_cast<std::uint32_t>(c));
  }

  /// Builds the CSR pattern: sorted, deduplicated, with the full
  /// diagonal always present and, if `symmetrize`, the transpose of
  /// every entry included.  Symmetrizing makes the pattern invariant
  /// under the MOSFET drain/source orientation swap and is what the
  /// fill-reducing ordering needs anyway.
  std::shared_ptr<const SparsePattern> build(bool symmetrize = true) const;

 private:
  int n_;
  std::vector<std::uint64_t> coords_;
};

/// Replayable slot memo for pattern-cached stamping: the first pass
/// records the slot of each write (found by search); later passes
/// replay the recorded slots as direct indexed writes, validating the
/// coordinates and transparently re-searching when an element's stamp
/// sequence shifts (e.g. a MOSFET drain/source orientation swap).
struct SlotMemo {
  std::vector<std::uint64_t> coords;  // (row << 32) | col
  std::vector<std::int32_t> slots;
  std::size_t cursor = 0;
  bool recording = true;

  void start_record() {
    coords.clear();
    slots.clear();
    cursor = 0;
    recording = true;
  }
  void start_replay() {
    cursor = 0;
    recording = false;
  }

  /// Slot of (r, c) in `p` through the memo: replayed writes are direct
  /// indexed lookups; a shifted sequence is patched in place.
  int lookup(const SparsePattern& p, int r, int c) {
    const std::uint64_t key =
        (static_cast<std::uint64_t>(static_cast<std::uint32_t>(r)) << 32) |
        static_cast<std::uint32_t>(c);
    if (!recording && cursor < slots.size()) {
      if (coords[cursor] == key) return slots[cursor++];
      // Sequence shifted (e.g. MOSFET orientation swap): patch in place.
      const int slot = p.find(r, c);
      coords[cursor] = key;
      slots[cursor++] = slot;
      return slot;
    }
    const int slot = p.find(r, c);
    coords.push_back(key);
    slots.push_back(slot);
    ++cursor;
    return slot;
  }
};

/// Values over a shared immutable SparsePattern.
template <typename T>
class SparseMatrix {
 public:
  SparseMatrix() = default;
  explicit SparseMatrix(std::shared_ptr<const SparsePattern> pattern)
      : pattern_(std::move(pattern)), values_(pattern_->nnz(), T{}) {}

  const SparsePattern& pattern() const { return *pattern_; }
  const std::shared_ptr<const SparsePattern>& pattern_ptr() const {
    return pattern_;
  }
  int dim() const { return pattern_ ? pattern_->dim() : 0; }

  void set_zero() { values_.assign(values_.size(), T{}); }

  /// Copies values from a matrix over the same pattern (no allocation).
  void copy_values_from(const SparseMatrix& o) { values_ = o.values_; }

  /// Adds `v` at (r, c); throws PatternMissError outside the pattern.
  /// With a memo, replayed writes become direct indexed adds.
  void add(int r, int c, T v, SlotMemo* memo = nullptr) {
    const int slot =
        memo ? memo->lookup(*pattern_, r, c) : pattern_->find(r, c);
    if (slot < 0) throw PatternMissError(r, c);
    values_[static_cast<std::size_t>(slot)] += v;
  }

  T get(int r, int c) const {
    const int slot = pattern_->find(r, c);
    return slot < 0 ? T{} : values_[static_cast<std::size_t>(slot)];
  }

  std::vector<T>& values() { return values_; }
  const std::vector<T>& values() const { return values_; }

  DenseMatrix<T> to_dense() const {
    const auto n = static_cast<std::size_t>(dim());
    DenseMatrix<T> d(n, n);
    for (std::size_t r = 0; r < n; ++r)
      for (std::size_t s = pattern_->row_ptr()[r];
           s < pattern_->row_ptr()[r + 1]; ++s)
        d(r, static_cast<std::size_t>(pattern_->col_idx()[s])) += values_[s];
    return d;
  }

  /// y = A x (sizes must match), for tests and residual checks.
  std::vector<T> multiply(const std::vector<T>& x) const {
    const auto n = static_cast<std::size_t>(dim());
    if (x.size() != n)
      throw std::invalid_argument("SparseMatrix::multiply: size mismatch");
    std::vector<T> y(n, T{});
    for (std::size_t r = 0; r < n; ++r) {
      T acc{};
      for (std::size_t s = pattern_->row_ptr()[r];
           s < pattern_->row_ptr()[r + 1]; ++s)
        acc += values_[s] * x[static_cast<std::size_t>(pattern_->col_idx()[s])];
      y[r] = acc;
    }
    return y;
  }

 private:
  std::shared_ptr<const SparsePattern> pattern_;
  std::vector<T> values_;
};

/// Greedy minimum-degree ordering of the (structurally symmetric)
/// pattern; returns `order` with order[k] = original index eliminated at
/// step k.  Exact external degrees on the explicit elimination graph,
/// with the next node drawn from a (degree, index) heap.
///
/// Tie-break contract: among nodes of equal minimum degree the LOWEST
/// original index is eliminated first.  This is part of the API — the
/// ordering (and everything derived from it: factor fill patterns and
/// pivot sequences) must be reproducible across platforms and STL
/// implementations, never dependent on hash or allocation order.
/// Pinned by SparseOrdering.MinDegreeTieBreak.
std::vector<int> min_degree_order(const SparsePattern& p);

/// Sparse LU with split symbolic/numeric phases (see file comment).
template <typename T>
class SparseLu {
 public:
  struct Options {
    /// Singularity threshold: the pivoting pass (and the first numeric
    /// pass, which sees the same values) rejects pivots below
    /// pivot_tol * scale.
    double pivot_tol = 1e-13;
    /// Refactor drift threshold: a refactor pivot below
    /// drift_tol * row_scale that has also collapsed relative to its
    /// magnitude at the last pivoting factorization signals drift.
    double drift_tol = 1e-10;
  };

  explicit SparseLu(Options opt = {}) : opt_(opt) {}

  /// Full factorization: chooses the column pre-order and row pivot
  /// order (sparse partial pivoting, once per topology), freezes the
  /// fill pattern, then factors numerically.  Throws SingularMatrixError
  /// if the matrix is singular; the error's column() is in the caller's
  /// (unpermuted) column numbering.
  void factor(const SparseMatrix<T>& a);

  /// Numeric-only refactorization of a matrix with the same pattern as
  /// the one given to factor().  Throws PivotDriftError when a frozen
  /// pivot becomes too small (caller should re-run factor()).
  void refactor(const SparseMatrix<T>& a);

  bool factored() const { return factored_; }

  /// Solves A x = b into `x` (resized on first use; no allocation once
  /// warm).  Any number of right-hand sides per factorization.
  void solve(const std::vector<T>& b, std::vector<T>& x) const;

  /// Frozen layout of the last factor(): factored row i is original
  /// row row_order()[i], factored column j is original column
  /// col_order()[j], and fill() is the L+U pattern in factored indices.
  const std::vector<int>& row_order() const { return rp_; }
  const std::vector<int>& col_order() const { return cp_; }
  const std::shared_ptr<const SparsePattern>& fill() const { return fill_; }

  /// Nonzeros in the frozen L+U pattern (symbolic fill), for stats.
  std::size_t factor_nnz() const { return fvals_.size(); }
  std::size_t symbolic_builds() const { return symbolic_builds_; }

 private:
  void build_symbolic(const SparseMatrix<T>& a);
  void refactor_values(const SparseMatrix<T>& a, bool fresh_pivot);

  Options opt_;
  bool factored_ = false;
  std::size_t symbolic_builds_ = 0;
  std::shared_ptr<const SparsePattern> a_pattern_;  // pattern symbolic ran on
  int n_ = 0;
  std::vector<int> rp_;      // factored row i  <- original row rp_[i]
  std::vector<int> cp_;      // factored col j  <- original col cp_[j]
  std::shared_ptr<const SparsePattern> fill_;  // frozen L+U pattern
  std::vector<std::size_t> urow_start_;  // first strictly-upper slot per row
  // Scatter map: per factored row, the (factored col, A slot) pairs.
  std::vector<std::size_t> as_row_ptr_;
  std::vector<int> as_col_;
  std::vector<std::size_t> as_slot_;
  std::vector<T> fvals_;     // factor values over `fill_`
  std::vector<T> diag_inv_;  // 1 / U(i,i)
  // |U(i,i)| at the last pivoting factorization: the reference the
  // refactor drift test measures collapse against.  A pivot that was
  // legitimately tiny when the permutation was chosen (a gmin-guarded
  // row) and is still at that scale has not drifted.
  std::vector<double> diag_ref_;
  // Preallocated workspaces.
  mutable std::vector<T> work_;
  mutable std::vector<T> ywork_;
};

using SparseMatrixD = SparseMatrix<double>;
using SparseMatrixZ = SparseMatrix<std::complex<double>>;
using SparseLuD = SparseLu<double>;
using SparseLuZ = SparseLu<std::complex<double>>;

}  // namespace si::linalg
