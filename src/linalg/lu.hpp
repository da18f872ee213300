// LU factorization with partial pivoting for real and complex dense
// systems.  This is the dense half of the linear-solver substrate behind
// every circuit analysis (DC Newton step, transient companion solve, AC
// sweep, noise transfer functions); large systems route to the sparse
// solver in linalg/sparse.hpp instead.
//
// The in-place free functions (`lu_factor_in_place`/`lu_solve_in_place`)
// exist so hot loops can factor and solve into preallocated workspaces
// with zero heap traffic; LuFactorization wraps them in an owning,
// one-shot-friendly interface.
#pragma once

#include "linalg/matrix.hpp"

namespace si::linalg {

/// Singularity threshold of every LU factorization, dense and sparse: a
/// pivot below kPivotTol times the matrix scale is singular.
constexpr double kPivotTol = 1e-13;

/// Thrown when a matrix is numerically singular (pivot below threshold).
class SingularMatrixError : public std::runtime_error {
 public:
  explicit SingularMatrixError(std::size_t column)
      : std::runtime_error("singular matrix at pivot column " +
                           std::to_string(column)),
        column_(column) {}
  std::size_t column() const { return column_; }

 private:
  std::size_t column_;
};

/// In-place PA = LU with partial (row) pivoting.  On return `a` holds L
/// (unit diagonal, strictly lower part) and U (upper part) and `perm`
/// records the row permutation (perm[i] = original row in position i).
/// Returns the permutation parity (+1/-1).  Throws SingularMatrixError
/// if a pivot magnitude falls below `kPivotTol * inf_norm(A)`.  `perm`
/// is resized on first use only — reusing it across calls of the same
/// dimension allocates nothing.
template <typename T>
int lu_factor_in_place(DenseMatrix<T>& a, std::vector<std::size_t>& perm) {
  if (a.rows() != a.cols())
    throw std::invalid_argument("lu_factor_in_place: matrix must be square");
  const std::size_t n = a.rows();
  perm.resize(n);
  for (std::size_t i = 0; i < n; ++i) perm[i] = i;
  int parity = 1;
  const double scale = a.inf_norm();
  const double tol = kPivotTol * (scale > 0 ? scale : 1.0);

  for (std::size_t k = 0; k < n; ++k) {
    // Partial pivoting: pick the largest magnitude entry in column k.
    std::size_t piv = k;
    double best = std::abs(a(k, k));
    for (std::size_t i = k + 1; i < n; ++i) {
      const double m = std::abs(a(i, k));
      if (m > best) {
        best = m;
        piv = i;
      }
    }
    if (best < tol) throw SingularMatrixError(k);
    if (piv != k) {
      for (std::size_t j = 0; j < n; ++j) std::swap(a(k, j), a(piv, j));
      std::swap(perm[k], perm[piv]);
      parity = -parity;
    }
    const T pivot = a(k, k);
    for (std::size_t i = k + 1; i < n; ++i) {
      const T m = a(i, k) / pivot;
      a(i, k) = m;
      if (m == T{}) continue;
      for (std::size_t j = k + 1; j < n; ++j) a(i, j) -= m * a(k, j);
    }
  }
  return parity;
}

/// Solves A x = b from a factorization produced by lu_factor_in_place,
/// writing into `x` (resized if needed; no allocation once warm).
template <typename T>
void lu_solve_in_place(const DenseMatrix<T>& lu,
                       const std::vector<std::size_t>& perm,
                       const std::vector<T>& b, std::vector<T>& x) {
  const std::size_t n = lu.rows();
  if (b.size() != n)
    throw std::invalid_argument("lu_solve_in_place: size mismatch");
  x.resize(n);
  // Apply permutation and forward-substitute L y = P b.
  for (std::size_t i = 0; i < n; ++i) {
    T acc = b[perm[i]];
    for (std::size_t j = 0; j < i; ++j) acc -= lu(i, j) * x[j];
    x[i] = acc;
  }
  // Back-substitute U x = y.
  for (std::size_t ii = n; ii-- > 0;) {
    T acc = x[ii];
    for (std::size_t j = ii + 1; j < n; ++j) acc -= lu(ii, j) * x[j];
    x[ii] = acc / lu(ii, ii);
  }
}

/// Owning wrapper: factor once, then `solve()` any number of right-hand
/// sides — the AC and noise analyses exploit this.
template <typename T>
class LuFactorization {
 public:
  /// Factors `a` (consumed by value).  Throws SingularMatrixError if a
  /// pivot magnitude falls below `kPivotTol * inf_norm(A)`.
  explicit LuFactorization(DenseMatrix<T> a) : lu_(std::move(a)) {
    parity_ = lu_factor_in_place(lu_, perm_);
  }

  std::size_t dim() const { return lu_.rows(); }

  /// Solves A x = b for one right-hand side.
  std::vector<T> solve(const std::vector<T>& b) const {
    std::vector<T> x;
    lu_solve_in_place(lu_, perm_, b, x);
    return x;
  }

  /// Determinant of the factored matrix (product of pivots times the
  /// permutation parity).
  T determinant() const {
    T d = static_cast<T>(parity_);
    for (std::size_t i = 0; i < dim(); ++i) d *= lu_(i, i);
    return d;
  }

 private:
  DenseMatrix<T> lu_;
  std::vector<std::size_t> perm_;
  int parity_ = 1;
};

/// Convenience one-shot solve of A x = b (real).
Vector solve(Matrix a, const Vector& b);

/// Convenience one-shot solve of A x = b (complex).
ComplexVector solve(ComplexMatrix a, const ComplexVector& b);

}  // namespace si::linalg
