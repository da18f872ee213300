// Dense matrix / vector types used as the substrate for modified nodal
// analysis (MNA) in the circuit simulator.  Circuits in this project are
// small (tens of nodes), so a dense row-major layout with partial-pivoting
// LU is the right tool: simple, cache-friendly, and numerically robust.
#pragma once

#include <complex>
#include <cstddef>
#include <stdexcept>
#include <string>
#include <vector>

namespace si::linalg {

/// Dense row-major matrix over a real or complex scalar type.
///
/// The class owns its storage and keeps the invariant
/// `data_.size() == rows_ * cols_` at all times.
template <typename T>
class DenseMatrix {
 public:
  DenseMatrix() = default;

  DenseMatrix(std::size_t rows, std::size_t cols, T init = T{})
      : rows_(rows), cols_(cols), data_(rows * cols, init) {}

  /// Square identity matrix of dimension `n`.
  static DenseMatrix identity(std::size_t n) {
    DenseMatrix m(n, n);
    for (std::size_t i = 0; i < n; ++i) m(i, i) = T{1};
    return m;
  }

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  bool empty() const { return data_.empty(); }

  T& operator()(std::size_t r, std::size_t c) {
    return data_[r * cols_ + c];
  }
  const T& operator()(std::size_t r, std::size_t c) const {
    return data_[r * cols_ + c];
  }

  /// Row-major storage: entry (r, c) at r * cols() + c.
  T* data() { return data_.data(); }
  const T* data() const { return data_.data(); }

  /// Bounds-checked access, for tests and debugging.
  T& at(std::size_t r, std::size_t c) {
    check_index(r, c);
    return (*this)(r, c);
  }
  const T& at(std::size_t r, std::size_t c) const {
    check_index(r, c);
    return (*this)(r, c);
  }

  /// Resets every entry to zero without reallocating.  Used once per
  /// Newton iteration when re-stamping the MNA system.
  void set_zero() { data_.assign(data_.size(), T{}); }

  /// Resizes to `rows x cols`, zero-filling.  Existing contents are
  /// discarded (MNA systems are rebuilt from scratch each (re)size).
  void resize(std::size_t rows, std::size_t cols) {
    rows_ = rows;
    cols_ = cols;
    data_.assign(rows * cols, T{});
  }

  DenseMatrix& operator+=(const DenseMatrix& o) {
    require_same_shape(o);
    for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += o.data_[i];
    return *this;
  }
  DenseMatrix& operator-=(const DenseMatrix& o) {
    require_same_shape(o);
    for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= o.data_[i];
    return *this;
  }
  DenseMatrix& operator*=(T s) {
    for (auto& v : data_) v *= s;
    return *this;
  }

  friend DenseMatrix operator+(DenseMatrix a, const DenseMatrix& b) {
    a += b;
    return a;
  }
  friend DenseMatrix operator-(DenseMatrix a, const DenseMatrix& b) {
    a -= b;
    return a;
  }
  friend DenseMatrix operator*(DenseMatrix a, T s) {
    a *= s;
    return a;
  }

  /// Matrix-matrix product.
  friend DenseMatrix operator*(const DenseMatrix& a, const DenseMatrix& b) {
    if (a.cols() != b.rows())
      throw std::invalid_argument("DenseMatrix multiply: shape mismatch");
    DenseMatrix c(a.rows(), b.cols());
    for (std::size_t i = 0; i < a.rows(); ++i) {
      for (std::size_t k = 0; k < a.cols(); ++k) {
        const T aik = a(i, k);
        if (aik == T{}) continue;
        for (std::size_t j = 0; j < b.cols(); ++j) c(i, j) += aik * b(k, j);
      }
    }
    return c;
  }

  /// Matrix-vector product.
  std::vector<T> multiply(const std::vector<T>& x) const {
    if (x.size() != cols_)
      throw std::invalid_argument("DenseMatrix::multiply: size mismatch");
    std::vector<T> y(rows_, T{});
    for (std::size_t i = 0; i < rows_; ++i) {
      T acc{};
      for (std::size_t j = 0; j < cols_; ++j) acc += (*this)(i, j) * x[j];
      y[i] = acc;
    }
    return y;
  }

  DenseMatrix transposed() const {
    DenseMatrix t(cols_, rows_);
    for (std::size_t i = 0; i < rows_; ++i)
      for (std::size_t j = 0; j < cols_; ++j) t(j, i) = (*this)(i, j);
    return t;
  }

  /// Maximum absolute row sum (induced infinity norm).
  double inf_norm() const {
    double best = 0.0;
    for (std::size_t i = 0; i < rows_; ++i) {
      double s = 0.0;
      for (std::size_t j = 0; j < cols_; ++j) s += std::abs((*this)(i, j));
      if (s > best) best = s;
    }
    return best;
  }

 private:
  void check_index(std::size_t r, std::size_t c) const {
    if (r >= rows_ || c >= cols_)
      throw std::out_of_range("DenseMatrix index (" + std::to_string(r) +
                              "," + std::to_string(c) + ") out of range");
  }
  void require_same_shape(const DenseMatrix& o) const {
    if (rows_ != o.rows_ || cols_ != o.cols_)
      throw std::invalid_argument("DenseMatrix shape mismatch");
  }

  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<T> data_;
};

using Matrix = DenseMatrix<double>;
using ComplexMatrix = DenseMatrix<std::complex<double>>;
using Vector = std::vector<double>;
using ComplexVector = std::vector<std::complex<double>>;

/// Euclidean norm of a real vector.
double norm2(const Vector& v);

/// Infinity norm of a real vector.
double norm_inf(const Vector& v);

/// Elementwise a - b (sizes must match).
Vector subtract(const Vector& a, const Vector& b);

/// Elementwise a + s*b (sizes must match).
Vector axpy(const Vector& a, double s, const Vector& b);

/// Dot product of two real vectors.
double dot(const Vector& a, const Vector& b);

}  // namespace si::linalg
