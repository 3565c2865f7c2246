#include "util/matrix.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace drivefi::util {

Vector& Vector::operator+=(const Vector& rhs) {
  assert(size() == rhs.size());
  for (std::size_t i = 0; i < size(); ++i) data_[i] += rhs[i];
  return *this;
}

Vector& Vector::operator-=(const Vector& rhs) {
  assert(size() == rhs.size());
  for (std::size_t i = 0; i < size(); ++i) data_[i] -= rhs[i];
  return *this;
}

Vector& Vector::operator*=(double s) {
  for (double& v : data_) v *= s;
  return *this;
}

double Vector::dot(const Vector& rhs) const {
  assert(size() == rhs.size());
  double acc = 0.0;
  for (std::size_t i = 0; i < size(); ++i) acc += data_[i] * rhs[i];
  return acc;
}

double Vector::norm() const { return std::sqrt(dot(*this)); }

double Vector::norm_inf() const {
  double m = 0.0;
  for (double v : data_) m = std::max(m, std::abs(v));
  return m;
}

Vector operator+(Vector lhs, const Vector& rhs) { return lhs += rhs; }
Vector operator-(Vector lhs, const Vector& rhs) { return lhs -= rhs; }
Vector operator*(double s, Vector v) { return v *= s; }

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> rows) {
  rows_ = rows.size();
  cols_ = rows_ ? rows.begin()->size() : 0;
  data_.reserve(rows_ * cols_);
  for (const auto& r : rows) {
    assert(r.size() == cols_);
    data_.insert(data_.end(), r.begin(), r.end());
  }
}

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Matrix Matrix::transposed() const {
  Matrix t(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r)
    for (std::size_t c = 0; c < cols_; ++c) t(c, r) = (*this)(r, c);
  return t;
}

Matrix& Matrix::operator+=(const Matrix& rhs) {
  assert(rows_ == rhs.rows_ && cols_ == rhs.cols_);
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += rhs.data_[i];
  return *this;
}

Matrix& Matrix::operator-=(const Matrix& rhs) {
  assert(rows_ == rhs.rows_ && cols_ == rhs.cols_);
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= rhs.data_[i];
  return *this;
}

Matrix& Matrix::operator*=(double s) {
  for (double& v : data_) v *= s;
  return *this;
}

Vector Matrix::row(std::size_t r) const {
  Vector v(cols_);
  for (std::size_t c = 0; c < cols_; ++c) v[c] = (*this)(r, c);
  return v;
}

Vector Matrix::col(std::size_t c) const {
  Vector v(rows_);
  for (std::size_t r = 0; r < rows_; ++r) v[r] = (*this)(r, c);
  return v;
}

Matrix Matrix::select(const std::vector<std::size_t>& row_idx,
                      const std::vector<std::size_t>& col_idx) const {
  Matrix out(row_idx.size(), col_idx.size());
  for (std::size_t r = 0; r < row_idx.size(); ++r)
    for (std::size_t c = 0; c < col_idx.size(); ++c)
      out(r, c) = (*this)(row_idx[r], col_idx[c]);
  return out;
}

double Matrix::max_abs() const {
  double m = 0.0;
  for (double v : data_) m = std::max(m, std::abs(v));
  return m;
}

Matrix operator+(Matrix lhs, const Matrix& rhs) { return lhs += rhs; }
Matrix operator-(Matrix lhs, const Matrix& rhs) { return lhs -= rhs; }
Matrix operator*(double s, Matrix m) { return m *= s; }

Matrix operator*(const Matrix& a, const Matrix& b) {
  assert(a.cols() == b.rows());
  Matrix out(a.rows(), b.cols());
  for (std::size_t r = 0; r < a.rows(); ++r) {
    for (std::size_t k = 0; k < a.cols(); ++k) {
      const double av = a(r, k);
      if (av == 0.0) continue;
      for (std::size_t c = 0; c < b.cols(); ++c) out(r, c) += av * b(k, c);
    }
  }
  return out;
}

Vector operator*(const Matrix& a, const Vector& x) {
  assert(a.cols() == x.size());
  Vector out(a.rows());
  for (std::size_t r = 0; r < a.rows(); ++r) {
    double acc = 0.0;
    for (std::size_t c = 0; c < a.cols(); ++c) acc += a(r, c) * x[c];
    out[r] = acc;
  }
  return out;
}

Cholesky::Cholesky(const Matrix& a, double jitter) {
  assert(a.rows() == a.cols());
  const std::size_t n = a.rows();
  // Retry with geometrically growing jitter: BN covariances are often
  // rank-deficient because deterministic nodes carry ~zero noise.
  double eps = 0.0;
  for (int attempt = 0; attempt < 8; ++attempt) {
    l_ = Matrix(n, n);
    bool failed = false;
    for (std::size_t j = 0; j < n && !failed; ++j) {
      double diag = a(j, j) + eps;
      for (std::size_t k = 0; k < j; ++k) diag -= l_(j, k) * l_(j, k);
      if (diag <= 0.0) {
        failed = true;
        break;
      }
      const double ljj = std::sqrt(diag);
      l_(j, j) = ljj;
      for (std::size_t i = j + 1; i < n; ++i) {
        double v = a(i, j);
        for (std::size_t k = 0; k < j; ++k) v -= l_(i, k) * l_(j, k);
        l_(i, j) = v / ljj;
      }
    }
    if (!failed) {
      ok_ = true;
      return;
    }
    eps = (eps == 0.0) ? std::max(jitter, a.max_abs() * 1e-14) : eps * 100.0;
  }
  ok_ = false;
}

double Cholesky::log_determinant() const {
  double acc = 0.0;
  for (std::size_t i = 0; i < l_.rows(); ++i) acc += std::log(l_(i, i));
  return 2.0 * acc;
}

Vector Cholesky::solve(const Vector& b) const {
  const std::size_t n = l_.rows();
  assert(b.size() == n);
  Vector y(n);
  for (std::size_t i = 0; i < n; ++i) {
    double v = b[i];
    for (std::size_t k = 0; k < i; ++k) v -= l_(i, k) * y[k];
    y[i] = v / l_(i, i);
  }
  Vector x(n);
  for (std::size_t ii = n; ii-- > 0;) {
    double v = y[ii];
    for (std::size_t k = ii + 1; k < n; ++k) v -= l_(k, ii) * x[k];
    x[ii] = v / l_(ii, ii);
  }
  return x;
}

Matrix Cholesky::solve(const Matrix& b) const {
  Matrix out(b.rows(), b.cols());
  for (std::size_t c = 0; c < b.cols(); ++c) {
    const Vector x = solve(b.col(c));
    for (std::size_t r = 0; r < b.rows(); ++r) out(r, c) = x[r];
  }
  return out;
}

}  // namespace drivefi::util
