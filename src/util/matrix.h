// Small dense linear-algebra library for the Bayesian-network engine
// (joint-Gaussian conditioning), its only user: the BN's sizes are known
// only at run time (13 variables per slice, 52 nodes at the default 4
// slices). The Kalman filters, whose sizes are fixed, use
// util/small_matrix.h. Row-major, double precision, dynamic size. Sizes
// are tiny, so clarity beats blocking/vectorization tricks.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <vector>

namespace drivefi::util {

class Vector {
 public:
  Vector() = default;
  explicit Vector(std::size_t n, double fill = 0.0) : data_(n, fill) {}
  Vector(std::initializer_list<double> values) : data_(values) {}

  std::size_t size() const { return data_.size(); }
  double& operator[](std::size_t i) { return data_[i]; }
  double operator[](std::size_t i) const { return data_[i]; }
  double* data() { return data_.data(); }
  const double* data() const { return data_.data(); }

  bool operator==(const Vector&) const = default;

  Vector& operator+=(const Vector& rhs);
  Vector& operator-=(const Vector& rhs);
  Vector& operator*=(double s);

  double dot(const Vector& rhs) const;
  double norm() const;
  double norm_inf() const;

 private:
  std::vector<double> data_;
};

Vector operator+(Vector lhs, const Vector& rhs);
Vector operator-(Vector lhs, const Vector& rhs);
Vector operator*(double s, Vector v);

class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}
  // Row-wise initializer: Matrix({{1,2},{3,4}}).
  Matrix(std::initializer_list<std::initializer_list<double>> rows);

  static Matrix identity(std::size_t n);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

  double& operator()(std::size_t r, std::size_t c) {
    return data_[r * cols_ + c];
  }
  double operator()(std::size_t r, std::size_t c) const {
    return data_[r * cols_ + c];
  }

  bool operator==(const Matrix&) const = default;

  Matrix transposed() const;
  Matrix& operator+=(const Matrix& rhs);
  Matrix& operator-=(const Matrix& rhs);
  Matrix& operator*=(double s);

  Vector row(std::size_t r) const;
  Vector col(std::size_t c) const;

  // Submatrix selection by index lists (used heavily by Gaussian
  // conditioning, which partitions a joint covariance).
  Matrix select(const std::vector<std::size_t>& row_idx,
                const std::vector<std::size_t>& col_idx) const;

  double max_abs() const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

Matrix operator+(Matrix lhs, const Matrix& rhs);
Matrix operator-(Matrix lhs, const Matrix& rhs);
Matrix operator*(double s, Matrix m);
Matrix operator*(const Matrix& a, const Matrix& b);
Vector operator*(const Matrix& a, const Vector& x);

// Cholesky factorization of a symmetric positive-(semi)definite matrix.
// A small diagonal jitter is added on failure so that degenerate
// covariances (deterministic BN nodes have zero variance) still factor.
class Cholesky {
 public:
  explicit Cholesky(const Matrix& a, double jitter = 1e-12);

  bool ok() const { return ok_; }
  const Matrix& lower() const { return l_; }
  double log_determinant() const;

  Vector solve(const Vector& b) const;   // A x = b
  Matrix solve(const Matrix& b) const;   // A X = B

 private:
  Matrix l_;
  bool ok_ = false;
};

}  // namespace drivefi::util
