// Fixed-size dense matrices and a partial-pivot LU for the ADS's Kalman
// filters (ads/ekf, ads/tracker), whose sizes are known at compile time.
// Storage is a std::array, so a filter's state is a trivially copyable
// value: a tick allocates nothing for it, and a snapshot copies it inline.
//
// Every operation repeats, step for step, the heap-backed arithmetic the
// filters ran on before: util::Matrix's products, sums and transposes and
// a partial-pivot LU. That means the same accumulation order, the
// product's skip of a zero left factor, the same pivot test and 1e-300
// singular threshold, and the inverse solved column by column from the
// identity. Results are therefore bit-identical, ±0.0, inf and subnormals
// included. This is a requirement, not tidiness: replay splices compare
// simulation state bit for bit, and campaign records are compared byte
// for byte across versions. (Only a NaN's sign and payload may differ:
// when both operands are NaN, which one an operation returns follows the
// compiler's operand order.) ads_test keeps the heap-backed arithmetic as
// the reference and checks this on sequences with the values a bit flip
// feeds a filter.
#pragma once

#include <array>
#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <utility>

#include "util/bits.h"

namespace drivefi::util {

template <std::size_t N>
struct Vec {
  std::array<double, N> v{};

  double& operator[](std::size_t i) { return v[i]; }
  double operator[](std::size_t i) const { return v[i]; }

  bool operator==(const Vec&) const = default;

  Vec& operator+=(const Vec& rhs) {
    for (std::size_t i = 0; i < N; ++i) v[i] += rhs.v[i];
    return *this;
  }

  double dot(const Vec& rhs) const {
    double acc = 0.0;
    for (std::size_t i = 0; i < N; ++i) acc += v[i] * rhs.v[i];
    return acc;
  }
};

/// R x C, row-major.
template <std::size_t R, std::size_t C>
struct Mat {
  std::array<double, R * C> a{};

  static Mat identity()
    requires(R == C)
  {
    Mat m;
    for (std::size_t i = 0; i < R; ++i) m(i, i) = 1.0;
    return m;
  }

  double& operator()(std::size_t r, std::size_t c) { return a[r * C + c]; }
  double operator()(std::size_t r, std::size_t c) const {
    return a[r * C + c];
  }

  bool operator==(const Mat&) const = default;

  Mat<C, R> transposed() const {
    Mat<C, R> t;
    for (std::size_t r = 0; r < R; ++r)
      for (std::size_t c = 0; c < C; ++c) t(c, r) = (*this)(r, c);
    return t;
  }

  Mat& operator+=(const Mat& rhs) {
    for (std::size_t i = 0; i < R * C; ++i) a[i] += rhs.a[i];
    return *this;
  }
  Mat& operator-=(const Mat& rhs) {
    for (std::size_t i = 0; i < R * C; ++i) a[i] -= rhs.a[i];
    return *this;
  }
  Mat& operator*=(double s) {
    for (double& x : a) x *= s;
    return *this;
  }
};

template <std::size_t R, std::size_t C>
Mat<R, C> operator+(Mat<R, C> lhs, const Mat<R, C>& rhs) {
  return lhs += rhs;
}
template <std::size_t R, std::size_t C>
Mat<R, C> operator-(Mat<R, C> lhs, const Mat<R, C>& rhs) {
  return lhs -= rhs;
}
template <std::size_t R, std::size_t C>
Mat<R, C> operator*(double s, Mat<R, C> m) {
  return m *= s;
}

// A zero left factor skips its row of b: 0 * inf would add a NaN.
template <std::size_t R, std::size_t K, std::size_t C>
Mat<R, C> operator*(const Mat<R, K>& a, const Mat<K, C>& b) {
  Mat<R, C> out;
  for (std::size_t r = 0; r < R; ++r) {
    for (std::size_t k = 0; k < K; ++k) {
      const double av = a(r, k);
      if (av == 0.0) continue;
      for (std::size_t c = 0; c < C; ++c) out(r, c) += av * b(k, c);
    }
  }
  return out;
}

// No zero skip here, as in util::Matrix * util::Vector.
template <std::size_t R, std::size_t C>
Vec<R> operator*(const Mat<R, C>& a, const Vec<C>& x) {
  Vec<R> out;
  for (std::size_t r = 0; r < R; ++r) {
    double acc = 0.0;
    for (std::size_t c = 0; c < C; ++c) acc += a(r, c) * x[c];
    out[r] = acc;
  }
  return out;
}

template <std::size_t N>
bool bits_equal(const Vec<N>& a, const Vec<N>& b) {
  for (std::size_t i = 0; i < N; ++i)
    if (!bits_equal(a[i], b[i])) return false;
  return true;
}

template <std::size_t R, std::size_t C>
bool bits_equal(const Mat<R, C>& a, const Mat<R, C>& b) {
  for (std::size_t i = 0; i < R * C; ++i)
    if (!bits_equal(a.a[i], b.a[i])) return false;
  return true;
}

/// LU with partial pivoting.
template <std::size_t N>
class Lu {
 public:
  explicit Lu(const Mat<N, N>& a) : lu_(a) {
    for (std::size_t i = 0; i < N; ++i) perm_[i] = i;
    for (std::size_t col = 0; col < N; ++col) {
      std::size_t pivot = col;
      double best = std::abs(lu_(col, col));
      for (std::size_t r = col + 1; r < N; ++r) {
        const double v = std::abs(lu_(r, col));
        if (v > best) {
          best = v;
          pivot = r;
        }
      }
      if (best < 1e-300) {
        singular_ = true;
        return;
      }
      if (pivot != col) {
        for (std::size_t c = 0; c < N; ++c)
          std::swap(lu_(pivot, c), lu_(col, c));
        std::swap(perm_[pivot], perm_[col]);
        sign_ = -sign_;
      }
      const double inv_pivot = 1.0 / lu_(col, col);
      for (std::size_t r = col + 1; r < N; ++r) {
        const double factor = lu_(r, col) * inv_pivot;
        lu_(r, col) = factor;
        for (std::size_t c = col + 1; c < N; ++c)
          lu_(r, c) -= factor * lu_(col, c);
      }
    }
  }

  bool singular() const { return singular_; }

  Vec<N> solve(const Vec<N>& b) const {
    if (singular_) throw std::runtime_error("Lu::solve on singular matrix");
    Vec<N> y;
    for (std::size_t i = 0; i < N; ++i) {
      double v = b[perm_[i]];
      for (std::size_t k = 0; k < i; ++k) v -= lu_(i, k) * y[k];
      y[i] = v;
    }
    Vec<N> x;
    for (std::size_t ii = N; ii-- > 0;) {
      double v = y[ii];
      for (std::size_t k = ii + 1; k < N; ++k) v -= lu_(ii, k) * x[k];
      x[ii] = v / lu_(ii, ii);
    }
    return x;
  }

  Mat<N, N> inverse() const {
    Mat<N, N> out;
    for (std::size_t c = 0; c < N; ++c) {
      Vec<N> e;
      e[c] = 1.0;
      const Vec<N> x = solve(e);
      for (std::size_t r = 0; r < N; ++r) out(r, c) = x[r];
    }
    return out;
  }

  double determinant() const {
    if (singular_) return 0.0;
    double det = sign_;
    for (std::size_t i = 0; i < N; ++i) det *= lu_(i, i);
    return det;
  }

 private:
  Mat<N, N> lu_;
  std::array<std::size_t, N> perm_{};
  int sign_ = 1;
  bool singular_ = false;
};

}  // namespace drivefi::util
