#include "ads/ekf.h"

#include <cmath>

namespace drivefi::ads {

using Mat4 = util::Mat<4, 4>;

namespace {

// Branch-free wrap to (-pi, pi]. Inputs can be arbitrarily large: a
// bit-flipped heading of 1e300 rad flows through here, so the wrap must
// be O(1) (a subtract-2pi loop would spin effectively forever).
double wrap_angle(double a) {
  if (!std::isfinite(a)) return a;
  a = std::fmod(a + M_PI, 2.0 * M_PI);
  if (a < 0.0) a += 2.0 * M_PI;
  return a - M_PI;
}

}  // namespace

LocalizationEkf::LocalizationEkf(const EkfConfig& config) : config_(config) {}

void LocalizationEkf::initialize(double x, double y, double theta, double v) {
  x_[0] = x;
  x_[1] = y;
  x_[2] = theta;
  x_[3] = v;
  p_ = Mat4::identity();
  initialized_ = true;
}

void LocalizationEkf::predict(const ImuMsg& imu, double dt) {
  if (!initialized_) return;
  const double theta = x_[2];
  const double v = x_[3];

  // Nonlinear propagation with IMU as control.
  x_[0] += v * std::cos(theta) * dt;
  x_[1] += v * std::sin(theta) * dt;
  x_[2] = wrap_angle(theta + imu.yaw_rate * dt);
  x_[3] = std::max(0.0, v + imu.accel * dt);

  // Jacobian of the motion model.
  Mat4 f = Mat4::identity();
  f(0, 2) = -v * std::sin(theta) * dt;
  f(0, 3) = std::cos(theta) * dt;
  f(1, 2) = v * std::cos(theta) * dt;
  f(1, 3) = std::sin(theta) * dt;

  Mat4 q;
  q(0, 0) = q(1, 1) = config_.process_pos_sigma * config_.process_pos_sigma * dt;
  q(2, 2) = config_.process_heading_sigma * config_.process_heading_sigma * dt;
  q(3, 3) = config_.process_speed_sigma * config_.process_speed_sigma * dt;

  // F is the identity but for its top-right 2x2 block, so F P adds that
  // block's multiples of P's last two rows to its first two, and (F P) F^T
  // does the same to columns. Every entry of F P sums an entry of P, and
  // the block's entries multiply P's, so F P is finite only if P and F are.
  // Then the terms left out, x * 0.0, change no bit (see util::all_finite).
  Mat4 fp;
  for (std::size_t c = 0; c < 4; ++c) {
    fp(0, c) = 0.0 + p_(0, c) + f(0, 2) * p_(2, c) + f(0, 3) * p_(3, c);
    fp(1, c) = 0.0 + p_(1, c) + f(1, 2) * p_(2, c) + f(1, 3) * p_(3, c);
    fp(2, c) = 0.0 + p_(2, c);
    fp(3, c) = 0.0 + p_(3, c);
  }
  if (!util::all_finite(fp)) {
    p_ = f * p_ * f.transposed() + q;
    return;
  }
  for (std::size_t r = 0; r < 4; ++r) {
    p_(r, 0) = 0.0 + fp(r, 0) + fp(r, 2) * f(0, 2) + fp(r, 3) * f(0, 3);
    p_(r, 1) = 0.0 + fp(r, 1) + fp(r, 2) * f(1, 2) + fp(r, 3) * f(1, 3);
    p_(r, 2) = 0.0 + fp(r, 2);
    p_(r, 3) = 0.0 + fp(r, 3);
  }
  p_ += q;
}

bool LocalizationEkf::update_gps(const GpsMsg& gps) {
  if (!initialized_) {
    initialize(gps.x, gps.y, gps.heading, 0.0);
    return true;
  }
  // Measurement z = [x, y, theta]; H picks the first three states.
  util::Mat<3, 4> h;
  h(0, 0) = 1.0;
  h(1, 1) = 1.0;
  h(2, 2) = 1.0;

  util::Mat<3, 3> r;
  r(0, 0) = r(1, 1) = config_.gps_pos_sigma * config_.gps_pos_sigma;
  r(2, 2) = config_.gps_heading_sigma * config_.gps_heading_sigma;

  const util::Vec<3> innovation{
      {gps.x - x_[0], gps.y - x_[1], wrap_angle(gps.heading - x_[2])}};

  // The products that leave out H's zeros need a finite P, and the
  // covariance's a finite K too; otherwise the dense products run.
  const bool finite_p = util::all_finite(p_);
  const util::Mat<3, 3> s = finite_p ? util::leading_block<3>(p_) + r
                                     : h * p_ * h.transposed() + r;
  const util::Lu s_lu(s);
  if (s_lu.singular()) return false;

  // Innovation gate: reject wild fixes (this is where corrupted GPS values
  // get masked by sensor fusion).
  const util::Vec<3> weighted = s_lu.solve(innovation);
  const double mahalanobis2 = innovation.dot(weighted);
  if (mahalanobis2 > config_.gate * config_.gate) return false;

  const util::Mat<4, 3> k =
      (finite_p ? util::leading_columns<3>(p_) : p_ * h.transposed()) *
      s_lu.inverse();
  x_ += k * innovation;
  x_[2] = wrap_angle(x_[2]);
  x_[3] = std::max(0.0, x_[3]);
  p_ = finite_p && util::all_finite(k)
           ? util::identity_minus_kh_times(k, p_)
           : (Mat4::identity() - k * h) * p_;
  return true;
}

bool LocalizationEkf::update_speed(double speed) {
  if (!initialized_) return false;
  util::Mat<1, 4> h;
  h(0, 3) = 1.0;
  const double r = config_.odom_speed_sigma * config_.odom_speed_sigma;
  const double s = p_(3, 3) + r;
  const double innovation = speed - x_[3];
  if (innovation * innovation / s > config_.gate * config_.gate) return false;

  // H picks v, so P H^T is P's last column, and (I - K H) P subtracts K
  // times P's last row. Leaving out H's zeros needs a finite P, and for
  // the covariance a finite K too; otherwise the dense products run.
  const bool finite_p = util::all_finite(p_);
  util::Mat<4, 1> k;
  if (finite_p) {
    for (std::size_t i = 0; i < 4; ++i) k(i, 0) = (0.0 + p_(i, 3)) * (1.0 / s);
  } else {
    k = (1.0 / s) * (p_ * h.transposed());
  }
  for (std::size_t i = 0; i < 4; ++i) x_[i] += k(i, 0) * innovation;
  x_[3] = std::max(0.0, x_[3]);
  if (!finite_p || !util::all_finite(k)) {
    p_ = (Mat4::identity() - k * h) * p_;
    return true;
  }
  for (std::size_t c = 0; c < 4; ++c) {
    const double p3 = p_(3, c);
    for (std::size_t i = 0; i < 3; ++i)
      p_(i, c) = 0.0 + p_(i, c) - k(i, 0) * p3;
    p_(3, c) = 0.0 + (1.0 - k(3, 0)) * p3;
  }
  return true;
}

LocalizationMsg LocalizationEkf::estimate(double t) const {
  LocalizationMsg msg;
  msg.t = t;
  msg.x = x_[0];
  msg.y = x_[1];
  msg.theta = x_[2];
  msg.v = x_[3];
  return msg;
}

double LocalizationEkf::nees(double true_x, double true_y, double true_theta,
                             double true_v) const {
  const util::Vec<4> err{{x_[0] - true_x, x_[1] - true_y,
                          wrap_angle(x_[2] - true_theta), x_[3] - true_v}};
  const util::Lu p_lu(p_);
  if (p_lu.singular()) return 0.0;
  return err.dot(p_lu.solve(err));
}

}  // namespace drivefi::ads
