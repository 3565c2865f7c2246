// Localization via an extended Kalman filter fusing GPS (position/heading)
// with IMU + wheel odometry (accel, yaw rate, speed). The paper names EKF
// sensor fusion as one of the ADS's natural resilience mechanisms
// (§II-C(b)); the E8 ablation disables it to quantify that claim.
//
// State: [x, y, theta, v]. Process model: unicycle driven by measured
// accel/yaw-rate (control inputs). Measurements: GPS (x, y, theta) and
// odometry (v).
#pragma once

#include "ads/messages.h"
#include "util/small_matrix.h"

namespace drivefi::ads {

struct EkfConfig {
  double process_pos_sigma = 0.05;    // m / sqrt(step)
  double process_heading_sigma = 0.002;
  double process_speed_sigma = 0.15;
  double gps_pos_sigma = 0.4;
  double gps_heading_sigma = 0.01;
  double odom_speed_sigma = 0.1;
  // Innovation gate (Mahalanobis distance, per-measurement); rejects
  // corrupted GPS fixes -- a key masking path for injected faults.
  double gate = 5.0;

  bool operator==(const EkfConfig&) const = default;
};

class LocalizationEkf {
 public:
  // Complete filter state: the estimate, its covariance, and whether the
  // filter has been initialized. Config is not state.
  struct Snapshot {
    bool initialized = false;
    util::Vec<4> x;
    util::Mat<4, 4> p;

    bool operator==(const Snapshot&) const = default;
  };

  explicit LocalizationEkf(const EkfConfig& config = {});

  Snapshot snapshot() const { return {initialized_, x_, p_}; }
  void restore(const Snapshot& snap) {
    initialized_ = snap.initialized;
    x_ = snap.x;
    p_ = snap.p;
  }
  bool state_equals(const Snapshot& snap) const {
    return initialized_ == snap.initialized && util::bits_equal(x_, snap.x) &&
           util::bits_equal(p_, snap.p);
  }

  void initialize(double x, double y, double theta, double v);
  bool initialized() const { return initialized_; }

  // Propagate with IMU controls over dt.
  void predict(const ImuMsg& imu, double dt);
  // Fuse a GPS fix; returns false if the innovation gate rejected it.
  bool update_gps(const GpsMsg& gps);
  // Fuse wheel-odometry speed.
  bool update_speed(double speed);

  LocalizationMsg estimate(double t) const;
  const util::Mat<4, 4>& covariance() const { return p_; }

  // Normalized estimation error squared against ground truth; used by the
  // EKF consistency property test.
  double nees(double true_x, double true_y, double true_theta,
              double true_v) const;

 private:
  EkfConfig config_;
  bool initialized_ = false;
  util::Vec<4> x_;  // [x, y, theta, v]
  util::Mat<4, 4> p_ = util::Mat<4, 4>::identity();
};

}  // namespace drivefi::ads
