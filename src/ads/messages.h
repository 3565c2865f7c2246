// Message types flowing between ADS modules (the I_t, M_t, W_t, U_{A,t}
// and A_t of the paper's Fig. 1). Every scalar field that a fault model
// can corrupt has a row in ads/fault_targets.h.
#pragma once

#include <cstdint>
#include <vector>

#include "util/bits.h"

namespace drivefi::ads {

// --- Sensor inputs (I_t, M_t) ---

struct GpsMsg {
  double t = 0.0;
  double x = 0.0;
  double y = 0.0;
  double heading = 0.0;

  bool operator==(const GpsMsg&) const = default;
};

struct ImuMsg {
  double t = 0.0;
  double accel = 0.0;     // longitudinal, m/s^2
  double yaw_rate = 0.0;  // rad/s
  double speed = 0.0;     // wheel odometry, m/s

  bool operator==(const ImuMsg&) const = default;
};

// One raw detection from the camera/LiDAR model.
struct Detection {
  double x = 0.0;  // world frame (the sensor model pre-registers to map)
  double y = 0.0;
  double speed_along = 0.0;  // m/s, along +x (radial-rate style measurement)
  double length = 4.8;
  double width = 1.9;

  bool operator==(const Detection&) const = default;
};

struct DetectionMsg {
  double t = 0.0;
  std::vector<Detection> detections;

  bool operator==(const DetectionMsg&) const = default;
};

// --- Localization output ---

struct LocalizationMsg {
  double t = 0.0;
  double x = 0.0;
  double y = 0.0;
  double theta = 0.0;
  double v = 0.0;

  bool operator==(const LocalizationMsg&) const = default;
};

// --- World model (W_t): tracked objects ---

struct TrackedObject {
  int id = -1;
  double x = 0.0;
  double y = 0.0;
  double vx = 0.0;
  double vy = 0.0;
  double length = 4.8;
  double width = 1.9;
  int age_frames = 0;  // confirmations; young tracks are tentative

  bool operator==(const TrackedObject&) const = default;
};

struct WorldModelMsg {
  double t = 0.0;
  std::vector<TrackedObject> objects;
  // Derived scalars for the in-path lead object (the planner's primary
  // inputs and two of the BN variables). Negative gap = no lead in range.
  double lead_gap = -1.0;
  double lead_rel_speed = 0.0;

  bool operator==(const WorldModelMsg&) const = default;
};

// --- Planner output (U_{A,t}): raw actuation before PID smoothing ---

struct PlanMsg {
  double t = 0.0;
  double target_accel = 0.0;   // u_zeta/u_b combined, m/s^2 (sign = brake)
  double target_steer = 0.0;   // u_phi, rad
  double target_speed = 0.0;   // cruise set point after ACC logic, m/s

  bool operator==(const PlanMsg&) const = default;
};

// --- Controller output (A_t) ---

struct ControlMsg {
  double t = 0.0;
  double throttle = 0.0;  // zeta, [0,1]
  double brake = 0.0;     // b, [0,1]
  double steering = 0.0;  // phi, rad

  bool operator==(const ControlMsg&) const = default;
};

// Bit-exact message comparison (util/bits.h semantics): corrupted messages
// can hold NaNs and signed zeros, so snapshot-equality checks that gate
// golden-tail splicing compare representations, never operator== values.
inline bool bits_equal(const GpsMsg& a, const GpsMsg& b) {
  using util::bits_equal;
  return bits_equal(a.t, b.t) && bits_equal(a.x, b.x) && bits_equal(a.y, b.y) &&
         bits_equal(a.heading, b.heading);
}

inline bool bits_equal(const ImuMsg& a, const ImuMsg& b) {
  using util::bits_equal;
  return bits_equal(a.t, b.t) && bits_equal(a.accel, b.accel) &&
         bits_equal(a.yaw_rate, b.yaw_rate) && bits_equal(a.speed, b.speed);
}

inline bool bits_equal(const Detection& a, const Detection& b) {
  using util::bits_equal;
  return bits_equal(a.x, b.x) && bits_equal(a.y, b.y) &&
         bits_equal(a.speed_along, b.speed_along) &&
         bits_equal(a.length, b.length) && bits_equal(a.width, b.width);
}

inline bool bits_equal(const DetectionMsg& a, const DetectionMsg& b) {
  if (!util::bits_equal(a.t, b.t) || a.detections.size() != b.detections.size())
    return false;
  for (std::size_t i = 0; i < a.detections.size(); ++i)
    if (!bits_equal(a.detections[i], b.detections[i])) return false;
  return true;
}

inline bool bits_equal(const LocalizationMsg& a, const LocalizationMsg& b) {
  using util::bits_equal;
  return bits_equal(a.t, b.t) && bits_equal(a.x, b.x) && bits_equal(a.y, b.y) &&
         bits_equal(a.theta, b.theta) && bits_equal(a.v, b.v);
}

inline bool bits_equal(const TrackedObject& a, const TrackedObject& b) {
  using util::bits_equal;
  return a.id == b.id && a.age_frames == b.age_frames &&
         bits_equal(a.x, b.x) && bits_equal(a.y, b.y) &&
         bits_equal(a.vx, b.vx) && bits_equal(a.vy, b.vy) &&
         bits_equal(a.length, b.length) && bits_equal(a.width, b.width);
}

inline bool bits_equal(const WorldModelMsg& a, const WorldModelMsg& b) {
  if (!util::bits_equal(a.t, b.t) ||
      !util::bits_equal(a.lead_gap, b.lead_gap) ||
      !util::bits_equal(a.lead_rel_speed, b.lead_rel_speed) ||
      a.objects.size() != b.objects.size())
    return false;
  for (std::size_t i = 0; i < a.objects.size(); ++i)
    if (!bits_equal(a.objects[i], b.objects[i])) return false;
  return true;
}

inline bool bits_equal(const PlanMsg& a, const PlanMsg& b) {
  using util::bits_equal;
  return bits_equal(a.t, b.t) && bits_equal(a.target_accel, b.target_accel) &&
         bits_equal(a.target_steer, b.target_steer) &&
         bits_equal(a.target_speed, b.target_speed);
}

inline bool bits_equal(const ControlMsg& a, const ControlMsg& b) {
  using util::bits_equal;
  return bits_equal(a.t, b.t) && bits_equal(a.throttle, b.throttle) &&
         bits_equal(a.brake, b.brake) && bits_equal(a.steering, b.steering);
}

}  // namespace drivefi::ads
