// Sensor models: GPS, IMU (+wheel odometry), and an object sensor standing
// in for the camera/LiDAR stack. Each adds Gaussian noise and has the
// physical limits (range, occlusion) that make the paper's Example 2
// reproducible: an occluded or out-of-range vehicle simply does not appear
// in the detection list.
#pragma once

#include "ads/messages.h"
#include "sim/world.h"
#include "util/rng.h"

namespace drivefi::ads {

// The sensor models are pure functions of (world, config, RNG stream):
// snapshotting a sensor is snapshotting its Rng (util::RngState) plus the
// config below -- `ObjectSensorConfig::range` is a live fault target
// ("perception.range"), so it is runtime state, not just configuration.
struct GpsNoise {
  double position_sigma = 0.4;  // m
  double heading_sigma = 0.01;  // rad

  bool operator==(const GpsNoise&) const = default;
};

struct ImuNoise {
  double accel_sigma = 0.05;
  double yaw_rate_sigma = 0.002;
  double speed_sigma = 0.1;

  bool operator==(const ImuNoise&) const = default;
};

struct ObjectSensorConfig {
  double range = 200.0;        // m
  double position_sigma = 0.3;
  double speed_sigma = 0.3;
  bool model_occlusion = true;
  double dropout_probability = 0.01;  // per-object per-frame miss

  bool operator==(const ObjectSensorConfig&) const = default;
};

// Bit-exact comparison: `range` is writable by injected faults, so it can
// carry NaN or signed-zero payloads that operator== mishandles.
inline bool bits_equal(const ObjectSensorConfig& a,
                       const ObjectSensorConfig& b) {
  using util::bits_equal;
  return bits_equal(a.range, b.range) &&
         bits_equal(a.position_sigma, b.position_sigma) &&
         bits_equal(a.speed_sigma, b.speed_sigma) &&
         a.model_occlusion == b.model_occlusion &&
         bits_equal(a.dropout_probability, b.dropout_probability);
}

GpsMsg sense_gps(const sim::World& world, const GpsNoise& noise,
                 util::Rng& rng);

ImuMsg sense_imu(const sim::World& world, const ImuNoise& noise,
                 util::Rng& rng);

// Detections of all TVs within range and not occluded by a nearer TV in
// approximately the same bearing corridor. Overwrites every field of `msg`
// and keeps the capacity of its detection list, so a caller that reuses
// one message allocates nothing once the list has grown.
void sense_objects(const sim::World& world, const ObjectSensorConfig& config,
                   util::Rng& rng, DetectionMsg& msg);

}  // namespace drivefi::ads
