#include "ads/sensors.h"

#include <algorithm>
#include <cmath>
#include <vector>

namespace drivefi::ads {

GpsMsg sense_gps(const sim::World& world, const GpsNoise& noise,
                 util::Rng& rng) {
  const auto& ego = world.ego();
  GpsMsg msg;
  msg.t = world.time();
  msg.x = ego.x + rng.gaussian(0.0, noise.position_sigma);
  msg.y = ego.y + rng.gaussian(0.0, noise.position_sigma);
  msg.heading = ego.theta + rng.gaussian(0.0, noise.heading_sigma);
  return msg;
}

ImuMsg sense_imu(const sim::World& world, const ImuNoise& noise,
                 util::Rng& rng) {
  const auto& ego = world.ego();
  const auto& params = world.ego_params();
  ImuMsg msg;
  msg.t = world.time();
  msg.accel = ego.a + rng.gaussian(0.0, noise.accel_sigma);
  msg.yaw_rate = ego.v * std::tan(ego.phi) / params.wheelbase +
                 rng.gaussian(0.0, noise.yaw_rate_sigma);
  msg.speed = std::max(0.0, ego.v + rng.gaussian(0.0, noise.speed_sigma));
  return msg;
}

void sense_objects(const sim::World& world, const ObjectSensorConfig& config,
                   util::Rng& rng, DetectionMsg& msg) {
  msg.t = world.time();
  msg.detections.clear();

  const auto& ego = world.ego();
  const auto& vehicles = world.vehicles();

  for (std::size_t i = 0; i < vehicles.size(); ++i) {
    const auto& tv = vehicles[i];
    const double dx = tv.x - ego.x;
    const double dy = tv.y - ego.y;
    const double dist = std::hypot(dx, dy);
    if (dist > config.range) continue;

    if (config.model_occlusion) {
      // Occlusion: another vehicle strictly between ego and this one, in
      // roughly the same lateral corridor, blocks line of sight. This is
      // what hides TV#2 behind TV#1 in the Tesla-reveal scenario.
      bool occluded = false;
      for (std::size_t j = 0; j < vehicles.size() && !occluded; ++j) {
        if (j == i) continue;
        const auto& blocker = vehicles[j];
        const double bdx = blocker.x - ego.x;
        if (bdx <= 0.5 || bdx >= dx - 0.5) continue;  // not between
        // Lateral offset of the blocker from the ego->target ray at bdx.
        const double ray_y = ego.y + dy * (bdx / std::max(dx, 1e-6));
        if (std::abs(blocker.y - ray_y) <
            blocker.config.width / 2.0 + 0.3)
          occluded = true;
      }
      if (occluded) continue;
    }

    if (rng.bernoulli(config.dropout_probability)) continue;

    Detection det;
    det.x = tv.x + rng.gaussian(0.0, config.position_sigma);
    det.y = tv.y + rng.gaussian(0.0, config.position_sigma);
    det.speed_along =
        tv.v * std::cos(tv.heading) + rng.gaussian(0.0, config.speed_sigma);
    det.length = tv.config.length;
    det.width = tv.config.width;
    msg.detections.push_back(det);
  }
}

}  // namespace drivefi::ads
