#include "sim/world.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "util/bits.h"

namespace drivefi::sim {

using kinematics::Actuation;
using kinematics::ObstacleView;
using kinematics::SafetyPotential;
using kinematics::VehicleState;

namespace {

// Smoothstep blend for lateral lane-change profiles: C1-continuous, zero
// lateral velocity at both ends.
double smoothstep(double t) {
  t = std::clamp(t, 0.0, 1.0);
  return t * t * (3.0 - 2.0 * t);
}

}  // namespace

World::World(const WorldConfig& config) : config_(config) {
  ego_.x = 0.0;
  ego_.y = config_.road.lane_center(config_.ego_lane);
  ego_.theta = 0.0;
  ego_.v = config_.ego_speed;

  for (const auto& tv_cfg : config_.vehicles) {
    TargetVehicle tv;
    tv.config = tv_cfg;
    tv.x = tv_cfg.initial_gap;
    tv.y = config_.road.lane_center(tv_cfg.initial_lane);
    tv.v = tv_cfg.initial_speed;
    vehicles_.push_back(tv);
  }
  evaluate_status();
}

World::Snapshot World::snapshot() const {
  Snapshot snap;
  snap.time = time_;
  snap.ego = ego_;
  snap.vehicles.reserve(vehicles_.size());
  for (const auto& tv : vehicles_)
    snap.vehicles.push_back({tv.x, tv.y, tv.v, tv.heading, tv.active_phase,
                             tv.lane_change_start_time,
                             tv.lane_change_start_y});
  snap.status = status_;
  return snap;
}

void World::restore(const Snapshot& snap) {
  assert(snap.vehicles.size() == vehicles_.size() &&
         "World::restore: snapshot is from a different scenario");
  time_ = snap.time;
  ego_ = snap.ego;
  for (std::size_t i = 0; i < vehicles_.size() && i < snap.vehicles.size();
       ++i) {
    const TvDynamicState& s = snap.vehicles[i];
    TargetVehicle& tv = vehicles_[i];
    tv.x = s.x;
    tv.y = s.y;
    tv.v = s.v;
    tv.heading = s.heading;
    tv.active_phase = s.active_phase;
    tv.lane_change_start_time = s.lane_change_start_time;
    tv.lane_change_start_y = s.lane_change_start_y;
  }
  status_ = snap.status;
}

bool World::state_equals(const Snapshot& snap) const {
  using util::bits_equal;
  if (snap.vehicles.size() != vehicles_.size()) return false;
  if (!bits_equal(time_, snap.time)) return false;
  const kinematics::VehicleState& e = snap.ego;
  if (!bits_equal(ego_.x, e.x) || !bits_equal(ego_.y, e.y) ||
      !bits_equal(ego_.theta, e.theta) || !bits_equal(ego_.v, e.v) ||
      !bits_equal(ego_.phi, e.phi) || !bits_equal(ego_.a, e.a))
    return false;
  for (std::size_t i = 0; i < vehicles_.size(); ++i) {
    const TargetVehicle& tv = vehicles_[i];
    const TvDynamicState& s = snap.vehicles[i];
    if (!bits_equal(tv.x, s.x) || !bits_equal(tv.y, s.y) ||
        !bits_equal(tv.v, s.v) || !bits_equal(tv.heading, s.heading) ||
        tv.active_phase != s.active_phase ||
        !bits_equal(tv.lane_change_start_time, s.lane_change_start_time) ||
        !bits_equal(tv.lane_change_start_y, s.lane_change_start_y))
      return false;
  }
  return status_ == snap.status;
}

const WorldStatus& World::step(const Actuation& ego_actuation, double dt) {
  time_ += dt;
  ego_ = kinematics::step(ego_, ego_actuation, config_.ego_params, dt);
  for (auto& tv : vehicles_) step_vehicle(tv, dt);
  evaluate_status();
  return status_;
}

std::pair<double, double> World::leader_of(const TargetVehicle& tv) const {
  const double lane_tolerance = config_.road.lane_width * 0.5;
  double best_gap = -1.0;
  double best_speed = 0.0;
  auto consider = [&](double x, double y, double v, double length) {
    if (x <= tv.x) return;
    if (std::abs(y - tv.y) > lane_tolerance) return;
    const double gap = x - tv.x - (length + tv.config.length) / 2.0;
    if (best_gap < 0.0 || gap < best_gap) {
      best_gap = std::max(0.0, gap);
      best_speed = v;
    }
  };
  consider(ego_.x, ego_.y, ego_.v, config_.ego_params.length);
  for (const auto& other : vehicles_) {
    if (&other == &tv) continue;
    consider(other.x, other.y, other.v, other.config.length);
  }
  return {best_gap, best_speed};
}

void World::step_vehicle(TargetVehicle& tv, double dt) {
  // Select the latest phase whose start time has passed.
  int phase_idx = -1;
  for (std::size_t i = 0; i < tv.config.phases.size(); ++i)
    if (tv.config.phases[i].start_time <= time_)
      phase_idx = static_cast<int>(i);

  if (tv.config.idm) {
    // Reactive longitudinal control; phases below contribute lane changes.
    const auto [gap, lead_v] = leader_of(tv);
    tv.v += idm_accel(*tv.config.idm, tv.v, gap, lead_v) * dt;
  }

  if (phase_idx >= 0) {
    const TvPhase& phase = tv.config.phases[static_cast<std::size_t>(phase_idx)];
    if (phase_idx != tv.active_phase) {
      tv.active_phase = phase_idx;
      if (phase.target_lane) {
        tv.lane_change_start_time = time_;
        tv.lane_change_start_y = tv.y;
      }
    }
    if (!tv.config.idm) {
      // Longitudinal: ramp toward the phase's target speed.
      const double dv = phase.target_speed - tv.v;
      const double max_dv = phase.accel * dt;
      tv.v += std::clamp(dv, -max_dv, max_dv);
    }

    // Lateral: blend toward the target lane center.
    if (phase.target_lane && tv.lane_change_start_time >= 0.0) {
      const double target_y = config_.road.lane_center(*phase.target_lane);
      const double progress =
          (time_ - tv.lane_change_start_time) / phase.lane_change_duration;
      const double blend = smoothstep(progress);
      const double new_y =
          tv.lane_change_start_y + (target_y - tv.lane_change_start_y) * blend;
      const double dy = new_y - tv.y;
      tv.y = new_y;
      tv.heading = std::atan2(dy, std::max(tv.v * dt, 1e-6));
      if (progress >= 1.0) tv.heading = 0.0;
    } else {
      tv.heading = 0.0;
    }
  }
  tv.v = std::max(0.0, tv.v);
  tv.x += tv.v * std::cos(tv.heading) * dt;
}

void World::evaluate_status() {
  if (status_.collided) return;  // sticky

  const Obb ego_box{ego_.x, ego_.y, ego_.theta,
                    config_.ego_params.length / 2.0,
                    config_.ego_params.width / 2.0};
  for (std::size_t i = 0; i < vehicles_.size(); ++i) {
    const Obb box = vehicles_[i].obb();
    if (obb_may_overlap(ego_box, box) && obb_overlap(ego_box, box)) {
      status_.collided = true;
      status_.collided_with = i;
      return;
    }
  }
  const double half_width = config_.ego_params.width / 2.0;
  status_.off_road = (ego_.y + half_width > config_.road.left_edge()) ||
                     (ego_.y - half_width < config_.road.right_edge());
}

std::vector<ObstacleView> World::obstacle_views() const {
  std::vector<ObstacleView> out;
  out.reserve(vehicles_.size());
  for (const auto& tv : vehicles_) out.push_back(tv.view());
  return out;
}

int World::ego_lane() const {
  const double lane_f = ego_.y / config_.road.lane_width;
  const int lane = static_cast<int>(std::lround(lane_f));
  return std::clamp(lane, 0, config_.road.lanes - 1);
}

double World::ego_lane_center_y() const {
  return config_.road.lane_center(ego_lane());
}

kinematics::SafetyEnvelope World::true_safety_envelope() const {
  return kinematics::safety_envelope(ego_, config_.ego_params,
                                     obstacle_views(), ego_lane_center_y());
}

SafetyPotential World::true_safety_potential() const {
  return kinematics::compute_safety_potential(
      ego_, config_.ego_params, obstacle_views(), ego_lane_center_y());
}

}  // namespace drivefi::sim
