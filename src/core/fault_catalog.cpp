#include "core/fault_catalog.h"

#include <stdexcept>

namespace drivefi::core {

std::vector<TargetRange> default_target_ranges() {
  // Keep in sync with AdsPipeline::register_fault_targets().
  return {
      {"gps.x", 0.0, 2000.0},
      {"gps.y", -5.0, 12.0},
      {"gps.heading", -0.6, 0.6},
      {"imu.speed", 0.0, 45.0},
      {"imu.accel", -10.0, 10.0},
      {"imu.yaw_rate", -1.0, 1.0},
      {"localization.x", 0.0, 2000.0},
      {"localization.y", -5.0, 12.0},
      {"localization.theta", -0.6, 0.6},
      {"localization.v", 0.0, 45.0},
      {"perception.range", 15.0, 250.0},
      {"world_model.lead_gap", 0.0, 250.0},
      {"world_model.lead_rel_speed", -40.0, 40.0},
      {"plan.target_accel", -6.0, 2.5},
      {"plan.target_steer", -0.3, 0.3},
      {"plan.target_speed", 0.0, 45.0},
      {"control.throttle", 0.0, 1.0},
      {"control.brake", 0.0, 1.0},
      {"control.steering", -0.55, 0.55},
  };
}

CandidateFault FaultCatalog::fault(std::size_t scenario, std::size_t frame,
                                   std::size_t target, Extreme extreme) const {
  CandidateFault out;
  out.scenario_index = scenario;
  out.scene_index = frame;
  out.inject_time = static_cast<double>(frame) / scene_hz;
  out.target = targets[target].name;
  out.extreme = extreme;
  out.value = extreme == Extreme::kMin ? targets[target].min_value
                                       : targets[target].max_value;
  return out;
}

CandidateFault FaultCatalog::at(std::size_t i) const {
  if (i >= size()) throw std::out_of_range("FaultCatalog::at: out of range");
  const std::size_t per_frame = candidates_per_frame();
  std::size_t frame = i / per_frame;
  std::size_t scenario = 0;
  while (frame >= frames[scenario]) frame -= frames[scenario++];
  const std::size_t slot = i % per_frame;
  return fault(scenario, frame, slot / 2,
               slot % 2 == 0 ? Extreme::kMin : Extreme::kMax);
}

FaultCatalog build_catalog(const std::vector<sim::Scenario>& scenarios,
                           const std::vector<TargetRange>& targets,
                           double scene_hz) {
  FaultCatalog catalog;
  catalog.targets = targets;
  catalog.scene_hz = scene_hz;
  for (const sim::Scenario& scenario : scenarios) {
    catalog.frames.push_back(sim::scene_count(scenario, scene_hz));
    catalog.scene_count += catalog.frames.back();
  }
  return catalog;
}

double exhaustive_cost_seconds(const FaultCatalog& catalog,
                               const std::vector<sim::Scenario>& scenarios,
                               double sim_seconds_per_wall_second) {
  // Each candidate fault replays its whole scenario.
  double total_sim_seconds = 0.0;
  const std::size_t per_frame = catalog.candidates_per_frame();
  for (std::size_t s = 0; s < catalog.scenario_count(); ++s)
    total_sim_seconds += static_cast<double>(catalog.frames[s] * per_frame) *
                         scenarios[s].duration;
  return total_sim_seconds / sim_seconds_per_wall_second;
}

}  // namespace drivefi::core
