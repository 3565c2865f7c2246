#include "core/fault_catalog.h"

#include <stdexcept>

namespace drivefi::core {

CandidateFault FaultCatalog::fault(std::size_t scenario, std::size_t frame,
                                   std::size_t target, Extreme extreme) const {
  CandidateFault out;
  out.scenario_index = scenario;
  out.scene_index = frame;
  out.inject_time = static_cast<double>(frame) / scene_hz;
  out.target = target;
  out.extreme = extreme;
  out.value = extreme == Extreme::kMin ? ads::kFaultTargets[target].min_value
                                       : ads::kFaultTargets[target].max_value;
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
                           double scene_hz) {
  FaultCatalog catalog;
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
