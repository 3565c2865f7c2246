/// \file
/// Fault catalog for the value-corruption fault model (paper fault model
/// (b)): every (scenario, scene, module-output variable, {min, max}) tuple
/// is one candidate fault. The paper's 98,400-fault list is exactly this
/// cross product over its scenario corpus; the catalog here computes ours
/// and the exhaustive-evaluation cost model behind the "615 days" number.
#pragma once

#include <cstddef>
#include <vector>

#include "ads/fault_targets.h"
#include "sim/scenario.h"

namespace drivefi::core {

enum class Extreme { kMin, kMax };

struct CandidateFault {
  std::size_t scenario_index = 0;
  std::size_t scene_index = 0;  // frame within the scenario at scene_hz
  double inject_time = 0.0;     // s
  std::size_t target = 0;       // row of ads::kFaultTargets
  Extreme extreme = Extreme::kMax;
  double value = 0.0;           // corrupted value (target min or max)
};

/// The catalog as a description of the cross product, not a list of it:
/// position i runs over scenarios, then frames, then the rows of
/// ads::kFaultTargets, then {min, max}, so a frame's candidates are
/// contiguous. Sweeps generate candidates from it on the fly; at(i) builds
/// one.
struct FaultCatalog {
  std::vector<std::size_t> frames;  // per scenario, at scene_hz
  double scene_hz = 7.5;
  std::size_t scene_count = 0;      // sum of frames

  static constexpr std::size_t candidates_per_frame() {
    return 2 * ads::kFaultTargets.size();
  }

  std::size_t scenario_count() const { return frames.size(); }
  std::size_t size() const { return scene_count * candidates_per_frame(); }

  /// The candidate at position i; throws std::out_of_range past size().
  CandidateFault at(std::size_t i) const;
  /// The candidate for (scenario, frame, target row, extreme).
  CandidateFault fault(std::size_t scenario, std::size_t frame,
                       std::size_t target, Extreme extreme) const;
};

/// Describes the full catalog over a scenario suite at the given scene
/// rate.
FaultCatalog build_catalog(const std::vector<sim::Scenario>& scenarios,
                           double scene_hz = 7.5);

/// Cost model for exhaustively simulating the catalog: every fault requires
/// replaying its scenario. Returns estimated wall-clock seconds given a
/// measured real-time factor (sim seconds per wall second).
double exhaustive_cost_seconds(const FaultCatalog& catalog,
                               const std::vector<sim::Scenario>& scenarios,
                               double sim_seconds_per_wall_second);

}  // namespace drivefi::core
