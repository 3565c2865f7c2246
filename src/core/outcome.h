/// \file
/// Outcome taxonomy for injected runs, matching the paper's categories:
/// masked (no observable effect), SDC/actuation errors the ADS recovers
/// from, hangs/crashes (module failure), and hazards (safety violation:
/// collision, lane departure, or delta <= 0). The taxonomy is a partition:
/// every run maps to exactly one outcome, with hazard taking precedence.
#pragma once

#include <string>

#include "ads/pipeline.h"

namespace drivefi::core {

enum class Outcome {
  kMasked,      // trajectories indistinguishable from golden
  kSdcBenign,   // actuation diverged, but no safety violation (recovered)
  kHang,        // one or more modules died (stale outputs thereafter)
  kHazard,      // collision, off-road, or true delta <= 0 at any scene
};

const char* outcome_name(Outcome outcome);

/// Inverse of outcome_name (used by the shard result store to reload
/// records). Returns false when `name` names no outcome.
bool outcome_from_name(const std::string& name, Outcome* out);

struct RunResult {
  Outcome outcome = Outcome::kMasked;
  bool collided = false;
  bool off_road = false;
  bool delta_violated = false;   // true delta <= 0 at some scene
  double min_delta_lon = 1e18;   // over the run
  double min_delta_lat = 1e18;
  double max_actuation_divergence = 0.0;  // vs golden, pedal units
  std::size_t hazard_scene_index = 0;     // first violating scene, if any
  std::string detail;
};

struct ClassifierConfig {
  /// A run with no hazard and no hang is masked when its largest actuation
  /// divergence from golden (throttle, brake or steer units) stays at or
  /// below this, and SDC-benign above it. Replay is bit-identical, so a
  /// fault with no effect diverges by exactly 0; the threshold sets how
  /// large a deviation must be to count as observable.
  double actuation_epsilon = 0.05;
  /// A scene counts as delta-violated only if the golden run was safe at
  /// the same scene (fault must CAUSE the violation -- eq. (1)).
  bool require_golden_safe = true;
  /// A delta violation must persist this many consecutive scenes to count
  /// as a hazard; single-scene sign flips of the instantaneous criterion
  /// are measurement noise, not safety events. Collision/off-road are
  /// always immediate.
  int delta_persistence_scenes = 2;
};

/// Classify an injected run against its golden counterpart. The two scene
/// logs must come from the same scenario (equal length up to early end).
RunResult classify_run(const std::vector<ads::SceneRecord>& golden,
                       const std::vector<ads::SceneRecord>& injected,
                       bool any_module_hung,
                       const ClassifierConfig& config = {});

}  // namespace drivefi::core
