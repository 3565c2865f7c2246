#include "core/selector.h"

#include <algorithm>
#include <chrono>

namespace drivefi::core {

std::map<std::string, std::string> default_target_to_bn_variable() {
  return {
      {"control.throttle", "throttle"},
      {"control.brake", "brake"},
      {"control.steering", "steer"},
      {"plan.target_accel", "u_accel"},
      {"plan.target_steer", "u_steer"},
      {"localization.v", "v"},
      {"imu.speed", "v"},
      {"localization.theta", "theta"},
      {"gps.heading", "theta"},
      {"localization.y", "y_off"},
      {"world_model.lead_gap", "lead_gap"},
      {"world_model.lead_rel_speed", "lead_rel_speed"},
  };
}

double fault_value_to_bn_value(const CandidateFault& fault,
                               const std::string& bn_variable) {
  if (fault.target == "localization.y" && bn_variable == "y_off") {
    // World y -> offset from the ego lane center (lane 1 at y = 3.7 in
    // every library scenario).
    constexpr double kEgoLaneCenter = 3.7;
    return fault.value - kEgoLaneCenter;
  }
  return fault.value;
}

BayesianFaultSelector::BayesianFaultSelector(
    const SafetyPredictor& predictor,
    std::map<std::string, std::string> target_map)
    : predictor_(predictor), target_map_(std::move(target_map)) {}

namespace {

// Per-chunk partial result; merged in chunk order so the final
// SelectionResult is independent of scheduling.
struct ChunkResult {
  std::vector<SelectedFault> critical;
  std::size_t evaluated = 0;
  std::size_t unmapped = 0;
  std::size_t no_window = 0;
  std::size_t no_lead = 0;
  std::size_t golden_unsafe = 0;
};

}  // namespace

SelectionResult BayesianFaultSelector::select_critical_faults(
    const FaultCatalog& catalog, const std::vector<GoldenTrace>& traces,
    const SelectionOptions& options) const {
  const auto start = std::chrono::steady_clock::now();

  SelectionResult result;
  result.candidates_total = catalog.size();

  const std::size_t chunk = std::max<std::size_t>(1, options.chunk);
  const std::size_t n_chunks = (catalog.size() + chunk - 1) / chunk;

  const auto evaluate_chunk = [&](std::size_t chunk_index) {
    ChunkResult out;
    const std::size_t begin = chunk_index * chunk;
    const std::size_t end = std::min(begin + chunk, catalog.size());
    for (std::size_t f = begin; f < end; ++f) {
      const CandidateFault& fault = catalog.faults[f];
      const auto map_it = target_map_.find(fault.target);
      if (map_it == target_map_.end() ||
          fault.scenario_index >= traces.size()) {
        ++out.unmapped;
        continue;
      }
      const GoldenTrace& trace = traces[fault.scenario_index];
      if (fault.scene_index >= trace.scenes.size()) {
        ++out.no_window;
        continue;
      }
      const ads::SceneRecord& scene = trace.scenes[fault.scene_index];

      // Precondition of eq. (1): the scene is safe without the fault.
      if (scene.true_delta_lon <= 0.0 || scene.true_delta_lat <= 0.0 ||
          scene.collided || scene.off_road) {
        ++out.golden_unsafe;
        continue;
      }

      const double bn_value = fault_value_to_bn_value(fault, map_it->second);
      PredictSkip skip = PredictSkip::kNone;
      const auto prediction = predictor_.predict(
          trace, fault.scene_index, map_it->second, bn_value, &skip);
      if (!prediction) {
        if (skip == PredictSkip::kNoLead)
          ++out.no_lead;
        else
          ++out.no_window;
        continue;
      }
      ++out.evaluated;

      if (prediction->critical()) {
        SelectedFault selected;
        selected.fault = fault;
        selected.prediction = *prediction;
        selected.golden_delta_lon = scene.true_delta_lon;
        selected.golden_delta_lat = scene.true_delta_lat;
        out.critical.push_back(std::move(selected));
      }
    }
    return out;
  };

  const ParallelExecutor executor(options.executor);
  executor.run_ordered<ChunkResult>(
      n_chunks, evaluate_chunk, [&](ChunkResult&& partial) {
        result.candidates_evaluated += partial.evaluated;
        result.skipped_unmapped += partial.unmapped;
        result.skipped_no_window += partial.no_window;
        result.skipped_no_lead += partial.no_lead;
        result.skipped_golden_unsafe += partial.golden_unsafe;
        result.critical.insert(result.critical.end(),
                               std::make_move_iterator(partial.critical.begin()),
                               std::make_move_iterator(partial.critical.end()));
      });

  // Most negative predicted delta first (most critical). Stable: ties keep
  // catalog order, which chunk-ordered merging made deterministic.
  std::stable_sort(result.critical.begin(), result.critical.end(),
                   [](const SelectedFault& a, const SelectedFault& b) {
                     const double da = std::min(a.prediction.delta_lon,
                                                a.prediction.delta_lat);
                     const double db = std::min(b.prediction.delta_lon,
                                                b.prediction.delta_lat);
                     return da < db;
                   });

  // Every evaluated candidate is exactly one BN inference (skips return
  // before inference), so the accounting stays thread-count independent.
  result.inference_calls = result.candidates_evaluated;
  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return result;
}

}  // namespace drivefi::core
