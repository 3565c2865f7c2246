#include "core/selector.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdint>
#include <optional>

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
  std::size_t inferences = 0;
  std::size_t unmapped = 0;
  std::size_t no_window = 0;
  std::size_t no_lead = 0;
  std::size_t golden_unsafe = 0;
};

bool same_frame(const CandidateFault& a, const CandidateFault& b) {
  return a.scenario_index == b.scenario_index && a.scene_index == b.scene_index;
}

// A prediction made in the current frame, kept for the targets that map to
// the same BN variable and value.
struct MadePrediction {
  const std::string* variable;
  std::uint64_t value_bits;
  std::optional<DeltaPrediction> prediction;
  PredictSkip skip;
};

}  // namespace

SelectionResult BayesianFaultSelector::select_critical_faults(
    const FaultCatalog& catalog, const std::vector<GoldenTrace>& traces,
    const SelectionOptions& options) const {
  const auto start = std::chrono::steady_clock::now();

  SelectionResult result;
  result.candidates_total = catalog.size();

  // A prediction depends only on (scenario, scene, BN variable, value), and
  // targets that share a BN variable (imu.speed and localization.v, say)
  // repeat each other's predictions within a frame. Chunks end on a frame
  // boundary, so every repeat finds its original in its own chunk whatever
  // the chunk size.
  const std::size_t chunk = std::max<std::size_t>(1, options.chunk);
  std::vector<std::size_t> bounds{0};
  while (bounds.back() < catalog.size()) {
    std::size_t end = std::min(bounds.back() + chunk, catalog.size());
    while (end < catalog.size() &&
           same_frame(catalog.faults[end - 1], catalog.faults[end]))
      ++end;
    bounds.push_back(end);
  }
  const std::size_t n_chunks = bounds.size() - 1;

  const auto evaluate_chunk = [&](std::size_t chunk_index) {
    ChunkResult out;
    std::vector<MadePrediction> frame;  // predictions of the current frame
    const CandidateFault* frame_fault = nullptr;
    for (std::size_t f = bounds[chunk_index]; f < bounds[chunk_index + 1];
         ++f) {
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

      if (frame_fault == nullptr || !same_frame(*frame_fault, fault)) {
        frame.clear();
        frame_fault = &fault;
      }
      const std::string& variable = map_it->second;
      const auto value_bits = std::bit_cast<std::uint64_t>(
          fault_value_to_bn_value(fault, variable));
      auto made = std::find_if(
          frame.begin(), frame.end(), [&](const MadePrediction& m) {
            return m.value_bits == value_bits && *m.variable == variable;
          });
      if (made == frame.end()) {
        MadePrediction m{&variable, value_bits, std::nullopt,
                         PredictSkip::kNone};
        m.prediction =
            predictor_.predict(trace, fault.scene_index, variable,
                               std::bit_cast<double>(value_bits), &m.skip);
        out.inferences += m.prediction.has_value();
        frame.push_back(std::move(m));
        made = frame.end() - 1;
      }
      if (!made->prediction) {
        if (made->skip == PredictSkip::kNoLead)
          ++out.no_lead;
        else
          ++out.no_window;
        continue;
      }
      ++out.evaluated;

      if (made->prediction->critical()) {
        SelectedFault selected;
        selected.fault = fault;
        selected.prediction = *made->prediction;
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
        result.inference_calls += partial.inferences;
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

  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return result;
}

}  // namespace drivefi::core
