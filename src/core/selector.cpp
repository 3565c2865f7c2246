#include "core/selector.h"

#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <cstdint>
#include <optional>
#include <span>

namespace drivefi::core {

std::vector<SelectedFault> order_by_criticality(
    std::vector<std::vector<SelectedFault>>& parts,
    const ParallelExecutor& executor) {
  struct Key {
    double delta;
    std::size_t rank;
    SelectedFault* fault;
  };
  const auto before = [](const Key& a, const Key& b) {
    return a.delta < b.delta || (a.delta == b.delta && a.rank < b.rank);
  };

  // offsets[p] is the rank of part p's first fault.
  std::vector<std::size_t> offsets(1, 0);
  offsets.reserve(parts.size() + 1);
  for (const auto& part : parts)
    offsets.push_back(offsets.back() + part.size());
  const std::size_t total = offsets.back();
  std::vector<Key> keys(total);
  const std::size_t slices = std::clamp<std::size_t>(
      executor.threads(), 1, std::max<std::size_t>(total, 1));

  // Slice s keys and sorts the ranks [total s / slices, total (s+1) / slices).
  std::vector<std::span<Key>> sorted;
  sorted.reserve(slices);
  executor.run_ordered<std::span<Key>>(
      slices,
      [&](std::size_t s) {
        const std::size_t lo = total * s / slices;
        const std::size_t hi = total * (s + 1) / slices;
        // The last part starting at or before lo holds it (empty parts
        // share their successor's offset).
        std::size_t p = static_cast<std::size_t>(
            std::upper_bound(offsets.begin(), offsets.end(), lo) -
            offsets.begin() - 1);
        for (std::size_t rank = lo; rank < hi; ++rank) {
          while (rank == offsets[p + 1]) ++p;
          SelectedFault& fault = parts[p][rank - offsets[p]];
          keys[rank] = {std::min(fault.prediction.delta_lon,
                                 fault.prediction.delta_lat),
                        rank, &fault};
        }
        const std::span<Key> slice(keys.data() + lo, hi - lo);
        std::sort(slice.begin(), slice.end(), before);
        return slice;
      },
      [&](std::span<Key>&& slice) { sorted.push_back(slice); });

  // Merge the slices' heads, moving each fault into place as it is taken.
  std::vector<SelectedFault> ordered;
  ordered.reserve(total);
  for (std::size_t n = 0; n < total; ++n) {
    std::span<Key>* next = nullptr;
    for (std::span<Key>& slice : sorted)
      if (!slice.empty() &&
          (next == nullptr || before(slice.front(), next->front())))
        next = &slice;
    ordered.push_back(std::move(*next->front().fault));
    *next = next->subspan(1);
  }
  return ordered;
}

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

// One of a frame's (target, extreme) candidates, resolved once per
// selection.
struct Slot {
  bool mapped = false;       // the target has a BN variable
  std::size_t variable = 0;  // SafetyPredictor::variable_id
  double value = 0.0;        // corrupted value in the variable's unit
  std::size_t first = 0;     // earliest slot asking the same prediction
};

struct Prediction {
  std::optional<DeltaPrediction> delta;
  PredictSkip skip = PredictSkip::kNone;
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
  // repeat each other's predictions within a frame: each such slot reuses
  // the prediction of the frame's earliest slot with the same variable and
  // value bits.
  constexpr std::size_t per_frame = FaultCatalog::candidates_per_frame();
  std::array<Slot, per_frame> slots;
  std::size_t mapped_per_frame = 0;
  for (std::size_t k = 0; k < per_frame; ++k) {
    Slot& slot = slots[k];
    slot.first = k;
    const ads::FaultTargetRow& target = ads::kFaultTargets[k / 2];
    if (target.bn_variable.empty()) continue;
    slot.mapped = true;
    ++mapped_per_frame;
    slot.variable = SafetyPredictor::variable_id(target.bn_variable);
    slot.value = (k % 2 == 0 ? target.min_value : target.max_value) -
                 target.bn_offset;
    for (std::size_t j = 0; j < k; ++j)
      if (slots[j].mapped && slots[j].variable == slot.variable &&
          std::bit_cast<std::uint64_t>(slots[j].value) ==
              std::bit_cast<std::uint64_t>(slot.value)) {
        slot.first = j;
        break;
      }
  }

  // A chunk is the whole frames that cover `chunk` candidates, so every
  // repeat finds its original in its own chunk whatever the chunk size.
  const std::size_t frames = catalog.scene_count;
  const std::size_t chunk_frames =
      (std::max<std::size_t>(1, options.chunk) + per_frame - 1) / per_frame;
  const std::size_t n_chunks = (frames + chunk_frames - 1) / chunk_frames;

  const auto evaluate_chunk = [&](std::size_t chunk_index) {
    ChunkResult out;
    std::array<Prediction, per_frame> made;  // the current frame's
    const std::size_t first = chunk_index * chunk_frames;
    const std::size_t last = std::min(first + chunk_frames, frames);
    std::size_t scenario = 0;
    std::size_t frame = first;
    for (std::size_t g = first; g < last; ++g, ++frame) {
      while (frame >= catalog.frames[scenario])
        frame -= catalog.frames[scenario++];
      if (scenario >= traces.size()) {
        out.unmapped += per_frame;
        continue;
      }
      out.unmapped += per_frame - mapped_per_frame;
      const GoldenTrace& trace = traces[scenario];
      if (frame >= trace.scenes.size()) {
        out.no_window += mapped_per_frame;
        continue;
      }
      const ads::SceneRecord& scene = trace.scenes[frame];

      // Precondition of eq. (1): the scene is safe without the fault.
      if (scene.true_delta_lon <= 0.0 || scene.true_delta_lat <= 0.0 ||
          scene.collided || scene.off_road) {
        out.golden_unsafe += mapped_per_frame;
        continue;
      }

      for (std::size_t k = 0; k < per_frame; ++k) {
        const Slot& slot = slots[k];
        if (!slot.mapped) continue;
        if (slot.first == k) {
          Prediction& p = made[k];
          p.delta = predictor_.predict(trace, frame, slot.variable, slot.value,
                                       &p.skip);
          out.inferences += p.delta.has_value();
        }
        const Prediction& p = made[slot.first];
        if (!p.delta) {
          if (p.skip == PredictSkip::kNoLead)
            ++out.no_lead;
          else
            ++out.no_window;
          continue;
        }
        ++out.evaluated;

        if (p.delta->critical()) {
          SelectedFault selected;
          selected.fault =
              catalog.fault(scenario, frame, k / 2,
                            k % 2 == 0 ? Extreme::kMin : Extreme::kMax);
          selected.prediction = *p.delta;
          selected.golden_delta_lon = scene.true_delta_lon;
          selected.golden_delta_lat = scene.true_delta_lat;
          out.critical.push_back(std::move(selected));
        }
      }
    }
    return out;
  };

  // Chunks arrive in catalog order, so each chunk's critical list keeps
  // the faults' catalog order.
  std::vector<std::vector<SelectedFault>> parts;
  const ParallelExecutor executor(options.executor);
  executor.run_ordered<ChunkResult>(
      n_chunks, evaluate_chunk, [&](ChunkResult&& partial) {
        result.candidates_evaluated += partial.evaluated;
        result.inference_calls += partial.inferences;
        result.skipped_unmapped += partial.unmapped;
        result.skipped_no_window += partial.no_window;
        result.skipped_no_lead += partial.no_lead;
        result.skipped_golden_unsafe += partial.golden_unsafe;
        parts.push_back(std::move(partial.critical));
      });
  // With no NaN delta (the golden envelope and P's distances are finite)
  // this is the order a stable sort by delta gives.
  result.critical = order_by_criticality(parts, executor);

  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return result;
}

}  // namespace drivefi::core
