#include "core/trace.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cmath>

#include "obs/metrics.h"
#include "obs/span.h"

namespace drivefi::core {

const ads::PipelineSnapshot* GoldenTrace::checkpoint_before_time(
    double inject_time) const {
  const ads::PipelineSnapshot* best = nullptr;
  for (const auto& ck : checkpoints) {
    if (ck.t >= inject_time) break;  // checkpoints are time-ordered
    best = &ck;
  }
  return best;
}

const ads::PipelineSnapshot* GoldenTrace::checkpoint_before_instruction(
    std::uint64_t instruction_index) const {
  const ads::PipelineSnapshot* best = nullptr;
  for (const auto& ck : checkpoints) {
    // A checkpoint at-or-past the trigger count would skip the injection:
    // the fault fires on the first step where the counter reaches it.
    if (ck.arch.instructions_retired >= instruction_index) break;
    best = &ck;
  }
  return best;
}

std::size_t GoldenTrace::last_scene_before_time(double inject_time) const {
  // scene_end_times is strictly increasing; binary-search the first entry
  // at-or-past the injection and step back one.
  const auto it = std::lower_bound(scene_end_times.begin(),
                                   scene_end_times.end(), inject_time);
  if (it == scene_end_times.begin()) return kNoScene;
  return static_cast<std::size_t>(it - scene_end_times.begin()) - 1;
}

std::size_t GoldenTrace::last_scene_before_instruction(
    std::uint64_t instruction_index) const {
  // Same strictly-before contract as checkpoint_before_instruction: a scene
  // whose end already reached the trigger count would skip the injection.
  const auto it = std::lower_bound(scene_instructions.begin(),
                                   scene_instructions.end(), instruction_index);
  if (it == scene_instructions.begin()) return kNoScene;
  return static_cast<std::size_t>(it - scene_instructions.begin()) - 1;
}

std::size_t expected_scene_records(double duration,
                                   const ads::PipelineConfig& config) {
  const auto total_ticks =
      static_cast<std::uint64_t>(std::llround(duration * config.base_hz));
  const auto scene_period = static_cast<std::uint64_t>(
      std::llround(config.base_hz / config.scene_hz));
  if (scene_period == 0) return 0;
  return static_cast<std::size_t>((total_ticks + scene_period - 1) /
                                  scene_period);
}

GoldenTrace run_golden(const sim::Scenario& scenario,
                       const ads::PipelineConfig& config,
                       std::size_t scenario_index,
                       std::size_t checkpoint_stride) {
  DFI_SPAN("golden");
  obs::metrics().counter("experiment.golden_runs").add();
  const auto start = std::chrono::steady_clock::now();

  sim::World world(scenario.world);
  ads::AdsPipeline pipeline(world, config);

  const std::size_t expected = expected_scene_records(scenario.duration, config);
  pipeline.reserve_scenes(expected);
  [[maybe_unused]] const std::size_t reserved_capacity =
      pipeline.scenes().capacity();

  GoldenTrace trace;
  trace.scenario_index = scenario_index;
  trace.scenario_name = scenario.name;
  trace.checkpoint_stride = checkpoint_stride;
  if (checkpoint_stride > 0)
    trace.checkpoints.reserve(expected / checkpoint_stride + 1);
  trace.scene_end_times.reserve(expected);
  trace.scene_instructions.reserve(expected);

  const auto total_ticks = static_cast<std::uint64_t>(
      std::llround(scenario.duration * config.base_hz));
  std::size_t next_checkpoint_scene = 0;
  for (std::uint64_t i = 0; i < total_ticks; ++i) {
    const std::size_t scenes_before = pipeline.scenes().size();
    pipeline.step();
    if (pipeline.scenes().size() == scenes_before) continue;
    // A scene frame just closed: record where the replay tree may fork
    // (cheap -- two scalars), and a full checkpoint on the stride grid.
    trace.scene_end_times.push_back(pipeline.now());
    trace.scene_instructions.push_back(
        pipeline.arch_state().instructions_retired());
    if (checkpoint_stride > 0 &&
        pipeline.scenes().size() == next_checkpoint_scene + 1) {
      trace.checkpoints.push_back(pipeline.snapshot());
      next_checkpoint_scene += checkpoint_stride;
    }
  }
  // The reserve() above must have covered the whole run: the golden loop
  // is a hot path and may not reallocate its scene log.
  assert(pipeline.scenes().capacity() == reserved_capacity &&
         "golden scene log reallocated; expected_scene_records undercounted");

  trace.scenes = pipeline.release_scenes();
  trace.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return trace;
}

std::vector<GoldenTrace> run_golden_suite(
    const std::vector<sim::Scenario>& scenarios,
    const ads::PipelineConfig& config, std::size_t checkpoint_stride,
    const ExecutorConfig& executor) {
  std::vector<GoldenTrace> traces;
  traces.reserve(scenarios.size());
  ParallelExecutor(executor).run_ordered<GoldenTrace>(
      scenarios.size(),
      [&](std::size_t i) {
        return run_golden(scenarios[i], config, i, checkpoint_stride);
      },
      [&](GoldenTrace&& trace) { traces.push_back(std::move(trace)); });
  return traces;
}

bn::Dataset traces_to_dataset(const std::vector<GoldenTrace>& traces,
                              bool require_lead) {
  bn::Dataset data;
  data.columns = ads::scene_variable_names();
  std::size_t total = 0;
  for (const auto& trace : traces) total += trace.scenes.size();
  data.rows.reserve(total);
  for (const auto& trace : traces) {
    for (const auto& scene : trace.scenes) {
      if (require_lead && scene.lead_gap < 0.0) continue;
      const auto values = ads::scene_variable_values(scene);
      data.add_row({values.begin(), values.end()});
    }
  }
  return data;
}

}  // namespace drivefi::core
