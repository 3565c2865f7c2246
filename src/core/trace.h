/// \file
/// Bridges ADS scene logs to BN datasets. Golden (fault-free) traces are
/// the training data for the 3-TBN, exactly as the paper fits its model on
/// fault-free ADS executions. Golden runs additionally record pipeline
/// checkpoints at a configurable scene stride; forked replays restore the
/// nearest checkpoint at-or-before their injection instead of re-simulating
/// the (bit-identical) prefix.
#pragma once

#include <vector>

#include "ads/pipeline.h"
#include "bn/fit.h"
#include "core/executor.h"
#include "sim/scenario.h"

namespace drivefi::core {

/// A golden run of one scenario: scene log plus bookkeeping.
struct GoldenTrace {
  std::size_t scenario_index = 0;
  std::string scenario_name;
  std::vector<ads::SceneRecord> scenes;
  /// Measured cost of the run (steady clock). run_golden_suite runs
  /// scenarios concurrently, so this may include time the run's thread
  /// spent sharing the machine with other golden runs.
  double wall_seconds = 0.0;

  /// Pipeline checkpoints captured every `checkpoint_stride` scenes
  /// (checkpoint k covers scene k * stride); empty when stride == 0.
  /// Stride is the memory/speed knob: stride 1 forks replays closest to
  /// their injection but stores a snapshot per scene.
  std::size_t checkpoint_stride = 0;
  std::vector<ads::PipelineSnapshot> checkpoints;

  /// Per-scene bookkeeping for the replay tree: the scheduler time and the
  /// dynamic instruction count right after the tick that closed scene s.
  /// scene_end_times[s] equals the .t a PipelineSnapshot captured at scene
  /// s would carry, so "latest scene strictly before an injection" agrees
  /// exactly with checkpoint_before_time/checkpoint_before_instruction.
  /// Two scalars per scene -- recorded even when checkpoints are sparse.
  std::vector<double> scene_end_times;
  std::vector<std::uint64_t> scene_instructions;

  /// Sentinel for "no scene qualifies" in the last_scene_before_* queries.
  static constexpr std::size_t kNoScene = static_cast<std::size_t>(-1);

  /// Latest scene whose end lies strictly before `inject_time` (same
  /// strictly-before contract as checkpoint_before_time); kNoScene when the
  /// injection precedes the first scene boundary.
  std::size_t last_scene_before_time(double inject_time) const;
  /// Latest scene whose end lies strictly before the dynamic instruction
  /// trigger of a bit fault; kNoScene when none qualifies.
  std::size_t last_scene_before_instruction(
      std::uint64_t instruction_index) const;

  /// Latest checkpoint strictly before `inject_time` (value faults apply
  /// from t >= inject_time on; a checkpoint taken at exactly that time
  /// could already sit past the first assertion). Null when none qualifies.
  const ads::PipelineSnapshot* checkpoint_before_time(double inject_time) const;
  /// Latest checkpoint strictly before the dynamic instruction trigger of
  /// a bit fault. Null when none qualifies.
  const ads::PipelineSnapshot* checkpoint_before_instruction(
      std::uint64_t instruction_index) const;
};

/// Runs the scenario fault-free and records all scenes, capturing a
/// checkpoint every `checkpoint_stride` scenes (0 = no checkpoints).
GoldenTrace run_golden(const sim::Scenario& scenario,
                       const ads::PipelineConfig& config,
                       std::size_t scenario_index = 0,
                       std::size_t checkpoint_stride = 0);

/// Runs all scenarios fault-free, one scenario per task on a
/// ParallelExecutor with `executor`'s thread count. Traces come back in
/// scenario order and are identical at every thread count; only
/// wall_seconds, which then times a run that overlapped others, varies.
std::vector<GoldenTrace> run_golden_suite(
    const std::vector<sim::Scenario>& scenarios,
    const ads::PipelineConfig& config, std::size_t checkpoint_stride = 0,
    const ExecutorConfig& executor = {});

/// Number of scene records a run of `duration` seconds produces (the scene
/// module fires on tick 0 and every base_hz/scene_hz ticks after).
std::size_t expected_scene_records(double duration,
                                   const ads::PipelineConfig& config);

/// Concatenated per-scene BN dataset over all traces. Only scenes with a
/// valid lead object (lead_gap >= 0) are kept when require_lead is set,
/// since lead_gap = -1 sentinel rows would poison the linear fit.
bn::Dataset traces_to_dataset(const std::vector<GoldenTrace>& traces,
                              bool require_lead = true);

}  // namespace drivefi::core
