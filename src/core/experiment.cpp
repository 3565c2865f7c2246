#include "core/experiment.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cmath>
#include <numeric>
#include <sstream>

#include "core/fault_model.h"
#include "core/replay_plan.h"
#include "core/replay_tree.h"
#include "core/result_store.h"
#include "obs/metrics.h"
#include "obs/span.h"

namespace drivefi::core {

namespace {

// Per-thread scene-log storage, recycled across the runs a campaign
// worker executes so the replay hot loop allocates nothing after the
// first run on each thread warms the buffer up.
thread_local std::vector<ads::SceneRecord> t_scene_scratch;

}  // namespace

Experiment::Experiment(std::vector<sim::Scenario> scenarios,
                       ads::PipelineConfig pipeline_config,
                       ClassifierConfig classifier_config,
                       ExperimentOptions options)
    : scenarios_(std::move(scenarios)),
      pipeline_config_(pipeline_config),
      classifier_config_(classifier_config),
      options_(options),
      goldens_(run_golden_suite(scenarios_, pipeline_config_,
                                options_.checkpoint_stride,
                                options_.executor)) {}

double Experiment::mean_run_wall_seconds() const {
  if (goldens_.empty()) return 0.0;
  double total = 0.0;
  for (const auto& trace : goldens_) total += trace.wall_seconds;
  return total / static_cast<double>(goldens_.size());
}

double Experiment::median_run_wall_seconds() const {
  if (goldens_.empty()) return 0.0;
  std::vector<double> walls;
  walls.reserve(goldens_.size());
  for (const auto& trace : goldens_) walls.push_back(trace.wall_seconds);
  std::sort(walls.begin(), walls.end());
  const std::size_t n = walls.size();
  return n % 2 == 1 ? walls[n / 2]
                    : 0.5 * (walls[n / 2 - 1] + walls[n / 2]);
}

CampaignStats Experiment::run(const FaultModel& model,
                              const std::vector<ResultSink*>& sinks) const {
  std::vector<std::size_t> all(model.run_count());
  std::iota(all.begin(), all.end(), std::size_t{0});
  return run_indices(model, all, nullptr, sinks);
}

CampaignStats Experiment::run_shard(const FaultModel& model,
                                    ShardStore& store,
                                    const std::vector<ResultSink*>& sinks) const {
  const CampaignManifest& manifest = store.manifest();
  // This shard's residue class, minus what the store already holds -- the
  // resume semantics fall out of the subtraction: a fresh store yields the
  // whole class, a complete store yields nothing.
  std::vector<std::size_t> missing;
  for (std::size_t r = manifest.shard_index; r < manifest.planned_runs;
       r += manifest.shard_count)
    if (!store.contains(r)) missing.push_back(r);
  return run_indices(model, missing, &store, sinks);
}

CampaignStats Experiment::run_indices(
    const FaultModel& model, const std::vector<std::size_t>& run_indices,
    ShardStore* store, const std::vector<ResultSink*>& sinks) const {
  const auto start = std::chrono::steady_clock::now();
  if (store != nullptr) {
    // The store's manifest must describe THIS experiment and model, not
    // just agree on the run count -- otherwise records produced under a
    // different seed/corpus/config would be durably stored (and later
    // merged) under another campaign's identity. Same comparison the store
    // itself applies when resuming; shard coordinates and provenance
    // spelling are the caller's business.
    const std::string reason =
        make_manifest(*this, model, store->manifest().scenario_spec)
            .mismatch_reason(store->manifest());
    if (!reason.empty())
      throw std::invalid_argument(
          "run_indices: store manifest does not describe this campaign: " +
          reason);
  }
  // Delivery happens in ascending run-index order whatever order the
  // caller handed us (a lease reclaimed from a dead worker arrives
  // front-loaded with the oldest work).
  std::vector<std::size_t> ordered = run_indices;
  std::sort(ordered.begin(), ordered.end());
  for (const std::size_t r : ordered)
    if (r >= model.run_count())
      throw std::invalid_argument(
          "run_indices: run_index " + std::to_string(r) +
          " is outside the campaign (run_count " +
          std::to_string(model.run_count()) + ")");

  CampaignMeta meta;
  meta.model_name = model.name();
  meta.planned_runs = ordered.size();
  for (ResultSink* sink : sinks) sink->begin(meta);
  for (ResultSink* sink : sinks) model.describe(*sink);

  CampaignStats stats;
  stats.records.reserve(ordered.size());
  const std::function<void(InjectionRecord&&)> consume =
      [&](InjectionRecord&& record) {
        // A re-granted lease can overlap records an earlier sitting of the
        // same store already holds; re-execution is deterministic, so the
        // fresh copy is identical and only the append is skipped.
        if (store != nullptr && !store->contains(record.run_index))
          store->append(record);
        stats.add(record);
        for (ResultSink* sink : sinks) sink->consume(record);
      };
  // A fleet lease becomes a subtree: the plan covers exactly the given
  // indices, and order_pos recovers ascending run-index delivery.
  run_replay_plan(*this, build_replay_plan(model, ordered, *this), consume);

  stats.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  for (ResultSink* sink : sinks) sink->finish(stats);
  return stats;
}

InjectionRecord Experiment::execute(const RunSpec& spec,
                                    const ads::PipelineSnapshot* fork_override,
                                    const SpliceCandidates* extra_splice) const {
  InjectionRecord record;
  record.run_index = spec.run_index;
  record.description = spec.description;

  if (spec.kind == RunSpec::Kind::kValue) {
    const RunResult result = replay_value_fault(spec.fault, spec.hold_seconds,
                                                fork_override, extra_splice);
    if (record.description.empty()) {
      std::ostringstream desc;
      desc << scenarios_.at(spec.fault.scenario_index).name
           << " t=" << spec.fault.inject_time << " "
           << ads::kFaultTargets[spec.fault.target].name << "="
           << spec.fault.value;
      record.description = desc.str();
    }
    record.scenario_index = spec.fault.scenario_index;
    record.scene_index = result.outcome == Outcome::kHazard
                             ? result.hazard_scene_index
                             : spec.fault.scene_index;
    record.outcome = result.outcome;
    record.min_delta_lon = result.min_delta_lon;
    record.max_actuation_divergence = result.max_actuation_divergence;
    return record;
  }

  const RunResult result =
      replay_bit_fault(spec.scenario_index, spec.target, spec.bits,
                       spec.instruction_index, spec.fault_seed, fork_override,
                       extra_splice);
  record.scenario_index = spec.scenario_index;
  record.scene_index = result.hazard_scene_index;
  record.outcome = result.outcome;
  record.min_delta_lon = result.min_delta_lon;
  record.max_actuation_divergence = result.max_actuation_divergence;
  return record;
}

RunResult Experiment::run_replay(const sim::Scenario& scenario,
                                 const GoldenTrace& golden,
                                 ads::AdsPipeline& pipeline,
                                 const ads::PipelineSnapshot* fork_from,
                                 const SpliceCandidates* extra_splice) const {
  DFI_SPAN("replay");
  const auto start = std::chrono::steady_clock::now();

  // Recycle this worker thread's scene storage and pre-size it: the
  // replay loop below must never touch the allocator.
  pipeline.adopt_scene_log(std::move(t_scene_scratch));
  const std::size_t expected =
      expected_scene_records(scenario.duration, pipeline_config_);
  pipeline.reserve_scenes(std::max(expected, golden.scenes.size()));
  [[maybe_unused]] const std::size_t reserved_capacity =
      pipeline.scenes().capacity();

  if (fork_from != nullptr) {
    // Fork: resume from the golden state instead of re-simulating the
    // bit-identical prefix (same noise seed, fault still unarmed).
    pipeline.restore(*fork_from);
    pipeline.preload_scene_prefix(golden.scenes, fork_from->scene_index + 1);
  }
  // Without a golden state to compare against (no checkpoints, no trunk
  // snapshots) the replay simulates its whole scenario: a full replay.
  const bool can_splice =
      golden.checkpoint_stride > 0 || extra_splice != nullptr;

  const auto total_ticks = static_cast<std::uint64_t>(
      std::llround(scenario.duration * pipeline_config_.base_hz));
  bool spliced = false;
  while (pipeline.tick() < total_ticks) {
    const std::size_t scenes_before = pipeline.scenes().size();
    pipeline.step();
    if (!can_splice || pipeline.scenes().size() == scenes_before) continue;

    // A scene frame just closed. If the fault window is over and the
    // faulty state is bit-equal to a golden state at this scene -- the
    // stride-aligned checkpoint, or a trunk divergence snapshot when the
    // replay tree supplies them -- every remaining tick would replay the
    // golden run: splice its tail instead of simulating it (this also
    // decides kMasked exactly and early: a spliced run can never diverge
    // later). Which candidate detected the match only moves the splice
    // scene, and a match at any scene implies a match at every later one,
    // so densifying candidates changes cost, never records.
    const std::size_t scene = pipeline.scenes().size() - 1;
    const ads::PipelineSnapshot* candidate = nullptr;
    if (extra_splice != nullptr) {
      const auto it = std::lower_bound(
          extra_splice->begin(), extra_splice->end(), scene,
          [](const auto& entry, std::size_t s) { return entry.first < s; });
      if (it != extra_splice->end() && it->first == scene)
        candidate = it->second;
    }
    if (candidate == nullptr && golden.checkpoint_stride > 0 &&
        scene % golden.checkpoint_stride == 0) {
      const std::size_t k = scene / golden.checkpoint_stride;
      if (k < golden.checkpoints.size()) candidate = &golden.checkpoints[k];
    }
    if (candidate == nullptr) continue;
    if (!pipeline.faults_quiescent()) continue;
    if (!pipeline.state_matches(*candidate)) continue;
    pipeline.splice_golden_tail(golden.scenes, scene + 1);
    spliced = true;
    break;
  }
  assert(pipeline.scenes().capacity() == reserved_capacity &&
         "replay scene log reallocated despite reserve");

  const RunResult result =
      classify_run(golden.scenes, pipeline.scenes(),
                   pipeline.any_module_hung(), classifier_config_);
  t_scene_scratch = pipeline.release_scenes();

  // Function-local statics: one registry lookup ever, then lock-free
  // relaxed-atomic updates on the per-run hot path.
  static obs::Histogram& run_wall_hist =
      obs::metrics().histogram("experiment.run_wall_seconds");
  static obs::Counter& forked_metric =
      obs::metrics().counter("experiment.replays_forked");
  static obs::Counter& full_metric =
      obs::metrics().counter("experiment.replays_full");
  static obs::Counter& spliced_metric =
      obs::metrics().counter("experiment.replays_spliced");
  run_wall_hist.observe(
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count());
  if (fork_from != nullptr || can_splice) {
    forked_metric.add();
    if (spliced) spliced_metric.add();
  } else {
    full_metric.add();
  }
  return result;
}

std::vector<ads::PipelineSnapshot> Experiment::materialize_trunk(
    std::size_t scenario_index, const std::vector<std::size_t>& scenes) const {
  DFI_SPAN("trunk");
  const sim::Scenario& scenario = scenarios_.at(scenario_index);
  const GoldenTrace& golden = goldens_.at(scenario_index);

  static obs::Counter& trunk_scenes_metric =
      obs::metrics().counter("replay_tree.trunk_scenes_simulated");
  static obs::Counter& trunk_restores_metric =
      obs::metrics().counter("replay_tree.trunk_checkpoint_restores");
  static obs::Counter& snapshots_metric =
      obs::metrics().counter("replay_tree.snapshots_taken");

  // A fault-free pipeline whose states are bit-exactly the golden run's:
  // restore + re-step reproduces the original simulation (the same
  // property the golden-tail splice rests on), so every snapshot captured
  // here is interchangeable with a golden checkpoint at that scene.
  sim::World world(scenario.world);
  ads::AdsPipeline pipeline(world, pipeline_config_);
  pipeline.adopt_scene_log(std::move(t_scene_scratch));
  pipeline.reserve_scenes(golden.scenes.size());

  std::vector<ads::PipelineSnapshot> out;
  out.reserve(scenes.size());
  bool started = false;
  for (const std::size_t target : scenes) {
    assert(target < golden.scene_end_times.size() &&
           "trunk target scene beyond the golden run");
    // Deepest golden checkpoint at-or-before the target; restoring it
    // skips the gap since the previous target when the gap spans it.
    const ads::PipelineSnapshot* jump = nullptr;
    for (const auto& ck : golden.checkpoints) {
      if (ck.scene_index > target) break;
      jump = &ck;
    }
    const bool ahead =
        jump != nullptr &&
        (!started || jump->scene_index >= pipeline.scenes().size());
    if (ahead) {
      pipeline.restore(*jump);
      pipeline.preload_scene_prefix(golden.scenes, jump->scene_index + 1);
      if (started) trunk_restores_metric.add();
      started = true;
    }
    while (pipeline.scenes().size() <= target) {
      const std::size_t before = pipeline.scenes().size();
      pipeline.step();
      if (pipeline.scenes().size() != before) trunk_scenes_metric.add();
    }
    started = true;
    out.push_back(pipeline.snapshot());
    snapshots_metric.add();
  }
  t_scene_scratch = pipeline.release_scenes();
  return out;
}

RunResult Experiment::replay_value_fault(
    const CandidateFault& fault, double hold_seconds,
    const ads::PipelineSnapshot* fork_override,
    const SpliceCandidates* extra_splice) const {
  const sim::Scenario& scenario = scenarios_.at(fault.scenario_index);
  const GoldenTrace& golden = goldens_.at(fault.scenario_index);

  sim::World world(scenario.world);
  ads::AdsPipeline pipeline(world, pipeline_config_);

  ads::ValueFault vf;
  vf.target = fault.target;
  vf.value = fault.value;
  vf.start_time = fault.inject_time;
  vf.hold_duration = hold_seconds;
  pipeline.arm_value_fault(vf);

  return run_replay(scenario, golden, pipeline,
                    fork_override != nullptr
                        ? fork_override
                        : golden.checkpoint_before_time(fault.inject_time),
                    extra_splice);
}

RunResult Experiment::replay_bit_fault(std::size_t scenario_index,
                                       std::size_t target,
                                       unsigned bits,
                                       std::uint64_t instruction_index,
                                       std::uint64_t fault_seed,
                                       const ads::PipelineSnapshot* fork_override,
                                       const SpliceCandidates* extra_splice) const {
  const sim::Scenario& scenario = scenarios_.at(scenario_index);
  const GoldenTrace& golden = goldens_.at(scenario_index);

  // The sensor-noise seed stays identical to the golden run so the
  // injected run is its exact counterfactual twin; only the bit-position
  // stream is per-run. Restoring a golden checkpoint leaves that per-run
  // stream untouched (PipelineSnapshot does not capture it).
  ads::PipelineConfig config = pipeline_config_;
  config.fault_seed = fault_seed;

  sim::World world(scenario.world);
  ads::AdsPipeline pipeline(world, config);

  ads::BitFault bf;
  bf.target = target;
  bf.bits = bits;
  bf.instruction_index = instruction_index;
  pipeline.arm_bit_fault(bf);

  return run_replay(scenario, golden, pipeline,
                    fork_override != nullptr
                        ? fork_override
                        : golden.checkpoint_before_instruction(instruction_index),
                    extra_splice);
}

}  // namespace drivefi::core
