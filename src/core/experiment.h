/// \file
/// The unified campaign engine. One Experiment owns a scenario suite, an
/// ADS configuration, and eagerly precomputed golden traces; every fault
/// model (random bit flips, random value corruption, Bayesian-selected
/// replays) runs through the same loop: FaultModel yields RunSpecs, a
/// replay plan groups them by scenario, the replay tree (core/replay_tree.h)
/// replays them against the goldens concurrently, and the classified
/// records stream to ResultSinks in run-index order.
///
/// Replays fork from the golden twin instead of re-simulating it: golden
/// runs checkpoint the full pipeline state every `checkpoint_stride`
/// scenes, each group's trunk walk snapshots the golden state at every
/// divergence scene, a replay restores the nearest snapshot before its
/// injection, and once the fault window has passed and the faulty state
/// compares bit-equal to a golden state at the same scene the golden tail
/// is spliced in instead of simulated. With both memory knobs at zero
/// (`checkpoint_stride` 0, `max_live_snapshots` 0) nothing is restored or
/// spliced and every run simulates its whole scenario: the full-replay
/// oracle. Records, stats, and JSONL output are byte-equal to it at any
/// thread count, stride, and budget (enforced by
/// tests/determinism_test.cpp).
///
/// Determinism: per-run randomness derives from (campaign seed, run index)
/// via splitmix64, golden traces are computed once up front, and every
/// replay constructs its own World/AdsPipeline -- so Experiment is const
/// and re-entrant during a campaign, and the resulting CampaignStats are
/// bit-identical at any thread count.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "core/campaign_stats.h"
#include "core/executor.h"
#include "core/fault_catalog.h"
#include "core/outcome.h"
#include "core/result_sink.h"
#include "core/trace.h"

namespace drivefi::core {

class FaultModel;
struct RunSpec;
class ShardStore;

struct ExperimentOptions {
  /// How many scene periods a TARGETED value fault is held (stuck-at)
  /// during replay; keep equal to SafetyPredictor::horizon() so replays
  /// validate exactly what the selector predicted. Random-campaign faults
  /// instead hold for one control period (transient, the paper's random
  /// model).
  double hold_scenes = 2.0;
  ExecutorConfig executor;

  /// Scenes between golden checkpoints: the memory/speed knob for the
  /// replay prefix. Stride 1 forks closest to the injection but stores one
  /// full PipelineSnapshot per scene; larger strides re-simulate up to
  /// stride-1 scenes of prefix per replay that no trunk snapshot covers
  /// and delay the earliest possible golden-tail splice, but divide
  /// checkpoint memory by the stride. 0 records no checkpoints. Never
  /// changes results -- only cost.
  std::size_t checkpoint_stride = 4;

  /// Cap on live in-memory trunk snapshots across all in-flight replay
  /// groups (default: uncapped, the plan's whole snapshot demand). When a
  /// group wants more than the remaining budget its shallowest divergence
  /// snapshots are dropped at admission and those tails restore their
  /// golden checkpoint instead -- slower, never different. 0 grants no
  /// trunk snapshots: every tail restores its golden checkpoint.
  std::size_t max_live_snapshots = std::numeric_limits<std::size_t>::max();
};

/// Extra golden-tail splice candidates for a replay, sorted by scene:
/// trunk snapshots are bit-exact golden states, so a quiescent replay
/// whose state matches one at ANY scene may splice the golden tail there
/// (the stride-aligned checkpoints remain candidates as well).
using SpliceCandidates =
    std::vector<std::pair<std::size_t, const ads::PipelineSnapshot*>>;

class Experiment {
 public:
  /// Runs the golden suite eagerly, on `options.executor`'s threads: after
  /// construction the engine is immutable and safe to share across worker
  /// threads.
  Experiment(std::vector<sim::Scenario> scenarios,
             ads::PipelineConfig pipeline_config,
             ClassifierConfig classifier_config = {},
             ExperimentOptions options = {});

  const std::vector<sim::Scenario>& scenarios() const { return scenarios_; }
  const std::vector<GoldenTrace>& goldens() const { return goldens_; }
  const ads::PipelineConfig& pipeline_config() const { return pipeline_config_; }
  const ClassifierConfig& classifier_config() const { return classifier_config_; }
  const ExperimentOptions& options() const { return options_; }

  double hold_scenes() const { return options_.hold_scenes; }
  double targeted_hold_seconds() const {
    return options_.hold_scenes / pipeline_config_.scene_hz;
  }
  double transient_hold_seconds() const {
    return 1.0 / pipeline_config_.control_hz;
  }

  /// Wall-clock cost of one FULL simulation run, measured from the golden
  /// runs on the steady clock (used by the E1 exhaustive-cost model). The
  /// median is robust to first-run warmup effects. Golden runs execute
  /// concurrently on the executor's threads, so with more threads than
  /// free cores each measurement includes time spent sharing a core.
  double mean_run_wall_seconds() const;
  double median_run_wall_seconds() const;

  // Per-replay cost is observable through the experiment.replays_forked,
  // experiment.replays_full, experiment.replays_spliced counters and the
  // experiment.run_wall_seconds histogram (obs/metrics.h).

  /// Execute one campaign: every spec of the model, in parallel, delivered
  /// to the sinks in run-index order (run_indices over every index, with
  /// no store). Returns the aggregate stats.
  CampaignStats run(const FaultModel& model,
                    const std::vector<ResultSink*>& sinks = {}) const;

  /// Execute one shard of a campaign: the deterministic run-index subset
  /// {r : r % store.manifest().shard_count == shard_index}, minus the
  /// indices already in the store (so a second call after a crash resumes
  /// exactly the missing work, and a call on a complete store is a no-op).
  /// Each record is appended to the durable store -- and delivered to the
  /// sinks -- in increasing run-index order. Because every run's seed
  /// derives from (campaign seed, run_index), shard results are
  /// bit-identical to the same indices of the single-process campaign;
  /// merge_shards (core/result_store.h) reassembles them. Returns stats
  /// over the runs executed by THIS call only. Throws std::invalid_argument
  /// when the store's planned_runs disagrees with model.run_count().
  CampaignStats run_shard(const FaultModel& model, ShardStore& store,
                          const std::vector<ResultSink*>& sinks = {}) const;

  /// Execute an explicit list of run indices -- the lease-execution path
  /// the fleet worker (coord/worker.h) uses, and what run and run_shard
  /// reduce to. Indices may be any subset of [0, model.run_count()) in any
  /// order; they are planned into a replay tree (a fleet lease becomes a
  /// subtree), produced in parallel, and delivered to the store and sinks
  /// in ASCENDING run-index order.
  /// When `store` is non-null each record is appended durably -- unless the
  /// store already holds that index (a re-granted lease overlapping an
  /// earlier sitting), in which case the re-executed record is delivered to
  /// the sinks only; determinism makes the two copies identical. Throws
  /// std::invalid_argument on an index outside the campaign or a store
  /// whose manifest does not describe this experiment+model.
  CampaignStats run_indices(const FaultModel& model,
                            const std::vector<std::size_t>& run_indices,
                            ShardStore* store,
                            const std::vector<ResultSink*>& sinks = {}) const;

  /// Execute a single RunSpec and classify it (const, re-entrant; this is
  /// what campaign workers call). `fork_override` (the replay tree's
  /// divergence snapshot) replaces the default golden-checkpoint fork when
  /// non-null; `extra_splice` adds trunk snapshots as golden-tail splice
  /// candidates. Both are cost-only: they never change the record.
  InjectionRecord execute(const RunSpec& spec,
                          const ads::PipelineSnapshot* fork_override = nullptr,
                          const SpliceCandidates* extra_splice = nullptr) const;

  /// Re-materializes bit-exact golden pipeline states at each of `scenes`
  /// (sorted ascending) of one scenario: the trunk walk of the replay
  /// tree. Restores the deepest golden checkpoint before each target scene
  /// when that skips simulation, otherwise continues stepping from the
  /// previous target. Snapshot k corresponds to scenes[k].
  std::vector<ads::PipelineSnapshot> materialize_trunk(
      std::size_t scenario_index, const std::vector<std::size_t>& scenes) const;

  /// One-off replays for case studies and tests.
  RunResult replay_value_fault(const CandidateFault& fault,
                               double hold_seconds,
                               const ads::PipelineSnapshot* fork_override = nullptr,
                               const SpliceCandidates* extra_splice = nullptr) const;
  RunResult replay_bit_fault(std::size_t scenario_index,
                             const std::string& target, unsigned bits,
                             std::uint64_t instruction_index,
                             std::uint64_t fault_seed,
                             const ads::PipelineSnapshot* fork_override = nullptr,
                             const SpliceCandidates* extra_splice = nullptr) const;

 private:
  /// Shared replay driver: restores `fork_from` when given (a golden
  /// checkpoint or a trunk divergence snapshot), simulates the remainder,
  /// and splices the golden tail as soon as the faulty state reconverges
  /// bit-exactly with a splice candidate (`extra_splice`, and the
  /// stride-aligned checkpoints when checkpoint_stride > 0). The scene log
  /// lives in a recycled per-thread scratch buffer and never reallocates.
  RunResult run_replay(const sim::Scenario& scenario, const GoldenTrace& golden,
                       ads::AdsPipeline& pipeline,
                       const ads::PipelineSnapshot* fork_from,
                       const SpliceCandidates* extra_splice) const;

  std::vector<sim::Scenario> scenarios_;
  ads::PipelineConfig pipeline_config_;
  ClassifierConfig classifier_config_;
  ExperimentOptions options_;
  std::vector<GoldenTrace> goldens_;
};

}  // namespace drivefi::core
