/// \file
/// The campaign manifest: a format-versioned, serializable description of
/// everything that determines a campaign's results -- fault model (name +
/// canonical parameters + planned run count), scenario corpus (provenance
/// string + content hash of its `.scn` serialization), pipeline seed, and
/// the result-affecting experiment options. A manifest pins a campaign's
/// identity across processes and sittings: every shard store opens with one
/// as its header, `--resume` refuses a store whose manifest does not match
/// the campaign being resumed, and `merge` refuses to combine shards from
/// different campaigns.
///
/// Cost-only knobs (fork-from-golden, checkpoint stride, thread count) are
/// recorded for provenance but deliberately excluded from compatibility:
/// they cannot change results (enforced by tests/determinism_test.cpp), so
/// resuming a campaign with a different stride is legal.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace drivefi::sim {
struct Scenario;
}
namespace drivefi::ads {
struct PipelineConfig;
}

namespace drivefi::core {

class Experiment;
class FaultModel;
struct ClassifierConfig;
struct ExperimentOptions;

/// Serializable campaign identity; the header record of every shard store.
struct CampaignManifest {
  /// Bump when the manifest or shard-record schema changes shape.
  static constexpr std::uint64_t kFormatVersion = 1;

  std::uint64_t format_version = kFormatVersion;

  /// FaultModel::name() of the campaign's model.
  std::string model;
  /// Canonical parameter string from FaultModel::params(), e.g.
  /// "n=60 seed=1234". Part of compatibility: two campaigns with the same
  /// model name but different parameters never merge.
  std::string model_params;
  /// Total run count of the campaign (across ALL shards).
  std::size_t planned_runs = 0;

  /// Human-readable corpus provenance ("builtin:base", a .scn path, ...).
  /// Informational only -- `scenario_hash` is the authoritative identity.
  std::string scenario_spec;
  /// FNV-1a64 over scenario::serialize_suite of the corpus, so a corpus
  /// edited in place (same path, different content) is a hard mismatch.
  std::uint64_t scenario_hash = 0;

  /// ads::PipelineConfig::seed (sensor-noise streams of every run).
  std::uint64_t pipeline_seed = 0;
  /// ExperimentOptions::hold_scenes (targeted value-fault hold).
  double hold_scenes = 2.0;
  /// campaign_config_hash over every other result-affecting configuration
  /// field (module rates, sensor-noise/EKF/tracker/planner/PID/watchdog
  /// parameters, classifier thresholds), so two shards run with, say,
  /// different actuation_epsilon or control_hz can never merge.
  std::uint64_t config_hash = 0;

  // -- provenance-only fields (excluded from compatibility) --------------
  /// Whether replays could fork from golden checkpoints, i.e.
  /// checkpoint_stride > 0 (kept so existing stores still parse).
  bool fork_replays = true;
  std::size_t checkpoint_stride = 4;

  // -- shard coordinates -------------------------------------------------
  /// Which run-index residue class this store holds: {r : r % shard_count
  /// == shard_index}. A merged / single-process campaign is shard 0/1.
  std::size_t shard_index = 0;
  std::size_t shard_count = 1;

  /// One `{"type":"manifest",...}` JSONL line (no trailing newline).
  std::string to_jsonl() const;
  /// Parses a manifest line; throws std::runtime_error on malformed input
  /// or an unknown format_version.
  static CampaignManifest parse(const std::string& line);

  /// Everything result-affecting, minus the shard coordinates: two
  /// manifests describe (shards of) the same campaign iff their keys match.
  std::string compatibility_key() const;

  /// Explains the first field where `other` differs from this campaign
  /// (empty string when compatible). Shard coordinates are ignored.
  std::string mismatch_reason(const CampaignManifest& other) const;
};

/// FNV-1a64 of the corpus's canonical `.scn` serialization.
std::uint64_t scenario_suite_hash(const std::vector<sim::Scenario>& suite);

/// FNV-1a64 over the bit patterns of every result-affecting
/// PipelineConfig and ClassifierConfig field EXCEPT the seeds (pinned
/// separately by the manifest) and fault_seed (overwritten per run).
/// KEEP IN SYNC when either struct gains a field -- a field missing here
/// lets incompatible shards merge silently.
std::uint64_t campaign_config_hash(const ads::PipelineConfig& pipeline,
                                   const ClassifierConfig& classifier);

/// Builds the manifest for running `model` over `scenarios` with these
/// configurations: a function of the campaign's inputs alone, so a process
/// that only needs the campaign's identity (the fleet coordinator of a
/// random campaign) never runs golden precompute. `scenario_spec` is the
/// provenance string recorded alongside the hash.
CampaignManifest make_manifest(const std::vector<sim::Scenario>& scenarios,
                               const ads::PipelineConfig& pipeline_config,
                               const ClassifierConfig& classifier_config,
                               const ExperimentOptions& options,
                               const FaultModel& model,
                               std::string scenario_spec = "unspecified");

/// The manifest for running `model` on `experiment`: the overload above
/// over the experiment's own inputs.
CampaignManifest make_manifest(const Experiment& experiment,
                               const FaultModel& model,
                               std::string scenario_spec = "unspecified");

}  // namespace drivefi::core
