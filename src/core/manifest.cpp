#include "core/manifest.h"

#include <sstream>
#include <stdexcept>

#include "ads/pipeline.h"
#include "core/experiment.h"
#include "core/fault_model.h"
#include "core/jsonl.h"
#include "scenario/dsl.h"
#include "util/bits.h"
#include "util/fnv.h"
#include "util/number_format.h"

namespace drivefi::core {

std::uint64_t campaign_config_hash(const ads::PipelineConfig& pipeline,
                                   const ClassifierConfig& classifier) {
  util::Fnv1a fnv;
  // PipelineConfig, field by field (seeds excluded: `seed` is pinned as
  // manifest.pipeline_seed, `fault_seed` is overwritten per run).
  fnv.add(pipeline.base_hz);
  fnv.add(pipeline.imu_hz);
  fnv.add(pipeline.gps_hz);
  fnv.add(pipeline.perception_hz);
  fnv.add(pipeline.planner_hz);
  fnv.add(pipeline.control_hz);
  fnv.add(pipeline.scene_hz);
  fnv.add(pipeline.use_ekf);
  fnv.add(pipeline.use_pid);
  fnv.add(pipeline.watchdog.enabled);
  fnv.add(pipeline.watchdog.staleness_threshold);
  fnv.add(pipeline.watchdog.brake_level);
  fnv.add(pipeline.watchdog.steer_release_rate);
  fnv.add(pipeline.gps_noise.position_sigma);
  fnv.add(pipeline.gps_noise.heading_sigma);
  fnv.add(pipeline.imu_noise.accel_sigma);
  fnv.add(pipeline.imu_noise.yaw_rate_sigma);
  fnv.add(pipeline.imu_noise.speed_sigma);
  fnv.add(pipeline.object_sensor.range);
  fnv.add(pipeline.object_sensor.position_sigma);
  fnv.add(pipeline.object_sensor.speed_sigma);
  fnv.add(pipeline.object_sensor.model_occlusion);
  fnv.add(pipeline.object_sensor.dropout_probability);
  fnv.add(pipeline.ekf.process_pos_sigma);
  fnv.add(pipeline.ekf.process_heading_sigma);
  fnv.add(pipeline.ekf.process_speed_sigma);
  fnv.add(pipeline.ekf.gps_pos_sigma);
  fnv.add(pipeline.ekf.gps_heading_sigma);
  fnv.add(pipeline.ekf.odom_speed_sigma);
  fnv.add(pipeline.ekf.gate);
  fnv.add(pipeline.tracker.association_gate);
  fnv.add(pipeline.tracker.min_hits);
  fnv.add(pipeline.tracker.max_misses);
  fnv.add(pipeline.tracker.process_sigma);
  fnv.add(pipeline.tracker.measurement_sigma);
  fnv.add(pipeline.tracker.initial_speed_sigma);
  fnv.add(pipeline.planner.cruise_speed);
  fnv.add(pipeline.planner.time_headway);
  fnv.add(pipeline.planner.standstill_gap);
  fnv.add(pipeline.planner.max_plan_accel);
  fnv.add(pipeline.planner.max_plan_decel);
  fnv.add(pipeline.planner.accel_gain);
  fnv.add(pipeline.planner.speed_gain);
  fnv.add(pipeline.planner.lateral_gain);
  fnv.add(pipeline.planner.heading_gain);
  fnv.add(pipeline.planner.max_steer);
  fnv.add(pipeline.planner.emergency_fraction);
  fnv.add(pipeline.planner.emergency_decel);
  fnv.add(pipeline.planner.braking_urgency_fraction);
  fnv.add(pipeline.planner.braking_margin);
  fnv.add(pipeline.pid.kp);
  fnv.add(pipeline.pid.ki);
  fnv.add(pipeline.pid.kd);
  fnv.add(pipeline.pid.integral_limit);
  fnv.add(pipeline.pid.pedal_slew);
  fnv.add(pipeline.pid.steer_slew);
  fnv.add(pipeline.pid.brake_deadband);
  // ClassifierConfig.
  fnv.add(classifier.actuation_epsilon);
  fnv.add(classifier.require_golden_safe);
  fnv.add(classifier.delta_persistence_scenes);
  return fnv.hash();
}

std::string CampaignManifest::to_jsonl() const {
  std::ostringstream out;
  out << "{\"type\":\"manifest\",\"format_version\":" << format_version
      << ",\"model\":\"" << json_escape(model) << "\",\"model_params\":\""
      << json_escape(model_params) << "\",\"planned_runs\":" << planned_runs
      << ",\"scenario_spec\":\"" << json_escape(scenario_spec)
      << "\",\"scenario_hash\":" << scenario_hash
      << ",\"pipeline_seed\":" << pipeline_seed << ",\"hold_scenes\":"
      << util::shortest_double(hold_scenes) << ",\"config_hash\":" << config_hash
      << ",\"fork_replays\":"
      << (fork_replays ? "true" : "false")
      << ",\"checkpoint_stride\":" << checkpoint_stride
      << ",\"shard_index\":" << shard_index
      << ",\"shard_count\":" << shard_count << "}";
  return out.str();
}

CampaignManifest CampaignManifest::parse(const std::string& line) {
  const JsonLine json(line);
  if (!json.has("type") || json.get_string("type") != "manifest")
    throw std::runtime_error(
        "manifest: first store line is not a manifest record: " + line);
  CampaignManifest m;
  m.format_version = json.get_u64("format_version");
  if (m.format_version != kFormatVersion)
    throw std::runtime_error(
        "manifest: unknown format_version " + std::to_string(m.format_version) +
        " (this build reads version " + std::to_string(kFormatVersion) + ")");
  m.model = json.get_string("model");
  m.model_params = json.get_string("model_params");
  m.planned_runs = json.get_u64("planned_runs");
  m.scenario_spec = json.get_string("scenario_spec");
  m.scenario_hash = json.get_u64("scenario_hash");
  m.pipeline_seed = json.get_u64("pipeline_seed");
  m.hold_scenes = json.get_double("hold_scenes");
  m.config_hash = json.get_u64("config_hash");
  m.fork_replays = json.get_bool("fork_replays");
  m.checkpoint_stride = json.get_u64("checkpoint_stride");
  m.shard_index = json.get_u64("shard_index");
  m.shard_count = json.get_u64("shard_count");
  if (m.shard_count == 0 || m.shard_index >= m.shard_count)
    throw std::runtime_error("manifest: invalid shard coordinates " +
                             std::to_string(m.shard_index) + "/" +
                             std::to_string(m.shard_count));
  return m;
}

std::string CampaignManifest::compatibility_key() const {
  std::ostringstream out;
  out << "v" << format_version << "|model=" << model << "|params="
      << model_params << "|runs=" << planned_runs << "|scenario_hash="
      << scenario_hash << "|pipeline_seed=" << pipeline_seed
      << "|hold_scenes=" << util::shortest_double(hold_scenes)
      << "|config_hash=" << config_hash;
  return out.str();
}

std::string CampaignManifest::mismatch_reason(
    const CampaignManifest& other) const {
  const auto differs = [](const std::string& field, const auto& a,
                          const auto& b) {
    std::ostringstream out;
    out << field << " differs (" << a << " vs " << b << ")";
    return out.str();
  };
  if (format_version != other.format_version)
    return differs("format_version", format_version, other.format_version);
  if (model != other.model) return differs("model", model, other.model);
  if (model_params != other.model_params)
    return differs("model_params", model_params, other.model_params);
  if (planned_runs != other.planned_runs)
    return differs("planned_runs", planned_runs, other.planned_runs);
  if (scenario_hash != other.scenario_hash)
    return differs("scenario_hash", scenario_hash, other.scenario_hash);
  if (pipeline_seed != other.pipeline_seed)
    return differs("pipeline_seed", pipeline_seed, other.pipeline_seed);
  if (!util::bits_equal(hold_scenes, other.hold_scenes))
    return differs("hold_scenes", hold_scenes, other.hold_scenes);
  if (config_hash != other.config_hash)
    return differs("config_hash", config_hash, other.config_hash);
  return {};
}

std::uint64_t scenario_suite_hash(const std::vector<sim::Scenario>& suite) {
  util::Fnv1a fnv;
  fnv.add(std::string_view(scenario::serialize_suite(suite)));
  return fnv.hash();
}

CampaignManifest make_manifest(const std::vector<sim::Scenario>& scenarios,
                               const ads::PipelineConfig& pipeline_config,
                               const ClassifierConfig& classifier_config,
                               const ExperimentOptions& options,
                               const FaultModel& model,
                               std::string scenario_spec) {
  CampaignManifest m;
  m.model = model.name();
  m.model_params = model.params();
  m.planned_runs = model.run_count();
  m.scenario_spec = std::move(scenario_spec);
  m.scenario_hash = scenario_suite_hash(scenarios);
  m.pipeline_seed = pipeline_config.seed;
  m.hold_scenes = options.hold_scenes;
  m.config_hash = campaign_config_hash(pipeline_config, classifier_config);
  m.fork_replays = options.checkpoint_stride > 0;
  m.checkpoint_stride = options.checkpoint_stride;
  return m;
}

CampaignManifest make_manifest(const Experiment& experiment,
                               const FaultModel& model,
                               std::string scenario_spec) {
  return make_manifest(experiment.scenarios(), experiment.pipeline_config(),
                       experiment.classifier_config(), experiment.options(),
                       model, std::move(scenario_spec));
}

}  // namespace drivefi::core
