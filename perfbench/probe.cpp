// perfbench_probe: the campaign benchmark's view from inside one process.
// It drives the library through its public API only and brackets each call
// it makes with a "perfbench.*" trace span, so run.py can line the
// benchmark's own timings up with the spans the program already records
// (golden, trunk, replay, store.append) on one clock.
//
//   perfbench_probe info
//     Build facts (compiler, NDEBUG, sanitizers) and the scene count of
//     every base-suite scenario, as one JSON line.
//
//   perfbench_probe campaign --model M --runs N --replays R --seed S
//                            --threads T --store FILE [--trace FILE]
//     One campaign, built exactly as `drivefi_campaign run` builds it, from
//     golden precompute to a sealed store: Experiment construction, BN fit
//     and selection (bayesian), a replay plan, and run_shard through a
//     timing ShardStore wrapper. Without --trace every span is inert, which
//     is the untraced baseline for the tracing overhead.
//
//   perfbench_probe modules [--model M --runs N --replays R --seed S
//                            --lease-runs K]
//     Per-call costs of AdsPipeline::step / snapshot / restore /
//     state_matches over the base suite; with --lease-runs, also the replay
//     plans and trunk walks of a fleet's workers, one plan per K-run lease.
//
// Every command prints one JSON object on stdout and exits 0, or prints
// an error on stderr and exits nonzero.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "ads/pipeline.h"
#include "core/bayes_model.h"
#include "core/experiment.h"
#include "core/fault_model.h"
#include "core/manifest.h"
#include "core/replay_plan.h"
#include "core/result_store.h"
#include "core/trace.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "sim/scenario.h"
#include "sim/world.h"

using namespace drivefi;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Flat JSON object writer: numbers keep all their digits.
class JsonObject {
 public:
  JsonObject& num(const std::string& key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    return raw(key, buf);
  }
  JsonObject& str(const std::string& key, const std::string& value) {
    std::string quoted = "\"";
    for (const char c : value) {
      if (c == '"' || c == '\\') quoted += '\\';
      quoted += c;
    }
    return raw(key, quoted + "\"");
  }
  JsonObject& raw(const std::string& key, const std::string& json) {
    out_ << (first_ ? "{" : ",") << "\"" << key << "\":" << json;
    first_ = false;
    return *this;
  }
  std::string done() { return out_.str() + (first_ ? "{}" : "}"); }

 private:
  std::ostringstream out_;
  bool first_ = true;
};

struct Args {
  std::string model = "random-bitflip";
  std::size_t runs = 600;
  std::size_t replays = 60;
  std::uint64_t seed = 1234;
  unsigned threads = 1;
  std::size_t lease_runs = 0;
  std::string store, trace;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 0; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::runtime_error(flag + " needs a value");
    const std::string value = argv[++i];
    if (flag == "--model") a.model = value;
    else if (flag == "--runs") a.runs = std::stoull(value);
    else if (flag == "--replays") a.replays = std::stoull(value);
    else if (flag == "--seed") a.seed = std::stoull(value);
    else if (flag == "--threads") a.threads = static_cast<unsigned>(std::stoul(value));
    else if (flag == "--lease-runs") a.lease_runs = std::stoull(value);
    else if (flag == "--store") a.store = value;
    else if (flag == "--trace") a.trace = value;
    else throw std::runtime_error("unknown option " + flag);
  }
  return a;
}

/// The CLI's pipeline configuration (campaign_cli.h: --pipeline-seed 7).
ads::PipelineConfig cli_pipeline_config() {
  ads::PipelineConfig config;
  config.seed = 7;
  return config;
}

/// Times every append of the store it wraps with a span, next to the
/// program's own store.append spans in the trace.
class TimingStore : public core::ShardStore {
 public:
  explicit TimingStore(std::unique_ptr<core::ShardStore> inner)
      : inner_(std::move(inner)) {}

  const std::string& path() const override { return inner_->path(); }
  const core::CampaignManifest& manifest() const override {
    return inner_->manifest();
  }
  const std::set<std::size_t>& completed() const override {
    return inner_->completed();
  }
  void append(const core::InjectionRecord& record) override {
    obs::ScopedSpan span("perfbench.store_append");
    inner_->append(record);
    ++appends_;
  }

  std::size_t appends() const { return appends_; }

 private:
  std::unique_ptr<core::ShardStore> inner_;
  std::size_t appends_ = 0;
};

std::unique_ptr<core::Experiment> make_experiment(unsigned threads) {
  core::ExperimentOptions options;
  options.executor.threads = threads;
  return std::make_unique<core::Experiment>(
      sim::base_suite(), cli_pipeline_config(), core::ClassifierConfig{},
      options);
}

/// The workload's fault model; for bayesian, fit and selection are timed
/// as separate spans and reported through `out`.
std::unique_ptr<core::FaultModel> make_model(const Args& a,
                                             const core::Experiment& experiment,
                                             JsonObject& out) {
  if (a.model == "random-bitflip")
    return std::make_unique<core::BitFlipModel>(a.runs, a.seed, 1);
  if (a.model != "bayesian")
    throw std::runtime_error("unsupported model " + a.model);

  core::BayesianCampaignConfig campaign;
  campaign.max_replays = a.replays;
  campaign.selection.executor.threads = a.threads;
  auto start = Clock::now();
  std::shared_ptr<const core::SafetyPredictor> predictor;
  {
    obs::ScopedSpan span("perfbench.bn_fit");
    predictor = std::make_shared<const core::SafetyPredictor>(
        experiment.goldens(), campaign.predictor);
  }
  out.num("bn_fit_s", seconds_since(start));
  start = Clock::now();
  std::unique_ptr<core::BayesianFaultModel> bayes;
  {
    // build_catalog + select_critical_faults over the pre-fitted predictor.
    obs::ScopedSpan span("perfbench.bn_select");
    bayes = std::make_unique<core::BayesianFaultModel>(experiment, predictor,
                                                       campaign);
  }
  out.num("bn_select_s", seconds_since(start));
  out.num("bn_inferences",
          static_cast<double>(bayes->selection().inference_calls));
  return bayes;
}

void golden_facts(const core::Experiment& experiment, JsonObject& out) {
  std::size_t scenes = 0, checkpoint_bytes = 0;
  for (const core::GoldenTrace& golden : experiment.goldens()) {
    scenes += golden.scenes.size();
    for (const ads::PipelineSnapshot& snap : golden.checkpoints)
      checkpoint_bytes += snap.approx_size_bytes();
  }
  out.num("golden_scenes", static_cast<double>(scenes));
  out.num("golden_checkpoint_bytes", static_cast<double>(checkpoint_bytes));
}

int cmd_info() {
  bool sanitized = false;
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  sanitized = true;
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
  sanitized = true;
#endif
#endif
#ifdef NDEBUG
  const bool ndebug = true;
#else
  const bool ndebug = false;
#endif
  std::string scenes = "[";
  const ads::PipelineConfig config = cli_pipeline_config();
  for (const sim::Scenario& scenario : sim::base_suite()) {
    if (scenes.size() > 1) scenes += ",";
    scenes += std::to_string(
        core::expected_scene_records(scenario.duration, config));
  }
  scenes += "]";
  JsonObject out;
  out.str("compiler", __VERSION__)
      .raw("ndebug", ndebug ? "true" : "false")
      .raw("sanitized", sanitized ? "true" : "false")
      .raw("scenario_scenes", scenes);
  std::printf("%s\n", out.done().c_str());
  return 0;
}

int cmd_campaign(const Args& a) {
  if (a.store.empty()) throw std::runtime_error("campaign needs --store");
  JsonObject out;
  const auto start = Clock::now();
  if (!a.trace.empty()) obs::start_tracing(a.trace);

  std::unique_ptr<core::Experiment> experiment;
  {
    obs::ScopedSpan span("perfbench.experiment");
    experiment = make_experiment(a.threads);
  }
  const std::unique_ptr<core::FaultModel> model =
      make_model(a, *experiment, out);
  const core::CampaignManifest manifest =
      core::make_manifest(*experiment, *model, "builtin:base");

  std::vector<std::size_t> indices(model->run_count());
  for (std::size_t i = 0; i < indices.size(); ++i) indices[i] = i;
  auto plan_start = Clock::now();
  core::ReplayPlan plan;
  {
    obs::ScopedSpan span("perfbench.plan");
    plan = core::build_replay_plan(*model, indices, *experiment);
  }
  out.num("plan_build_s", seconds_since(plan_start));
  out.num("plan_groups", static_cast<double>(plan.groups.size()));
  out.num("plan_nodes", static_cast<double>(plan.total_nodes));

  auto store = std::make_unique<TimingStore>(core::open_shard_store(
      a.store, manifest, core::StoreFormat::kJsonl,
      core::StoreOpenMode::kOverwrite));
  {
    obs::ScopedSpan span("perfbench.run_shard");
    experiment->run_shard(*model, *store);
  }
  out.num("appends", static_cast<double>(store->appends()));
  {
    obs::ScopedSpan span("perfbench.store_close");
    store.reset();
  }
  const double wall = seconds_since(start);
  if (!a.trace.empty()) obs::stop_tracing();

  out.num("wall_s", wall);
  out.num("store_bytes",
          static_cast<double>(std::filesystem::file_size(a.store)));
  golden_facts(*experiment, out);
  out.raw("telemetry", obs::metrics().snapshot_jsonl("telemetry"));
  std::printf("%s\n", out.done().c_str());
  return 0;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 ? values[mid] : 0.5 * (values[mid - 1] + values[mid]);
}

int cmd_modules(const Args& a) {
  const ads::PipelineConfig config = cli_pipeline_config();
  std::vector<double> snapshot_us, restore_us, match_us;
  double step_seconds = 0.0, snapshot_bytes = 0.0;
  std::uint64_t ticks = 0;
  for (const sim::Scenario& scenario : sim::base_suite()) {
    sim::World world(scenario.world);
    ads::AdsPipeline pipeline(world, config);
    pipeline.reserve_scenes(core::expected_scene_records(scenario.duration, config));
    const auto total_ticks = static_cast<std::uint64_t>(
        std::llround(scenario.duration * config.base_hz));
    std::vector<ads::PipelineSnapshot> snaps;
    for (std::uint64_t i = 0; i < total_ticks; ++i) {
      const std::size_t scenes_before = pipeline.scenes().size();
      const auto step_start = Clock::now();
      pipeline.step();
      step_seconds += seconds_since(step_start);
      ++ticks;
      if (pipeline.scenes().size() == scenes_before) continue;
      const auto snap_start = Clock::now();
      snaps.push_back(pipeline.snapshot());
      snapshot_us.push_back(1e6 * seconds_since(snap_start));
      snapshot_bytes += static_cast<double>(snaps.back().approx_size_bytes());
    }
    // Restore every scene's state into a second pipeline and compare it
    // against the same snapshot: the full-length (matching) comparison is
    // the one a golden-tail splice pays.
    sim::World replay_world(scenario.world);
    ads::AdsPipeline replay(replay_world, config);
    for (const ads::PipelineSnapshot& snap : snaps) {
      auto start = Clock::now();
      replay.restore(snap);
      restore_us.push_back(1e6 * seconds_since(start));
      start = Clock::now();
      const bool matches = replay.state_matches(snap);
      match_us.push_back(1e6 * seconds_since(start));
      if (!matches)
        throw std::runtime_error("restored state does not match its snapshot");
    }
  }
  JsonObject out;
  out.num("step_us", 1e6 * step_seconds / static_cast<double>(ticks))
      .num("snapshot_us", median(snapshot_us))
      .num("restore_us", median(restore_us))
      .num("state_matches_us", median(match_us))
      .num("snapshot_bytes",
           snapshot_bytes / static_cast<double>(snapshot_us.size()));

  if (a.lease_runs > 0) {
    // The plans and trunk walks a fleet's workers run: one plan per lease
    // of consecutive run indices (the coordinator grants pending indices
    // in order), one trunk walk per group that captures snapshots.
    const std::unique_ptr<core::Experiment> experiment =
        make_experiment(a.threads);
    golden_facts(*experiment, out);
    JsonObject ignored;
    const std::unique_ptr<core::FaultModel> model =
        make_model(a, *experiment, ignored);
    std::size_t groups = 0, nodes = 0;
    double plan_seconds = 0.0, trunk_seconds = 0.0;
    for (std::size_t first = 0; first < model->run_count();
         first += a.lease_runs) {
      std::vector<std::size_t> lease;
      for (std::size_t r = first;
           r < std::min(first + a.lease_runs, model->run_count()); ++r)
        lease.push_back(r);
      auto start = Clock::now();
      const core::ReplayPlan plan =
          core::build_replay_plan(*model, lease, *experiment);
      plan_seconds += seconds_since(start);
      groups += plan.groups.size();
      nodes += plan.total_nodes;
      for (const core::ReplayGroup& group : plan.groups) {
        if (group.capture_scenes.empty()) continue;
        start = Clock::now();
        experiment->materialize_trunk(group.scenario_index,
                                      group.capture_scenes);
        trunk_seconds += seconds_since(start);
      }
    }
    out.num("plan_build_s", plan_seconds)
        .num("plan_groups", static_cast<double>(groups))
        .num("plan_nodes", static_cast<double>(nodes))
        .num("trunk_s", trunk_seconds);
  }
  std::printf("%s\n", out.done().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: %s info | campaign [options] | modules [options]\n",
                 argv[0]);
    return 2;
  }
  const std::string command = argv[1];
  try {
    if (command == "info") return cmd_info();
    const Args args = parse_args(argc - 2, argv + 2);
    if (command == "campaign") return cmd_campaign(args);
    if (command == "modules") return cmd_modules(args);
    std::fprintf(stderr, "error: unknown command %s\n", command.c_str());
    return 2;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 1;
  }
}
