// Shared campaign-construction CLI code for the fleet-capable tools:
// drivefi_campaign (run / worker / merge) and drivefi_campaignd (the
// coordinator daemon) must build the campaign and its manifest from the
// SAME flags, or a worker launched with subtly different options would be
// refused at hello (manifest hash mismatch) -- or worse, not exist to
// refuse. One flag table, one construction path (Campaign), no drift.
#pragma once

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/bayes_model.h"
#include "core/experiment.h"
#include "core/fault_model.h"
#include "core/jsonl.h"
#include "core/manifest.h"
#include "core/result_store.h"
#include "core/selector.h"
#include "scenario/dsl.h"
#include "sim/scenario.h"

namespace campaign_cli {

/// Every flag that feeds the campaign manifest (and thus the fleet
/// compatibility hash), plus the cost-only knobs.
struct CampaignArgs {
  std::string model_name = "random-value";
  std::size_t runs = 60;
  std::uint64_t seed = 1234;
  unsigned bits = 1;
  std::size_t replays = 25;
  std::string load_bn, save_bn, scn_path;
  std::size_t scenarios_limit = 0;
  std::uint64_t pipeline_seed = 7;
  unsigned threads = 0;
  std::size_t checkpoint_stride = 4;
  std::size_t max_live_snapshots = std::numeric_limits<std::size_t>::max();
};

inline const char* kCampaignFlagHelp =
    "  --model M            random-value | random-bitflip | bayesian\n"
    "                       (default: random-value)\n"
    "  --runs N             campaign size for the random models (default 60)\n"
    "  --seed S             campaign seed (default 1234)\n"
    "  --bits B             flipped bits per injection, random-bitflip only\n"
    "  --replays N          bayesian: replay the top N of F_crit (default 25)\n"
    "  --load-bn FILE       bayesian: reuse a fitted predictor (no refit)\n"
    "  --save-bn FILE       bayesian: persist the fitted predictor\n"
    "  --scn FILE           load the scenario corpus from a .scn suite\n"
    "  --scenarios K        truncate the corpus to its first K scenarios\n"
    "  --pipeline-seed S    sensor-noise seed (default 7)\n"
    "  --threads N          worker threads (0 = all hardware)\n"
    "  --checkpoint-stride N  scenes between golden checkpoints (default 4;\n"
    "                       0 = none)\n"
    "  --max-live-snapshots N  cap on in-memory trunk snapshots (default:\n"
    "                       uncapped; 0 = no trunk snapshots, every tail\n"
    "                       restores its golden checkpoint). Both knobs are\n"
    "                       cost-only: with both at 0 every run simulates its\n"
    "                       whole scenario, and results are identical.\n";

/// Parses the value of a numeric flag with core::parse_u64_strict: digits
/// only, within T's range, so a typo ("x"), a sign ("-1"), an empty value
/// or an overflow is refused instead of silently becoming 0 or SIZE_MAX.
/// Exits with status 2 naming the flag.
template <typename T>
T parse_count(const std::string& flag, const char* text) {
  try {
    const std::uint64_t value = drivefi::core::parse_u64_strict(text, flag);
    if (value <= std::numeric_limits<T>::max()) return static_cast<T>(value);
  } catch (const std::runtime_error&) {
    // Reported below, like an out-of-range value.
  }
  std::fprintf(stderr,
               "error: %s wants a non-negative integer up to %llu, got \"%s\"\n",
               flag.c_str(),
               static_cast<unsigned long long>(std::numeric_limits<T>::max()),
               text);
  std::exit(2);
}

/// Parses a duration flag with core::parse_double_strict: a finite,
/// non-negative number of seconds. Exits with status 2 naming the flag.
inline double parse_seconds(const std::string& flag, const char* text) {
  try {
    const double value = drivefi::core::parse_double_strict(text, flag);
    if (std::isfinite(value) && value >= 0.0) return value;
  } catch (const std::runtime_error&) {
    // Reported below, like a negative or non-finite value.
  }
  std::fprintf(stderr,
               "error: %s wants a finite, non-negative number of seconds, "
               "got \"%s\"\n",
               flag.c_str(), text);
  std::exit(2);
}

/// A --shard i/N selection: this process runs indices r with r % N == i.
struct Shard {
  std::size_t index = 0;
  std::size_t count = 1;
};

/// Parses "i/N" with parse_count on both halves and requires i < N. Exits
/// with status 2 naming the flag.
inline Shard parse_shard(const std::string& flag, const char* text) {
  const std::string value = text;
  const std::size_t slash = value.find('/');
  if (slash == std::string::npos) {
    std::fprintf(stderr, "error: %s wants i/N, got \"%s\"\n", flag.c_str(),
                 text);
    std::exit(2);
  }
  Shard shard;
  shard.index = parse_count<std::size_t>(flag, value.substr(0, slash).c_str());
  shard.count = parse_count<std::size_t>(flag, value.c_str() + slash + 1);
  if (shard.index >= shard.count) {
    std::fprintf(stderr, "error: %s %zu/%zu is out of range (wants i < N)\n",
                 flag.c_str(), shard.index, shard.count);
    std::exit(2);
  }
  return shard;
}

/// Consumes one campaign flag; returns false when `arg` is not a campaign
/// flag (the caller handles its own). `next` yields the flag's value.
inline bool parse_campaign_flag(CampaignArgs& a, const std::string& arg,
                                const std::function<const char*()>& next) {
  if (arg == "--model") a.model_name = next();
  else if (arg == "--runs") a.runs = parse_count<std::size_t>(arg, next());
  else if (arg == "--seed") a.seed = parse_count<std::uint64_t>(arg, next());
  else if (arg == "--bits") a.bits = parse_count<unsigned>(arg, next());
  else if (arg == "--replays") a.replays = parse_count<std::size_t>(arg, next());
  else if (arg == "--load-bn") a.load_bn = next();
  else if (arg == "--save-bn") a.save_bn = next();
  else if (arg == "--scn") a.scn_path = next();
  else if (arg == "--scenarios") a.scenarios_limit = parse_count<std::size_t>(arg, next());
  else if (arg == "--pipeline-seed") a.pipeline_seed = parse_count<std::uint64_t>(arg, next());
  else if (arg == "--threads") a.threads = parse_count<unsigned>(arg, next());
  else if (arg == "--checkpoint-stride") a.checkpoint_stride = parse_count<std::size_t>(arg, next());
  else if (arg == "--max-live-snapshots") a.max_live_snapshots = parse_count<std::size_t>(arg, next());
  else return false;
  return true;
}

/// One campaign built from its flags: the corpus, the engine's
/// configuration, the fault model and the manifest. The Experiment, and
/// with it golden precompute, is built only when something asks for it:
/// the Bayesian model (its fit and selection read the goldens, and its
/// manifest pins the replay list), and `run` and `worker`, which execute
/// runs. A random campaign's coordinator needs only the manifest, which is
/// a function of the inputs (core::make_manifest), so it simulates nothing.
class Campaign {
 public:
  /// Builds the suite and the fault model. Prints setup narration unless
  /// `quiet`. Exits with status 2 on an unknown model name, before any
  /// scenario is loaded or simulated.
  Campaign(const CampaignArgs& a, bool quiet) : quiet_(quiet) {
    using namespace drivefi;
    if (a.model_name == "random-value") {
      model_ = std::make_unique<core::RandomValueModel>(a.runs, a.seed);
    } else if (a.model_name == "random-bitflip") {
      model_ = std::make_unique<core::BitFlipModel>(a.runs, a.seed, a.bits);
    } else if (a.model_name != "bayesian") {
      std::fprintf(stderr, "error: unknown model %s\n", a.model_name.c_str());
      std::exit(2);
    }

    suite_ = a.scn_path.empty() ? sim::base_suite()
                                : scenario::load_suite(a.scn_path);
    scenario_spec_ = a.scn_path.empty() ? "builtin:base" : a.scn_path;
    if (a.scenarios_limit > 0 && a.scenarios_limit < suite_.size()) {
      suite_.resize(a.scenarios_limit);
      scenario_spec_ += ":";
      scenario_spec_ += std::to_string(a.scenarios_limit);
    }
    config_.seed = a.pipeline_seed;
    options_.executor.threads = a.threads;
    options_.checkpoint_stride = a.checkpoint_stride;
    options_.max_live_snapshots = a.max_live_snapshots;

    if (!model_) model_ = build_bayesian(a);
    manifest_ = core::make_manifest(suite_, config_, classifier_, options_,
                                    *model_, scenario_spec_);
  }

  const std::string& scenario_spec() const { return scenario_spec_; }
  const drivefi::core::FaultModel& model() const { return *model_; }
  /// Shard coordinates 0/1; `run --shard` sets its own.
  const drivefi::core::CampaignManifest& manifest() const { return manifest_; }

  /// The engine; the first call runs golden precompute on the --threads
  /// pool.
  const drivefi::core::Experiment& experiment() {
    if (!experiment_) {
      if (!quiet_)
        std::printf("running %zu golden scenarios (%s)...\n", suite_.size(),
                    scenario_spec_.c_str());
      experiment_ = std::make_unique<drivefi::core::Experiment>(
          suite_, config_, classifier_, options_);
    }
    return *experiment_;
  }

 private:
  std::unique_ptr<drivefi::core::FaultModel> build_bayesian(
      const CampaignArgs& a) {
    using namespace drivefi;
    core::BayesianCampaignConfig campaign;
    campaign.max_replays = a.replays;
    campaign.selection.executor.threads = a.threads;
    const core::Experiment& engine = experiment();
    std::unique_ptr<core::BayesianFaultModel> bayes;
    if (!a.load_bn.empty()) {
      if (!quiet_)
        std::printf("loading fitted predictor from %s (no refit)...\n",
                    a.load_bn.c_str());
      auto predictor = std::make_shared<const core::SafetyPredictor>(
          core::load_predictor(a.load_bn));
      bayes = std::make_unique<core::BayesianFaultModel>(engine, predictor,
                                                         campaign);
    } else {
      if (!quiet_)
        std::printf("fitting the %d-TBN on golden traces...\n",
                    campaign.predictor.slices);
      bayes = std::make_unique<core::BayesianFaultModel>(engine, campaign);
    }
    if (!a.save_bn.empty()) {
      core::save_predictor(bayes->predictor(), a.save_bn);
      if (!quiet_)
        std::printf("saved fitted predictor to %s\n", a.save_bn.c_str());
    }
    if (!quiet_) {
      const core::SelectionResult& selection = bayes->selection();
      std::printf("Bayesian selection: %zu critical faults (%zu BN inferences, "
                  "replaying top %zu)\n",
                  selection.critical.size(), selection.inference_calls,
                  bayes->run_count());
    }
    return bayes;
  }

  bool quiet_;
  std::vector<drivefi::sim::Scenario> suite_;
  std::string scenario_spec_;
  drivefi::ads::PipelineConfig config_;
  drivefi::core::ClassifierConfig classifier_;
  drivefi::core::ExperimentOptions options_;
  std::unique_ptr<drivefi::core::Experiment> experiment_;
  std::unique_ptr<drivefi::core::FaultModel> model_;
  drivefi::core::CampaignManifest manifest_;
};

/// `drivefi_campaign merge`'s command line.
struct MergeArgs {
  std::string jsonl_path;
  std::string store_path;
  drivefi::core::StoreFormat store_format = drivefi::core::StoreFormat::kJsonl;
  std::vector<std::string> shard_paths;
};

/// Every argument that is neither an option nor an option's value is a
/// shard path. Any other argument starting with "--" exits with status 2
/// as an unknown option, so neither a typo (`--jsnol OUT`) nor `--help` is
/// merged as a shard.
inline MergeArgs parse_merge_args(const std::vector<std::string>& args) {
  MergeArgs merge;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    const auto next = [&]() -> const std::string& {
      if (i + 1 >= args.size()) {
        std::fprintf(stderr, "error: %s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return args[++i];
    };
    if (arg == "--jsonl") merge.jsonl_path = next();
    else if (arg == "--store") merge.store_path = next();
    else if (arg == "--store-format")
      merge.store_format = drivefi::core::parse_store_format(next());
    else if (arg.starts_with("--")) {
      std::fprintf(stderr, "error: unknown option %s\n", arg.c_str());
      std::exit(2);
    } else merge.shard_paths.push_back(arg);
  }
  return merge;
}

/// Parses "host:port" for `flag`; the port goes through parse_count, so it
/// must be 0-65535 (`--listen HOST:0` binds an ephemeral port). Exits with
/// status 2 on malformed input.
inline void parse_host_port(const std::string& flag, const std::string& value,
                            std::string* host, std::uint16_t* port) {
  const std::size_t colon = value.rfind(':');
  if (colon == std::string::npos) {
    std::fprintf(stderr, "error: %s wants HOST:PORT, got \"%s\"\n",
                 flag.c_str(), value.c_str());
    std::exit(2);
  }
  *host = value.substr(0, colon);
  *port = parse_count<std::uint16_t>(flag, value.c_str() + colon + 1);
}

}  // namespace campaign_cli
