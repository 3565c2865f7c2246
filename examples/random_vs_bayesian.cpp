// Contrast random fault injection with Bayesian fault selection on the
// same budget -- the paper's central claim: random FI essentially never
// finds safety-critical faults, Bayesian FI finds them immediately.
//
//   ./random_vs_bayesian [budget] [options]
//     --checkpoint-stride N   scenes between golden checkpoints (default 4)
//
// This walkthrough contrasts the two models side by side; to run either
// model as a durable, shardable, resumable campaign use the unified CLI:
// `drivefi_campaign run --model random-value|random-bitflip|bayesian ...`
// (examples/drivefi_campaign.cpp).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "core/bayes_model.h"
#include "core/experiment.h"
#include "core/fault_model.h"
#include "core/report.h"
#include "core/selector.h"
#include "obs/metrics.h"
#include "sim/scenario.h"

using namespace drivefi;

int main(int argc, char** argv) {
  std::size_t budget = 30;
  std::size_t checkpoint_stride = 4;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--checkpoint-stride") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: --checkpoint-stride needs a value\n");
        return 2;
      }
      checkpoint_stride = static_cast<std::size_t>(std::atoi(argv[++i]));
    } else if (!arg.empty() && arg.find_first_not_of("0123456789") ==
                                   std::string::npos) {
      budget = static_cast<std::size_t>(std::atoi(arg.c_str()));
    } else {
      std::fprintf(stderr, "error: unexpected argument %s\n", arg.c_str());
      return 2;
    }
  }

  std::vector<sim::Scenario> suite = {sim::example1_lead_lane_change(),
                                      sim::base_suite()[2],
                                      sim::base_suite()[4]};
  ads::PipelineConfig config;
  config.seed = 11;
  core::ExperimentOptions options;
  options.checkpoint_stride = checkpoint_stride;
  const core::Experiment experiment(suite, config, {}, options);
  std::printf("checkpoint stride %zu\n", checkpoint_stride);

  // --- Random FI with `budget` injections ---
  std::printf("random value-corruption campaign (%zu injections)...\n",
              budget);
  const core::CampaignStats random_stats =
      experiment.run(core::RandomValueModel(budget, 1234));
  core::outcome_table(random_stats).print("random FI outcomes");
  std::printf("random campaign wall-clock: %.2f s\n",
              random_stats.wall_seconds);

  // --- Bayesian FI replaying its top `budget` picks: the whole DriveFI
  // loop (fit -> parallel select -> replay) is one fault model. ---
  std::printf("\nBayesian selection + replay (%zu replays)...\n", budget);
  core::BayesianCampaignConfig campaign;
  campaign.max_replays = budget;
  const core::BayesianFaultModel bayes_model(experiment, campaign);
  const core::CampaignStats bayes_stats = experiment.run(bayes_model);
  core::outcome_table(bayes_stats).print("Bayesian FI outcomes");
  std::printf("Bayesian replay wall-clock: %.2f s\n", bayes_stats.wall_seconds);

  const obs::Histogram::Snapshot replay_walls =
      obs::metrics().histogram("experiment.run_wall_seconds").snapshot();
  std::printf("\nforked replays: %llu (%llu spliced), mean %.4f s/run vs "
              "%.4f s full-sim\n",
              static_cast<unsigned long long>(
                  obs::metrics().counter("experiment.replays_forked").value()),
              static_cast<unsigned long long>(
                  obs::metrics().counter("experiment.replays_spliced").value()),
              replay_walls.sum_seconds /
                  static_cast<double>(std::max<std::uint64_t>(1, replay_walls.count)),
              experiment.mean_run_wall_seconds());

  std::printf("\nhazards found -- random: %zu / %zu, Bayesian: %zu / %zu\n",
              random_stats.hazard, random_stats.total(), bayes_stats.hazard,
              bayes_stats.total());
  return 0;
}
