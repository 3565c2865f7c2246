// E10 (extension) -- Situation library and per-variable criticality. The
// paper's discussion proposes mining the critical faults into "a library
// of situations [to] help manufacturers develop rules and conditions for
// AV testing and safe driving"; this bench runs the Bayesian selection on
// a compact suite, replays the top faults, then prints (a) the clustered
// situation library and (b) the validated per-variable importance table.
#include <algorithm>
#include <cstdio>

#include "core/bayes_model.h"
#include "core/experiment.h"
#include "core/fault_model.h"
#include "core/importance.h"
#include "core/scene_library.h"
#include "core/selector.h"
#include "sim/scenario.h"

using namespace drivefi;

int main(int argc, char** argv) {
  const std::size_t replay_budget =
      argc > 1 ? static_cast<std::size_t>(std::atoi(argv[1])) : 60;
  std::printf("E10: situation library + variable criticality "
              "(replay budget %zu)\n",
              replay_budget);

  std::vector<sim::Scenario> suite = {sim::base_suite()[1],
                                      sim::base_suite()[2],
                                      sim::example1_lead_lane_change(),
                                      sim::example2_tesla_reveal()};
  ads::PipelineConfig config;
  config.seed = 101;
  const core::Experiment experiment(suite, config);
  const auto& goldens = experiment.goldens();

  const core::SafetyPredictor predictor(goldens);
  const core::BayesianFaultSelector selector(predictor);
  const auto catalog =
      core::build_catalog(suite, core::default_target_ranges(), 7.5);
  const core::SelectionResult selection =
      selector.select_critical_faults(catalog, goldens);
  std::printf("selected %zu critical faults out of %zu candidates\n",
              selection.critical.size(), selection.candidates_total);

  const std::size_t n =
      std::min(replay_budget, selection.critical.size());
  std::vector<core::SelectedFault> top(selection.critical.begin(),
                                       selection.critical.begin() + n);
  const core::CampaignStats replayed =
      experiment.run(core::SelectedFaultModel(top));

  // (a) Situation library over every selected fault's scene.
  const auto features = core::extract_features(selection.critical, goldens);
  core::SceneLibraryConfig lib_config;
  lib_config.clusters = 4;
  const core::SceneLibrary library(features, lib_config);
  library.to_table().print(
      "E10a: situation library (clusters of critical-fault scenes)");

  // (b) Validated per-variable criticality over the replayed subset.
  const auto report = core::rank_targets(top, replayed);
  report.to_table().print(
      "E10b: per-variable criticality (validated by replay)");
  std::printf("hazard share of top-3 variables: %.1f%%\n",
              100.0 * report.hazard_share_of_top(3));
  return 0;
}
