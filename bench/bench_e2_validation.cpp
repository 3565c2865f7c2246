// E2 -- Validation of Bayesian-selected faults (paper: 561 selected, 460
// manifested as safety hazards, concentrated in 68 of 7200 scenes). We
// select over the base suite, replay the selected faults in full
// simulation, and report precision and the scene concentration.
#include <algorithm>
#include <cstdio>
#include <set>

#include "core/bayes_model.h"
#include "core/experiment.h"
#include "core/fault_model.h"
#include "core/report.h"
#include "core/selector.h"
#include "sim/scenario.h"
#include "util/table.h"

using namespace drivefi;

int main() {
  std::printf("E2: do Bayesian-selected faults manifest as hazards?\n");

  auto suite = sim::base_suite();
  ads::PipelineConfig config;
  config.seed = 29;
  const core::Experiment experiment(suite, config);
  const auto& goldens = experiment.goldens();

  const core::SafetyPredictor predictor(goldens);
  const core::BayesianFaultSelector selector(predictor);
  const auto catalog = core::build_catalog(suite, 7.5);
  const core::SelectionResult selection =
      selector.select_critical_faults(catalog, goldens);

  std::printf("selected %zu critical faults out of %zu candidates\n",
              selection.critical.size(), selection.candidates_total);

  // Replay budget: cap to keep the bench tractable; precision over the
  // replayed subset estimates the paper's 460/561 = 82%.
  const std::size_t replay_budget =
      std::min<std::size_t>(120, selection.critical.size());
  std::vector<core::SelectedFault> replayed(
      selection.critical.begin(), selection.critical.begin() + replay_budget);
  const core::CampaignStats stats =
      experiment.run(core::SelectedFaultModel(replayed));

  core::outcome_table(stats).print("E2: replay outcomes");
  core::validation_table(selection, stats, catalog.scene_count)
      .print("E2: validation (paper: 561 selected, 460 hazards, 68/7200 "
             "scenes)");

  // Scene concentration: hazards per distinct scene.
  util::Table conc({"metric", "value"});
  conc.add_row({"hazards", util::Table::fmt_int(
                               static_cast<long long>(stats.hazard))});
  conc.add_row({"distinct hazard scenes",
                util::Table::fmt_int(
                    static_cast<long long>(stats.hazard_scenes.size()))});
  conc.add_row(
      {"scene concentration (hazards/scene)",
       util::Table::fmt(stats.hazard_scenes.empty()
                            ? 0.0
                            : static_cast<double>(stats.hazard) /
                                  static_cast<double>(stats.hazard_scenes.size()),
                        2)});
  conc.print("E2: hazard concentration");

  core::per_target_table(stats).print("E2: hazards by corrupted variable");
  return 0;
}
