#include "core/importance.h"

#include <algorithm>
#include <limits>
#include <map>
#include <string_view>

namespace drivefi::core {

namespace {

struct Accumulator {
  std::size_t selected = 0;
  std::size_t replayed = 0;
  std::size_t hazards = 0;
  double predicted_delta_sum = 0.0;
  double predicted_delta_min = std::numeric_limits<double>::max();
  double golden_delta_sum = 0.0;
};

// Keyed by target name; the views point into ads::kFaultTargets.
using Accumulators = std::map<std::string_view, Accumulator>;

ImportanceReport build_report(const Accumulators& acc) {
  ImportanceReport report;
  for (const auto& [target, a] : acc) {
    TargetImportance ti;
    ti.target = std::string(target);
    ti.selected = a.selected;
    ti.replayed = a.replayed;
    ti.hazards = a.hazards;
    ti.hazard_precision =
        a.replayed > 0
            ? static_cast<double>(a.hazards) / static_cast<double>(a.replayed)
            : 0.0;
    ti.mean_predicted_delta =
        a.selected > 0 ? a.predicted_delta_sum / static_cast<double>(a.selected)
                       : 0.0;
    ti.min_predicted_delta =
        a.selected > 0 ? a.predicted_delta_min : 0.0;
    ti.mean_golden_delta =
        a.selected > 0 ? a.golden_delta_sum / static_cast<double>(a.selected)
                       : 0.0;
    report.targets.push_back(std::move(ti));
  }
  std::sort(report.targets.begin(), report.targets.end(),
            [](const TargetImportance& a, const TargetImportance& b) {
              if (a.hazards != b.hazards) return a.hazards > b.hazards;
              if (a.selected != b.selected) return a.selected > b.selected;
              return a.target < b.target;
            });
  return report;
}

void accumulate_selection(const std::vector<SelectedFault>& selected,
                          Accumulators& acc) {
  for (const auto& sf : selected) {
    Accumulator& a = acc[ads::kFaultTargets[sf.fault.target].name];
    ++a.selected;
    // The binding direction is whichever axis the prediction drove
    // non-positive; fall back to the longitudinal value.
    const double predicted =
        std::min(sf.prediction.delta_lon, sf.prediction.delta_lat);
    a.predicted_delta_sum += predicted;
    a.predicted_delta_min = std::min(a.predicted_delta_min, predicted);
    a.golden_delta_sum += sf.golden_delta_lon;
  }
}

}  // namespace

double ImportanceReport::hazard_share_of_top(std::size_t n) const {
  std::size_t total = 0;
  std::size_t top = 0;
  for (std::size_t i = 0; i < targets.size(); ++i) {
    total += targets[i].hazards;
    if (i < n) top += targets[i].hazards;
  }
  return total > 0 ? static_cast<double>(top) / static_cast<double>(total)
                   : 0.0;
}

util::Table ImportanceReport::to_table() const {
  util::Table table({"target", "selected", "replayed", "hazards",
                     "hazard precision", "mean pred delta [m]",
                     "min pred delta [m]", "mean golden delta [m]"});
  for (const auto& t : targets) {
    table.add_row({t.target,
                   util::Table::fmt_int(static_cast<long long>(t.selected)),
                   util::Table::fmt_int(static_cast<long long>(t.replayed)),
                   util::Table::fmt_int(static_cast<long long>(t.hazards)),
                   util::Table::fmt_pct(t.hazard_precision),
                   util::Table::fmt(t.mean_predicted_delta, 2),
                   util::Table::fmt(t.min_predicted_delta, 2),
                   util::Table::fmt(t.mean_golden_delta, 2)});
  }
  return table;
}

ImportanceReport rank_targets(const std::vector<SelectedFault>& selected,
                              const CampaignStats& replayed) {
  Accumulators acc;
  accumulate_selection(selected, acc);
  // SelectedFaultModel campaigns record outcomes positionally; the
  // description embeds the target name, but the paired fault list is
  // authoritative.
  const std::size_t n = std::min(selected.size(), replayed.records.size());
  for (std::size_t i = 0; i < n; ++i) {
    Accumulator& a = acc[ads::kFaultTargets[selected[i].fault.target].name];
    ++a.replayed;
    if (replayed.records[i].outcome == Outcome::kHazard) ++a.hazards;
  }
  return build_report(acc);
}

ImportanceReport rank_targets(const std::vector<SelectedFault>& selected) {
  Accumulators acc;
  accumulate_selection(selected, acc);
  return build_report(acc);
}

}  // namespace drivefi::core
