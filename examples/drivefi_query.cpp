// drivefi_query: offline analytics over durable campaign stores -- no
// re-execution, no coordinator, just the files. Stores may be JSONL or
// binary (or a mixture); each file's own magic bytes decide how it is
// read, and partial campaigns (in-flight, or a single shard) are fair
// game for everything except export.
//
//   drivefi_query summary STORE [STORE ...]
//     Outcome counts and order statistics (min/mean/p50/p90/p99/max) of
//     min_delta_lon and max_actuation_divergence over the loaded records.
//
//   drivefi_query scenarios STORE [STORE ...]
//     Per-scenario violation table: outcome counts, distinct hazard
//     scenes, and the worst min_delta_lon seen in each scenario.
//
//   drivefi_query get --run N STORE [STORE ...]
//     Prints the single record with run_index N as canonical run JSONL
//     (byte-identical to the line a JSONL store would hold). Exits 1 when
//     the loaded stores do not contain N.
//
//   drivefi_query diff STORE_A STORE_B
//     Run-by-run comparison of two campaigns over the SAME fault set
//     (model, params, planned runs, scenario corpus must match;
//     pipeline seed / ADS config may differ -- that is the experiment).
//     Lists flipped outcomes and metric drifts; exits 1 when the
//     campaigns differ, 0 when identical (so scripts can assert).
//
//   drivefi_query export --jsonl OUT STORE [STORE ...]
//     Re-exports a COMPLETE campaign as canonical campaign JSONL --
//     byte-identical to `drivefi_campaign merge --jsonl` over the same
//     shard set (it routes through the same merge path).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/jsonl.h"
#include "core/query.h"
#include "core/report.h"
#include "util/table.h"

using namespace drivefi;

namespace {

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s summary STORE... | %s scenarios STORE... |\n"
               "       %s get --run N STORE... | %s diff STORE_A STORE_B |\n"
               "       %s export --jsonl OUT STORE...\n"
               "(stores may be jsonl or binary, mixed freely; see the header\n"
               " of examples/drivefi_query.cpp or docs/FORMATS.md)\n",
               argv0, argv0, argv0, argv0, argv0);
  std::exit(2);
}

void print_counts(const core::OutcomeCounts& counts) {
  util::Table table({"outcome", "count", "share"});
  const auto row = [&](const char* name, std::size_t n) {
    const double share =
        counts.total() > 0
            ? 100.0 * static_cast<double>(n) /
                  static_cast<double>(counts.total())
            : 0.0;
    char share_text[32];
    std::snprintf(share_text, sizeof(share_text), "%.1f%%", share);
    table.add_row({name, std::to_string(n), share_text});
  };
  row("masked", counts.masked);
  row("sdc_benign", counts.sdc_benign);
  row("hang", counts.hang);
  row("hazard", counts.hazard);
  table.add_row({"total", std::to_string(counts.total()), "100.0%"});
  table.print("outcomes");
}

void print_metric(const char* name, const core::MetricSummary& summary) {
  std::printf(
      "%-24s min %12.6g  mean %12.6g  p50 %12.6g  p90 %12.6g  p99 %12.6g  "
      "max %12.6g\n",
      name, summary.min, summary.mean, summary.p50, summary.p90, summary.p99,
      summary.max);
}

int cmd_summary(const std::vector<std::string>& paths) {
  const core::CampaignView view = core::load_campaign(paths);
  std::printf("campaign: model %s (%s), %zu of %zu planned runs loaded from "
              "%zu store(s)%s\n",
              view.manifest.model.c_str(), view.manifest.model_params.c_str(),
              view.records.size(), view.manifest.planned_runs, paths.size(),
              view.complete() ? "" : " [INCOMPLETE]");
  if (view.records.empty()) {
    std::printf("no records stored yet\n");
    return 0;
  }
  print_counts(core::count_outcomes(view.records));
  print_metric("min_delta_lon",
               core::summarize_metric(view.records,
                                      core::RecordMetric::kMinDeltaLon));
  print_metric("max_actuation_divergence",
               core::summarize_metric(
                   view.records, core::RecordMetric::kMaxActuationDivergence));
  return 0;
}

int cmd_scenarios(const std::vector<std::string>& paths) {
  const core::CampaignView view = core::load_campaign(paths);
  util::Table table({"scenario", "runs", "masked", "sdc", "hang", "hazard",
                     "hazard scenes", "worst d_lon"});
  for (const core::ScenarioRow& row : core::scenario_table(view)) {
    char worst[32];
    std::snprintf(worst, sizeof(worst), "%.6g", row.worst_min_delta_lon);
    table.add_row({std::to_string(row.scenario_index),
                   std::to_string(row.counts.total()),
                   std::to_string(row.counts.masked),
                   std::to_string(row.counts.sdc_benign),
                   std::to_string(row.counts.hang),
                   std::to_string(row.counts.hazard),
                   std::to_string(row.hazard_scenes), worst});
  }
  table.print("per-scenario violations");
  return 0;
}

int cmd_get(std::size_t run_index, const std::vector<std::string>& paths) {
  const core::CampaignView view = core::load_campaign(paths);
  core::InjectionRecord record;
  if (!core::lookup_run(view, run_index, &record)) {
    std::fprintf(stderr, "error: no record with run_index %zu in %zu loaded "
                 "record(s)\n",
                 run_index, view.records.size());
    return 1;
  }
  std::printf("%s\n", core::run_record_jsonl(record).c_str());
  return 0;
}

int cmd_diff(const std::string& path_a, const std::string& path_b) {
  const core::CampaignView a = core::load_campaign({path_a});
  const core::CampaignView b = core::load_campaign({path_b});
  const core::CampaignDiff diff = core::diff_campaigns(a, b);

  std::printf("compared %zu run(s): %zu changed, %zu only in %s, %zu only "
              "in %s\n",
              diff.compared, diff.changed.size(), diff.only_a.size(),
              path_a.c_str(), diff.only_b.size(), path_b.c_str());
  for (const core::DiffEntry& entry : diff.changed) {
    if (entry.outcome_flipped)
      std::printf("run %zu: outcome %s -> %s\n", entry.run_index,
                  core::outcome_name(entry.a.outcome),
                  core::outcome_name(entry.b.outcome));
    else
      std::printf("run %zu: metrics drifted (min_delta_lon %.17g -> %.17g, "
                  "max_actuation_divergence %.17g -> %.17g)\n",
                  entry.run_index, entry.a.min_delta_lon,
                  entry.b.min_delta_lon, entry.a.max_actuation_divergence,
                  entry.b.max_actuation_divergence);
  }
  if (diff.identical()) {
    std::printf("campaigns are identical\n");
    return 0;
  }
  return 1;
}

int cmd_export(const std::string& jsonl_path,
               const std::vector<std::string>& paths) {
  // Route through merge_shards so the export is the SAME canonical bytes
  // as `drivefi_campaign merge --jsonl` -- including its completeness
  // validation (export of a partial campaign is refused).
  const core::MergedCampaign merged = core::merge_shards(paths);
  std::ofstream out(jsonl_path, std::ios::binary);
  if (!out) {
    std::fprintf(stderr, "error: cannot open %s\n", jsonl_path.c_str());
    return 1;
  }
  core::write_merged_jsonl(merged, out);
  std::printf("exported %zu run(s) as canonical campaign JSONL to %s\n",
              merged.stats.total(), jsonl_path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage(argv[0]);
  const std::string command = argv[1];

  std::vector<std::string> paths;
  std::string jsonl_path;
  std::size_t run_index = 0;
  bool have_run = false;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: %s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--run") {
      const char* value = next();
      try {
        run_index = core::parse_u64_strict(value, arg);
      } catch (const std::runtime_error&) {
        std::fprintf(stderr,
                     "error: --run wants a non-negative integer, got \"%s\"\n",
                     value);
        return 2;
      }
      have_run = true;
    } else if (arg == "--jsonl") {
      jsonl_path = next();
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "error: unknown option %s\n", arg.c_str());
      return 2;
    } else {
      paths.push_back(arg);
    }
  }

  try {
    if (command == "summary" && !paths.empty()) return cmd_summary(paths);
    if (command == "scenarios" && !paths.empty()) return cmd_scenarios(paths);
    if (command == "get" && have_run && !paths.empty())
      return cmd_get(run_index, paths);
    if (command == "diff" && paths.size() == 2)
      return cmd_diff(paths[0], paths[1]);
    if (command == "export" && !jsonl_path.empty() && !paths.empty())
      return cmd_export(jsonl_path, paths);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 1;
  }
  usage(argv[0]);
}
