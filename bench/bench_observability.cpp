// Observability overhead gate: the metrics registry, timing spans, and
// snapshot sink must cost (almost) nothing. Runs the same random-value
// campaign with observability fully ON (live trace session + per-second
// metrics snapshot sink) and fully OFF, and verifies the campaign
// fingerprints are identical both ways (the inertness contract, also
// enforced by tests/determinism_test.cpp). Emits BENCH_observability.json
// and exits nonzero when the relative overhead exceeds the gate (default
// 2%) or any fingerprint diverges, so CI holds the instrumentation to its
// "cheap enough to leave on" promise.
//
// The overhead is the median of 31 per-shot ratios of process CPU time,
// summed over every thread the campaign runs on. A campaign here lasts
// ~0.04 s, and a shared host's speed drifts between such shots by more
// than the 2% gate: on a 4-vCPU VM, a ratio of best-of-5 wall times read
// from -10.6% to +4.5% over twelve runs of one build and failed five.
// Each shot runs the two sides back to back, alternating which goes
// first, so both sides of a ratio share the host's state; CPU time leaves
// out the waits that make a multi-threaded campaign's wall time jitter.
//
//   ./bench_observability [runs] [out.json] [max_overhead]
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/campaign_stats.h"
#include "core/experiment.h"
#include "core/fault_model.h"
#include "core/progress.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "sim/scenario.h"

using namespace drivefi;

namespace {

// CPU time of the whole process, every thread included.
double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t runs =
      argc > 1 ? static_cast<std::size_t>(std::atoll(argv[1])) : 64;
  const std::string out_path =
      argc > 2 ? argv[2] : "BENCH_observability.json";
  const double max_overhead = argc > 3 ? std::atof(argv[3]) : 0.02;
  // Shots per gated ratio; odd, so the median is one shot's ratio.
  constexpr int kShots = 31;

  ads::PipelineConfig config;
  config.seed = 11;
  const core::Experiment experiment(sim::base_suite(), config, {}, {});
  const core::RandomValueModel model(runs, 2024);
  const std::string trace_path =
      (std::filesystem::temp_directory_path() / "bench_observability_trace.json")
          .string();

  std::printf("observability overhead bench: %zu runs, %d shots each way\n",
              runs, kShots);

  // Warm-up rep (page cache, allocator, branch predictors) -- not timed.
  experiment.run(model);

  std::set<std::string> fingerprints;
  std::uint64_t trace_events = 0;
  std::size_t snapshot_lines = 0;
  auto run_baseline = [&] {
    const double t0 = cpu_seconds();
    const core::CampaignStats stats = experiment.run(model);
    const double seconds = cpu_seconds() - t0;
    fingerprints.insert(core::campaign_fingerprint(stats));
    return seconds;
  };
  auto run_instrumented = [&] {
    obs::metrics().reset();
    obs::start_tracing(trace_path);
    std::ostringstream metrics_out;
    core::MetricsSnapshotSink sink(metrics_out, /*interval_seconds=*/1.0);
    std::vector<core::ResultSink*> sinks = {&sink};
    const double t0 = cpu_seconds();
    const core::CampaignStats stats = experiment.run(model, sinks);
    const double seconds = cpu_seconds() - t0;
    trace_events = obs::trace_events_written();
    obs::stop_tracing();
    snapshot_lines = sink.snapshots_written();
    fingerprints.insert(core::campaign_fingerprint(stats));
    return seconds;
  };

  std::vector<double> ratios;
  for (int shot = 0; shot < kShots; ++shot) {
    double baseline = 0.0;
    double instrumented = 0.0;
    if (shot % 2 == 0) {
      baseline = run_baseline();
      instrumented = run_instrumented();
    } else {
      instrumented = run_instrumented();
      baseline = run_baseline();
    }
    ratios.push_back(instrumented / baseline);
    std::printf("  shot %2d: baseline %.4fs  instrumented %.4fs  ratio %.4f\n",
                shot + 1, baseline, instrumented, ratios.back());
  }
  std::filesystem::remove(trace_path);

  std::vector<double> sorted = ratios;
  std::sort(sorted.begin(), sorted.end());
  const double overhead = sorted[kShots / 2] - 1.0;
  const bool identical = fingerprints.size() == 1;

  std::printf("  %llu trace events, %zu metrics snapshots per instrumented "
              "shot\n",
              static_cast<unsigned long long>(trace_events), snapshot_lines);
  std::printf("  overhead          %+.2f%%  (median of %d per-shot ratios; "
              "gate %.2f%%)\n",
              overhead * 100, kShots, max_overhead * 100);
  std::printf("  fingerprints identical: %s\n", identical ? "yes" : "NO");

  std::ofstream json(out_path);
  json << "{\n";
  json << "  \"bench\": \"observability\",\n";
  json << "  \"runs\": " << runs << ",\n";
  json << "  \"shots\": " << kShots << ",\n";
  json << "  \"shot_ratios\": [";
  for (int shot = 0; shot < kShots; ++shot)
    json << (shot == 0 ? "" : ", ") << ratios[shot];
  json << "],\n";
  json << "  \"overhead\": " << overhead << ",\n";
  json << "  \"max_overhead\": " << max_overhead << ",\n";
  json << "  \"trace_events\": " << trace_events << ",\n";
  json << "  \"metrics_snapshots\": " << snapshot_lines << ",\n";
  json << "  \"fingerprints_identical\": " << (identical ? "true" : "false")
       << "\n";
  json << "}\n";
  std::printf("wrote %s\n", out_path.c_str());

  if (!identical) {
    std::fprintf(stderr,
                 "FAIL: observability changed campaign results (fingerprints "
                 "diverged; the inertness contract is broken)\n");
    return 1;
  }
  if (overhead > max_overhead) {
    std::fprintf(stderr,
                 "FAIL: observability overhead %.2f%% exceeds the %.2f%% "
                 "gate\n",
                 overhead * 100, max_overhead * 100);
    return 1;
  }
  return 0;
}
