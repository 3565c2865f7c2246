// Quickstart: run one driving scenario through the full ADS pipeline,
// inject a single throttle fault, and classify the outcome.
//
//   ./quickstart
//
// This is the smallest end-to-end use of the public API: build an
// Experiment (which precomputes the golden baseline), describe a fault,
// replay it, classify. Campaigns use the same engine with a FaultModel --
// see random_vs_bayesian.cpp.
#include <cstdio>

#include "core/experiment.h"
#include "core/outcome.h"
#include "sim/scenario.h"

using namespace drivefi;

int main() {
  // 1. Pick a scenario from the library (lead car cruising ahead).
  const sim::Scenario scenario = sim::base_suite()[1];
  std::printf("scenario: %s\n  %s\n", scenario.name.c_str(),
              scenario.description.c_str());

  // 2. Configure the ADS (defaults mirror an Apollo-like stack: 30 Hz
  //    perception/planning/control, 10 Hz GPS, EKF fusion, PID smoothing)
  //    and build the engine; golden (fault-free) baselines are computed
  //    eagerly, one per scenario.
  ads::PipelineConfig config;
  config.seed = 1;
  const core::Experiment experiment({scenario}, config);

  const core::GoldenTrace& golden = experiment.goldens()[0];
  std::printf("golden run: %zu scenes, final delta_lon = %.1f m, %s\n",
              golden.scenes.size(), golden.scenes.back().true_delta_lon,
              golden.scenes.back().collided ? "COLLIDED" : "no collision");

  // 3. Describe a fault: corrupt the throttle command to its max for one
  //    second, mid-scenario (paper fault model (b) on A_t).
  core::CandidateFault fault;
  fault.scenario_index = 0;
  fault.inject_time = 15.0;
  fault.target = ads::target_index("control.throttle");
  fault.value = 1.0;

  // 4. Replay it against the golden baseline and classify.
  const core::RunResult result =
      experiment.replay_value_fault(fault, /*hold_seconds=*/1.0);
  std::printf("injected run: outcome = %s (%s)\n",
              core::outcome_name(result.outcome), result.detail.c_str());
  std::printf("  max actuation divergence: %.3f\n",
              result.max_actuation_divergence);
  std::printf("  min delta_lon over run:   %.1f m\n", result.min_delta_lon);
  return 0;
}
