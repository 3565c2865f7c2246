// E4 -- Case study 1 (paper Fig. 4, Example 1): an "accelerate"
// corruption injected while the merging vehicle has squeezed the safety
// potential causes a crash; the same fault at a comfortable delta is
// absorbed. We sweep the injection time across the scenario and report
// delta at injection vs outcome -- reproducing the "inject at the precise
// time instant" argument.
//
// The corrupted variable is the planner's raw acceleration command
// U_{A,t} (the paper's "throttle command"): corrupting the post-PID
// throttle pedal alone is defeated by brake override (brake authority
// exceeds engine torque on any road vehicle), while a corrupted plan both
// throttles up and silences braking, which originates downstream of it.
#include <algorithm>
#include <cstdio>

#include "core/experiment.h"
#include "core/report.h"
#include "sim/scenario.h"
#include "util/table.h"

using namespace drivefi;

int main() {
  std::printf("E4: accel-fault timing sweep on the Example 1 scenario\n");

  const sim::Scenario scenario = sim::example1_lead_lane_change();
  std::vector<sim::Scenario> suite{scenario};
  ads::PipelineConfig config;
  config.seed = 41;
  const core::Experiment experiment(suite, config);
  const auto& golden = experiment.goldens()[0];

  const double hold = 3.0;  // s, sustained through the window
  util::Table table({"inject t (s)", "min golden delta in window (m)",
                     "outcome", "min delta after (m)"});

  for (double t_inject = 4.0; t_inject < scenario.duration - 6.0;
       t_inject += 2.0) {
    // Tightest golden delta during the fault's hold window -- the
    // quantity the fault has to overcome.
    const auto scene_index =
        static_cast<std::size_t>(t_inject * config.scene_hz);
    const auto last_scene =
        static_cast<std::size_t>((t_inject + hold) * config.scene_hz);
    if (scene_index >= golden.scenes.size()) break;
    double golden_delta = 1e18;
    for (std::size_t s = scene_index;
         s <= last_scene && s < golden.scenes.size(); ++s)
      golden_delta = std::min(golden_delta, golden.scenes[s].true_delta_lon);

    sim::World world(scenario.world);
    ads::AdsPipeline pipeline(world, config);
    ads::ValueFault fault;
    fault.target = ads::target_index("plan.target_accel");
    fault.value = 2.5;  // planner range max (paper: throttle 0.2 -> 0.6)
    fault.start_time = t_inject;
    fault.hold_duration = hold;
    pipeline.arm_value_fault(fault);
    pipeline.run_for(scenario.duration);

    const core::RunResult result = core::classify_run(
        golden.scenes, pipeline.scenes(), pipeline.any_module_hung());
    table.add_row({util::Table::fmt(t_inject, 1),
                   util::Table::fmt(golden_delta, 1),
                   core::outcome_name(result.outcome),
                   util::Table::fmt(result.min_delta_lon, 1)});
  }
  table.print("E4: outcome vs injection time (hazard only in the "
              "small-delta window)");

  // Locate the tightest window for the reader.
  double min_delta = 1e18;
  double t_min = 0.0;
  for (const auto& scene : golden.scenes) {
    if (scene.lead_gap >= 0.0 && scene.true_delta_lon < min_delta) {
      min_delta = scene.true_delta_lon;
      t_min = scene.t;
    }
  }
  std::printf("\ntightest golden window: delta_lon = %.1f m at t = %.1f s\n",
              min_delta, t_min);
  return 0;
}
