// E5 -- Case study 2 (paper Fig. 4, Example 2: the Tesla Autopilot
// crash): the lead vehicle changes lanes late, revealing a near-stopped
// vehicle. Fault-free, the ADS brakes in time; with a perception-delay
// fault through the reveal window, it collides. We sweep the fault's
// duration and report the crash boundary.
#include <cstdio>

#include "core/experiment.h"
#include "core/report.h"
#include "sim/scenario.h"
#include "util/table.h"

using namespace drivefi;

int main() {
  std::printf("E5: perception-delay sweep on the Tesla-reveal scenario\n");

  const sim::Scenario scenario = sim::example2_tesla_reveal();
  std::vector<sim::Scenario> suite{scenario};
  ads::PipelineConfig config;
  config.seed = 43;
  const core::Experiment experiment(suite, config);
  const auto& golden = experiment.goldens()[0];

  std::printf("golden run: %s\n",
              golden.scenes.back().collided ? "COLLIDED (unexpected!)"
                                            : "no collision");

  util::Table table({"fault hold (s)", "outcome", "min delta_lon (m)",
                     "collided"});
  for (double hold : {0.0, 1.0, 2.0, 4.0, 6.0, 8.0, 10.0, 12.0}) {
    sim::World world(scenario.world);
    ads::AdsPipeline pipeline(world, config);
    if (hold > 0.0) {
      ads::ValueFault fault;
      fault.target = ads::target_index("perception.range");
      fault.value = 15.0;  // minimum sensing range
      fault.start_time = 8.0;  // just before the reveal
      fault.hold_duration = hold;
      pipeline.arm_value_fault(fault);
    }
    pipeline.run_for(scenario.duration);
    const core::RunResult result = core::classify_run(
        golden.scenes, pipeline.scenes(), pipeline.any_module_hung());
    table.add_row({util::Table::fmt(hold, 1),
                   core::outcome_name(result.outcome),
                   util::Table::fmt(result.min_delta_lon, 1),
                   result.collided ? "yes" : "no"});
  }
  table.print("E5: outcome vs perception-fault duration "
              "(paper: delayed recognition recreates the fatal crash)");
  return 0;
}
