// E8 -- Natural-resilience ablation (paper §II-C): the ADS masks random
// faults because (a) high recompute rate limits transient propagation,
// (b) EKF fusion and PID smoothing absorb corruption. We re-run the same
// random value-fault campaign with each mechanism toggled and at several
// recompute rates, and report how outcome rates shift.
#include <cstdio>
#include <limits>
#include <string>

#include "ads/pipeline.h"
#include "core/experiment.h"
#include "core/fault_model.h"
#include "core/report.h"
#include "sim/scenario.h"
#include "util/table.h"

using namespace drivefi;

namespace {

struct AblationRow {
  std::string label;
  core::CampaignStats stats;
};

core::CampaignStats run_config(const ads::PipelineConfig& config,
                               std::size_t budget, std::uint64_t seed) {
  std::vector<sim::Scenario> suite = {sim::base_suite()[1],
                                      sim::base_suite()[2],
                                      sim::base_suite()[4]};
  const core::Experiment experiment(suite, config);
  return experiment.run(core::RandomValueModel(budget, seed));
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t budget =
      argc > 1 ? static_cast<std::size_t>(std::atoi(argv[1])) : 60;
  std::printf("E8: resilience-mechanism ablation (%zu injections per "
              "config)\n",
              budget);

  std::vector<AblationRow> rows;

  {
    ads::PipelineConfig config;
    config.seed = 81;
    rows.push_back({"baseline (EKF+PID, 30 Hz)",
                    run_config(config, budget, 4242)});
  }
  {
    ads::PipelineConfig config;
    config.seed = 81;
    config.use_ekf = false;
    rows.push_back({"no EKF (raw GPS/odom)", run_config(config, budget, 4242)});
  }
  {
    ads::PipelineConfig config;
    config.seed = 81;
    config.use_pid = false;
    rows.push_back({"no PID (raw plan commands)",
                    run_config(config, budget, 4242)});
  }
  {
    ads::PipelineConfig config;
    config.seed = 81;
    config.use_ekf = false;
    config.use_pid = false;
    rows.push_back({"no EKF, no PID", run_config(config, budget, 4242)});
  }
  {
    // Backup system: the paper expects hang recovery "with the
    // backup/redundant systems that are present in AVs today"; the safing
    // watchdog is that backup, braking to a minimal-risk stop when the
    // primary control path dies.
    ads::PipelineConfig config;
    config.seed = 81;
    config.watchdog.enabled = true;
    rows.push_back({"with safing watchdog", run_config(config, budget, 4242)});
  }
  // Recompute-rate sweep: slower planning/control lets transients persist.
  for (double hz : {15.0, 7.5}) {
    ads::PipelineConfig config;
    config.seed = 81;
    config.perception_hz = hz;
    config.planner_hz = hz;
    config.control_hz = hz;
    rows.push_back({"pipeline at " + std::to_string(hz).substr(0, 4) + " Hz",
                    run_config(config, budget, 4242)});
  }

  // Hang-recovery ablation: min/max corruption cannot produce the
  // non-finite values that kill a module, so the watchdog's contribution
  // is measured on a dedicated hang-stress campaign -- NaN into the plan
  // at random instants, which reliably hangs the control module.
  util::Table hang_table({"configuration", "runs", "hung", "collided",
                          "mean final speed (m/s)"});
  for (bool watchdog_on : {false, true}) {
    std::size_t hung = 0;
    std::size_t collided = 0;
    double speed_sum = 0.0;
    const std::size_t kRuns = 8;
    std::vector<sim::Scenario> suite = {sim::base_suite()[0],
                                        sim::base_suite()[1]};
    for (std::size_t i = 0; i < kRuns; ++i) {
      const sim::Scenario& scenario = suite[i % suite.size()];
      sim::World world(scenario.world);
      ads::PipelineConfig config;
      config.seed = 81;
      config.watchdog.enabled = watchdog_on;
      ads::AdsPipeline pipeline(world, config);
      ads::ValueFault fault;
      fault.target = ads::target_index("plan.target_accel");
      fault.value = std::numeric_limits<double>::quiet_NaN();
      fault.start_time = 6.0 + 2.5 * static_cast<double>(i);
      fault.hold_duration = 0.2;
      pipeline.arm_value_fault(fault);
      pipeline.run_for(scenario.duration);
      if (pipeline.any_module_hung()) ++hung;
      if (world.status().collided) ++collided;
      speed_sum += world.ego().v;
    }
    hang_table.add_row(
        {watchdog_on ? "hang + safing watchdog" : "hang, no backup",
         util::Table::fmt_int(static_cast<long long>(kRuns)),
         util::Table::fmt_int(static_cast<long long>(hung)),
         util::Table::fmt_int(static_cast<long long>(collided)),
         util::Table::fmt(speed_sum / static_cast<double>(kRuns), 1)});
  }
  hang_table.print("E8b: hang recovery (paper: backup/redundant systems "
                   "recover from hangs)");

  util::Table table({"configuration", "masked", "sdc", "hang", "hazard",
                     "hazard rate"});
  for (const auto& row : rows) {
    const auto total = static_cast<double>(
        std::max<std::size_t>(1, row.stats.total()));
    table.add_row(
        {row.label,
         util::Table::fmt_int(static_cast<long long>(row.stats.masked)),
         util::Table::fmt_int(static_cast<long long>(row.stats.sdc_benign)),
         util::Table::fmt_int(static_cast<long long>(row.stats.hang)),
         util::Table::fmt_int(static_cast<long long>(row.stats.hazard)),
         util::Table::fmt_pct(row.stats.hazard / total)});
  }
  table.print("E8: same random campaign, resilience features toggled "
              "(paper: EKF, PID and recompute rate mask faults)");
  return 0;
}
