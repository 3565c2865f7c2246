#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "ads/pipeline.h"
#include "sim/scenario.h"

namespace drivefi::ads {
namespace {

PipelineConfig fast_config() {
  PipelineConfig config;
  config.seed = 7;
  return config;
}

TEST(Pipeline, GoldenLeadCruiseIsCollisionFree) {
  const sim::Scenario scenario = sim::base_suite()[1];  // lead_cruise
  sim::World world(scenario.world);
  AdsPipeline pipeline(world, fast_config());
  pipeline.run_for(scenario.duration);
  EXPECT_FALSE(world.status().collided);
  EXPECT_FALSE(world.status().off_road);
  EXPECT_TRUE(pipeline.hung_modules().empty());
}

TEST(Pipeline, ScenesRecordedAtSceneRate) {
  const sim::Scenario scenario = sim::base_suite()[0];  // open_road
  sim::World world(scenario.world);
  AdsPipeline pipeline(world, fast_config());
  pipeline.run_for(10.0);
  // 7.5 Hz for 10 s = 75 scenes.
  EXPECT_EQ(pipeline.scenes().size(), 75u);
}

TEST(Pipeline, SceneRecordsPopulated) {
  const sim::Scenario scenario = sim::base_suite()[1];  // lead_cruise
  sim::World world(scenario.world);
  AdsPipeline pipeline(world, fast_config());
  pipeline.run_for(20.0);
  const auto& scenes = pipeline.scenes();
  ASSERT_GT(scenes.size(), 100u);
  const auto& late = scenes[100];
  EXPECT_GT(late.v, 10.0);            // moving
  EXPECT_GT(late.lead_gap, 0.0);      // lead tracked
  EXPECT_GT(late.true_dsafe_lon, 0.0);
  EXPECT_GT(late.true_delta_lon, 0.0);  // safe following
}

TEST(Pipeline, HoldsSpeedNearCruiseOnOpenRoad) {
  const sim::Scenario scenario = sim::base_suite()[0];
  sim::World world(scenario.world);
  PipelineConfig config = fast_config();
  AdsPipeline pipeline(world, config);
  pipeline.run_for(30.0);
  EXPECT_NEAR(world.ego().v, config.planner.cruise_speed, 2.0);
  EXPECT_NEAR(world.ego().y, 3.7, 0.5);  // stays centered
}

TEST(Pipeline, MaintainsHeadwayBehindSlowerLead) {
  const sim::Scenario scenario = sim::base_suite()[1];  // lead 29 m/s
  sim::World world(scenario.world);
  AdsPipeline pipeline(world, fast_config());
  pipeline.run_for(scenario.duration);
  // Converge near the lead's speed without collision.
  EXPECT_NEAR(world.ego().v, 29.0, 2.0);
  EXPECT_FALSE(world.status().collided);
}

TEST(Pipeline, DeterministicWithSameSeed) {
  auto run = [] {
    const sim::Scenario scenario = sim::base_suite()[1];
    sim::World world(scenario.world);
    AdsPipeline pipeline(world, fast_config());
    pipeline.run_for(15.0);
    return pipeline.scenes();
  };
  const auto a = run();
  const auto b = run();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i].v, b[i].v);
    EXPECT_DOUBLE_EQ(a[i].throttle, b[i].throttle);
    EXPECT_DOUBLE_EQ(a[i].lead_gap, b[i].lead_gap);
  }
}

TEST(Pipeline, DifferentSeedsDiverge) {
  auto run = [](std::uint64_t seed) {
    const sim::Scenario scenario = sim::base_suite()[1];
    sim::World world(scenario.world);
    PipelineConfig config = fast_config();
    config.seed = seed;
    AdsPipeline pipeline(world, config);
    pipeline.run_for(10.0);
    return pipeline.scenes().back().lead_gap;
  };
  EXPECT_NE(run(1), run(2));
}

TEST(Pipeline, FaultRegistryCoversAllModules) {
  const sim::Scenario scenario = sim::base_suite()[0];
  sim::World world(scenario.world);
  AdsPipeline pipeline(world, fast_config());
  const auto& registry = pipeline.fault_registry();
  EXPECT_GE(registry.size(), 19u);
  for (const char* name :
       {"gps.x", "imu.speed", "localization.v", "world_model.lead_gap",
        "plan.target_accel", "control.throttle", "control.brake",
        "control.steering", "perception.range"}) {
    EXPECT_NE(registry.find(name), nullptr) << name;
  }
}

TEST(Pipeline, ValueFaultCorruptsTarget) {
  const sim::Scenario scenario = sim::base_suite()[1];
  sim::World world(scenario.world);
  AdsPipeline pipeline(world, fast_config());

  ValueFault fault;
  fault.target = "control.throttle";
  fault.value = 1.0;
  fault.start_time = 5.0;
  fault.hold_duration = 0.5;
  pipeline.arm_value_fault(fault);

  pipeline.run_for(5.2);
  EXPECT_DOUBLE_EQ(pipeline.control_channel().latest().throttle, 1.0);
}

TEST(Pipeline, ValueFaultWindowExpires) {
  const sim::Scenario scenario = sim::base_suite()[0];
  sim::World world(scenario.world);
  AdsPipeline pipeline(world, fast_config());

  ValueFault fault;
  fault.target = "control.brake";
  fault.value = 1.0;
  fault.start_time = 5.0;
  fault.hold_duration = 0.2;
  pipeline.arm_value_fault(fault);

  pipeline.run_for(8.0);
  // Brake command recomputed cleanly after the window.
  EXPECT_LT(pipeline.control_channel().latest().brake, 0.5);
}

TEST(Pipeline, ThrottleFaultChangesTrajectory) {
  auto final_x = [](bool faulty) {
    const sim::Scenario scenario = sim::base_suite()[0];  // open road
    sim::World world(scenario.world);
    AdsPipeline pipeline(world, fast_config());
    if (faulty) {
      ValueFault fault;
      fault.target = "control.throttle";
      fault.value = 1.0;
      fault.start_time = 5.0;
      fault.hold_duration = 2.0;
      pipeline.arm_value_fault(fault);
    }
    pipeline.run_for(10.0);
    return world.ego().x;
  };
  EXPECT_GT(final_x(true), final_x(false) + 1.0);
}

TEST(Pipeline, WatchdogBrakesAfterControlHang) {
  const sim::Scenario scenario = sim::base_suite()[0];  // open road

  auto run = [&](bool watchdog_on) {
    sim::World world(scenario.world);
    PipelineConfig config = fast_config();
    config.watchdog.enabled = watchdog_on;
    AdsPipeline pipeline(world, config);

    // Kill the control module mid-cruise with a NaN plan.
    ValueFault fault;
    fault.target = "plan.target_accel";
    fault.value = std::numeric_limits<double>::quiet_NaN();
    fault.start_time = 10.0;
    fault.hold_duration = 0.2;
    pipeline.arm_value_fault(fault);

    pipeline.run_for(25.0);
    return std::pair<bool, double>(pipeline.watchdog_engaged(),
                                   world.ego().v);
  };

  const auto [engaged_on, speed_on] = run(true);
  const auto [engaged_off, speed_off] = run(false);
  EXPECT_TRUE(engaged_on);
  EXPECT_FALSE(engaged_off);
  // With the backup engaged the vehicle is braked to (near) standstill;
  // without it, the stale cruise command keeps it rolling.
  EXPECT_LT(speed_on, 2.0);
  EXPECT_GT(speed_off, 10.0);
}

TEST(Pipeline, NonFiniteInputHangsConsumer) {
  const sim::Scenario scenario = sim::base_suite()[1];
  sim::World world(scenario.world);
  AdsPipeline pipeline(world, fast_config());

  // NaN into the plan's target accel: the control module must hang.
  ValueFault fault;
  fault.target = "plan.target_accel";
  fault.value = std::numeric_limits<double>::quiet_NaN();
  fault.start_time = 5.0;
  fault.hold_duration = 0.2;
  pipeline.arm_value_fault(fault);

  pipeline.run_for(8.0);
  EXPECT_TRUE(pipeline.hung_modules().contains("control"));
  EXPECT_TRUE(pipeline.any_module_hung());
}

TEST(Pipeline, BitFaultFiresAtInstructionIndex) {
  const sim::Scenario scenario = sim::base_suite()[1];
  sim::World world(scenario.world);
  AdsPipeline pipeline(world, fast_config());

  BitFault fault;
  fault.target = "localization.v";
  fault.bits = 1;
  fault.instruction_index = 1'000'000;
  pipeline.arm_bit_fault(fault);

  pipeline.run_for(10.0);
  EXPECT_GT(pipeline.arch_state().instructions_retired(), 1'000'000u);
  // The run completes; the flip either masked or perturbed the estimate,
  // but the pipeline itself must survive (EKF re-estimates each tick).
  EXPECT_FALSE(world.status().collided);
}

TEST(Pipeline, BelievedSafetyTracksTruth) {
  const sim::Scenario scenario = sim::base_suite()[1];
  sim::World world(scenario.world);
  AdsPipeline pipeline(world, fast_config());
  pipeline.run_for(20.0);
  // Believed and true longitudinal delta agree to within sensor noise
  // scale once tracking has settled.
  const kinematics::SafetyPotential believed =
      pipeline.believed_safety_potential();
  EXPECT_NEAR(believed.longitudinal, world.true_safety_potential().longitudinal,
              25.0);
  EXPECT_GT(believed.longitudinal, 0.0);
}

TEST(Pipeline, EkfAblationStillDrives) {
  const sim::Scenario scenario = sim::base_suite()[1];
  sim::World world(scenario.world);
  PipelineConfig config = fast_config();
  config.use_ekf = false;
  AdsPipeline pipeline(world, config);
  pipeline.run_for(scenario.duration);
  EXPECT_FALSE(world.status().collided);
}

TEST(Pipeline, PidAblationStillDrives) {
  const sim::Scenario scenario = sim::base_suite()[1];
  sim::World world(scenario.world);
  PipelineConfig config = fast_config();
  config.use_pid = false;
  AdsPipeline pipeline(world, config);
  pipeline.run_for(scenario.duration);
  EXPECT_FALSE(world.status().collided);
}

TEST(Pipeline, SceneVariableBridgeConsistent) {
  const auto& names = scene_variable_names();
  SceneRecord rec;
  rec.true_v = 31.0;
  rec.lead_gap = 1.0;
  rec.steer = 10.0;
  const auto values = scene_variable_values(rec);
  ASSERT_EQ(values.size(), names.size());
  EXPECT_EQ(names.front(), "true_v");
  EXPECT_DOUBLE_EQ(values.front(), 31.0);
  EXPECT_EQ(names.back(), "steer");
  EXPECT_DOUBLE_EQ(values.back(), 10.0);
  // Every BN-template variable is exactly one scene column.
  for (const char* name : {"lead_gap", "v", "true_y_off", "u_accel"})
    EXPECT_EQ(std::count(names.begin(), names.end(), name), 1) << name;
}

}  // namespace
}  // namespace drivefi::ads
