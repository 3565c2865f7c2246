// Snapshot/restore coverage for every module in the simulation stack: for
// each stateful module, snapshot -> (perturb) -> restore -> step must be
// bit-identical to stepping uninterrupted, because fork-from-golden replay
// rests on exactly that property. Stateless modules (planner, sensors
// given an Rng) are checked for purity instead. The pipeline-level tests
// at the bottom are the money tests: a fresh pipeline restored from a
// mid-run checkpoint finishes the run bit-identically, and a forked
// replay with golden-tail splicing equals a full replay.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "ads/pipeline.h"
#include "core/experiment.h"
#include "core/fault_model.h"
#include "core/trace.h"
#include "hw/arch_state.h"
#include "kinematics/bicycle.h"
#include "obs/metrics.h"
#include "runtime/channel.h"
#include "runtime/scheduler.h"
#include "sim/scenario.h"
#include "sim/world.h"
#include "util/bits.h"
#include "util/rng.h"

namespace drivefi {
namespace {

// --- util/rng -------------------------------------------------------------

TEST(Snapshot, RngResumesExactStream) {
  util::Rng rng(12345);
  // Put the spare-gaussian cache into play before snapshotting.
  (void)rng.gaussian();
  const util::RngState state = rng.state();

  std::vector<double> uninterrupted;
  for (int i = 0; i < 16; ++i) uninterrupted.push_back(rng.gaussian());

  util::Rng other(999);  // arbitrary different stream
  other.set_state(state);
  for (int i = 0; i < 16; ++i)
    EXPECT_TRUE(util::bits_equal(uninterrupted[static_cast<std::size_t>(i)],
                                 other.gaussian()));

  // state_equals agrees with round-trip equality.
  util::Rng third(1);
  third.set_state(state);
  EXPECT_TRUE(third.state_equals(state));
  (void)third.next_u64();
  EXPECT_FALSE(third.state_equals(state));
}

// --- runtime/channel ------------------------------------------------------

TEST(Snapshot, ChannelRoundTrip) {
  runtime::Channel<ads::PlanMsg> channel("plan");
  ads::PlanMsg msg;
  msg.t = 1.5;
  msg.target_accel = -2.25;
  channel.publish(msg, 1.5);

  const auto snap = channel.snapshot();
  msg.target_accel = 0.5;
  channel.publish(msg, 2.0);
  EXPECT_NE(channel.snapshot(), snap);

  channel.restore(snap);
  EXPECT_EQ(channel.snapshot(), snap);
  EXPECT_EQ(channel.sequence(), 1u);
  EXPECT_DOUBLE_EQ(channel.latest().target_accel, -2.25);
  EXPECT_DOUBLE_EQ(channel.last_publish_time(), 1.5);

  // An empty channel snapshots and restores too.
  runtime::Channel<ads::PlanMsg> empty("plan");
  const auto empty_snap = empty.snapshot();
  empty.publish(msg, 3.0);
  empty.restore(empty_snap);
  EXPECT_FALSE(empty.has_message());
}

// --- runtime/scheduler ----------------------------------------------------

TEST(Snapshot, SchedulerRestoresTickAndEnables) {
  auto make = [](std::vector<std::uint64_t>& fired) {
    auto s = std::make_unique<runtime::Scheduler>(120.0);
    s->add_module("a", 60.0, [&fired, s = s.get()](double) {
      fired.push_back(s->tick());
    });
    s->add_module("b", 30.0, [](double) {});
    return s;
  };

  std::vector<std::uint64_t> fired_a;
  auto sched = make(fired_a);
  sched->run_for(0.1);  // 12 ticks
  sched->set_enabled("b", false);
  const auto snap = sched->snapshot();
  EXPECT_TRUE(sched->state_equals(snap));

  std::vector<std::uint64_t> uninterrupted = fired_a;
  sched->run_for(0.1);
  const std::vector<std::uint64_t> full = fired_a;

  // A second scheduler with the same registrations, restored mid-run,
  // fires the identical suffix.
  std::vector<std::uint64_t> fired_b;
  auto other = make(fired_b);
  other->restore(snap);
  EXPECT_TRUE(other->state_equals(snap));
  EXPECT_FALSE(other->enabled("b"));
  EXPECT_TRUE(other->enabled("a"));
  other->run_for(0.1);
  const std::vector<std::uint64_t> suffix(full.begin() + static_cast<std::ptrdiff_t>(uninterrupted.size()),
                                          full.end());
  EXPECT_EQ(fired_b, suffix);
}

// --- hw/arch_state --------------------------------------------------------

TEST(Snapshot, ArchStateInstructionCounter) {
  hw::ArchState arch;
  arch.retire_instructions(12'345);
  const auto snap = arch.snapshot();
  arch.retire_instructions(1);
  EXPECT_FALSE(arch.state_equals(snap));
  arch.restore(snap);
  EXPECT_TRUE(arch.state_equals(snap));
  EXPECT_EQ(arch.instructions_retired(), 12'345u);
}

// --- kinematics/bicycle ---------------------------------------------------

TEST(Snapshot, BicycleStateIsItsOwnSnapshot) {
  // The bicycle model is a pure function of (state, actuation, params):
  // VehicleState itself is the snapshot, and stepping from a copied state
  // reproduces the trajectory bit-for-bit.
  kinematics::VehicleState state;
  state.v = 30.0;
  kinematics::Actuation act;
  act.throttle = 0.4;
  act.steering = 0.02;
  const kinematics::VehicleParams params;

  for (int i = 0; i < 50; ++i) state = kinematics::step(state, act, params, 0.01);
  const kinematics::VehicleState saved = state;

  kinematics::VehicleState a = state;
  kinematics::VehicleState b = saved;
  for (int i = 0; i < 50; ++i) {
    a = kinematics::step(a, act, params, 0.01);
    b = kinematics::step(b, act, params, 0.01);
  }
  EXPECT_EQ(a, b);
  EXPECT_TRUE(util::bits_equal(a.x, b.x) && util::bits_equal(a.theta, b.theta));
}

// --- sim/world ------------------------------------------------------------

TEST(Snapshot, WorldRestoreContinuesBitIdentically) {
  const sim::Scenario scenario = sim::base_suite()[1];
  sim::World world(scenario.world);
  kinematics::Actuation act;
  act.throttle = 0.3;

  for (int i = 0; i < 200; ++i) world.step(act, 1.0 / 120.0);
  const sim::World::Snapshot snap = world.snapshot();
  EXPECT_TRUE(world.state_equals(snap));

  for (int i = 0; i < 200; ++i) world.step(act, 1.0 / 120.0);
  const sim::World::Snapshot uninterrupted = world.snapshot();

  // Restore into a FRESH world built from the same config and replay the
  // same actuation: the final state must match bit-for-bit.
  sim::World fresh(scenario.world);
  fresh.restore(snap);
  EXPECT_TRUE(fresh.state_equals(snap));
  for (int i = 0; i < 200; ++i) fresh.step(act, 1.0 / 120.0);
  EXPECT_TRUE(fresh.state_equals(uninterrupted));
  EXPECT_EQ(fresh.snapshot(), uninterrupted);
}

// --- ads/sensors (stateless given the Rng stream) -------------------------

TEST(Snapshot, SensorsAreDeterministicGivenRngState) {
  const sim::Scenario scenario = sim::base_suite()[0];
  sim::World world(scenario.world);
  util::Rng rng(77);
  (void)ads::sense_gps(world, ads::GpsNoise{}, rng);  // advance the stream
  const util::RngState state = rng.state();

  const ads::GpsMsg gps_a = ads::sense_gps(world, ads::GpsNoise{}, rng);
  const ads::ImuMsg imu_a = ads::sense_imu(world, ads::ImuNoise{}, rng);
  ads::DetectionMsg det_a;
  ads::sense_objects(world, ads::ObjectSensorConfig{}, rng, det_a);

  util::Rng replay(0);
  replay.set_state(state);
  EXPECT_TRUE(bits_equal(gps_a, ads::sense_gps(world, ads::GpsNoise{}, replay)));
  EXPECT_TRUE(bits_equal(imu_a, ads::sense_imu(world, ads::ImuNoise{}, replay)));
  ads::DetectionMsg det_b;
  ads::sense_objects(world, ads::ObjectSensorConfig{}, replay, det_b);
  EXPECT_TRUE(bits_equal(det_a, det_b));
}

// --- ads/ekf --------------------------------------------------------------

TEST(Snapshot, EkfRestoreContinuesBitIdentically) {
  ads::LocalizationEkf ekf;
  ekf.initialize(10.0, 3.7, 0.01, 30.0);
  ads::ImuMsg imu;
  imu.accel = 0.5;
  imu.yaw_rate = 0.01;
  imu.speed = 30.0;
  for (int i = 0; i < 20; ++i) {
    ekf.predict(imu, 1.0 / 60.0);
    ekf.update_speed(30.0 + 0.01 * i);
  }
  const auto snap = ekf.snapshot();

  ads::GpsMsg gps;
  gps.x = 15.0;
  gps.y = 3.6;
  gps.heading = 0.012;
  auto drive = [&](ads::LocalizationEkf& filter) {
    for (int i = 0; i < 20; ++i) {
      filter.predict(imu, 1.0 / 60.0);
      filter.update_gps(gps);
      filter.update_speed(30.5);
    }
    return filter.estimate(1.0);
  };
  const ads::LocalizationMsg uninterrupted = drive(ekf);

  ads::LocalizationEkf fresh;  // never initialized, different state
  fresh.restore(snap);
  EXPECT_TRUE(fresh.state_equals(snap));
  EXPECT_TRUE(bits_equal(uninterrupted, drive(fresh)));
}

// --- ads/tracker ----------------------------------------------------------

TEST(Snapshot, TrackerRestoreContinuesBitIdentically) {
  ads::TrackerConfig config;
  ads::ObjectTracker tracker(config);
  auto frame = [](double t, double x) {
    ads::DetectionMsg msg;
    msg.t = t;
    ads::Detection det;
    det.x = x;
    det.y = 3.7;
    det.speed_along = 28.0;
    msg.detections.push_back(det);
    return msg;
  };
  std::vector<ads::TrackedObject> confirmed;
  for (int i = 0; i < 6; ++i)
    tracker.update(frame(0.1 * i, 40.0 + 2.8 * 0.1 * i), 0.1 * i, confirmed);

  const auto snap = tracker.snapshot();
  auto drive = [&](ads::ObjectTracker& tr) {
    std::vector<ads::TrackedObject> out;
    for (int i = 6; i < 12; ++i)
      tr.update(frame(0.1 * i, 40.0 + 2.8 * 0.1 * i), 0.1 * i, out);
    return out;
  };
  const auto uninterrupted = drive(tracker);

  ads::ObjectTracker fresh(config);
  fresh.restore(snap);
  EXPECT_TRUE(fresh.state_equals(snap));
  const auto resumed = drive(fresh);
  ASSERT_EQ(uninterrupted.size(), resumed.size());
  ASSERT_FALSE(uninterrupted.empty());
  for (std::size_t i = 0; i < uninterrupted.size(); ++i)
    EXPECT_TRUE(bits_equal(uninterrupted[i], resumed[i]));
}

// --- ads/planner (stateless) ----------------------------------------------

TEST(Snapshot, PlannerIsPure) {
  ads::LocalizationMsg ego;
  ego.x = 100.0;
  ego.y = 3.65;
  ego.theta = 0.002;
  ego.v = 31.0;
  ads::WorldModelMsg world;
  world.lead_gap = 42.0;
  world.lead_rel_speed = -3.0;
  const ads::PlannerConfig config;
  const ads::PlanMsg a = ads::plan(ego, world, 3.7, config, 1.0);
  const ads::PlanMsg b = ads::plan(ego, world, 3.7, config, 1.0);
  EXPECT_TRUE(bits_equal(a, b));
  EXPECT_EQ(a, b);
}

// --- ads/pid --------------------------------------------------------------

TEST(Snapshot, PidRestoreContinuesBitIdentically) {
  ads::PidController pid;
  ads::PlanMsg plan;
  plan.target_accel = 1.2;
  plan.target_speed = 32.0;
  for (int i = 0; i < 10; ++i)
    pid.control(plan, 0.8, 30.0, 1.0 / 30.0, 0.1 * i);

  const auto snap = pid.snapshot();
  auto drive = [&](ads::PidController& c) {
    ads::ControlMsg last;
    for (int i = 10; i < 20; ++i)
      last = c.control(plan, 1.0, 30.5, 1.0 / 30.0, 0.1 * i);
    return last;
  };
  const ads::ControlMsg uninterrupted = drive(pid);

  ads::PidController fresh;
  fresh.restore(snap);
  EXPECT_TRUE(fresh.state_equals(snap));
  EXPECT_TRUE(bits_equal(uninterrupted, drive(fresh)));
}

// --- ads/watchdog ---------------------------------------------------------

TEST(Snapshot, WatchdogRestoreContinuesBitIdentically) {
  ads::WatchdogConfig config;
  config.enabled = true;
  ads::Watchdog dog(config);
  // Engage it (stale control path) and let it start releasing steering.
  (void)dog.monitor(1.0, 0.2, 1.0 / 30.0, 5.0);
  ASSERT_TRUE(dog.engaged());
  (void)dog.monitor(1.0, 0.2, 1.0 / 30.0, 5.033);

  const auto snap = dog.snapshot();
  auto drive = [&](ads::Watchdog& d) {
    std::optional<ads::ControlMsg> last;
    for (int i = 0; i < 10; ++i)
      last = d.monitor(1.0, 0.2, 1.0 / 30.0, 5.066 + 0.033 * i);
    return *last;
  };
  const ads::ControlMsg uninterrupted = drive(dog);

  ads::Watchdog fresh(config);
  fresh.restore(snap);
  EXPECT_TRUE(fresh.state_equals(snap));
  EXPECT_TRUE(bits_equal(uninterrupted, drive(fresh)));
}

// --- pipeline-level: checkpoint -> restore -> run == uninterrupted --------

ads::PipelineConfig pipeline_config() {
  ads::PipelineConfig config;
  config.seed = 11;
  return config;
}

TEST(Snapshot, PipelineRestoreFinishesRunBitIdentically) {
  const sim::Scenario scenario = sim::base_suite()[1];
  const core::GoldenTrace golden =
      core::run_golden(scenario, pipeline_config(), 0, /*stride=*/5);
  ASSERT_FALSE(golden.checkpoints.empty());
  ASSERT_GT(golden.checkpoints.size(), 3u);

  // Resume from a mid-run checkpoint in a FRESH pipeline and world; the
  // completed run must equal the golden run record-for-record.
  const ads::PipelineSnapshot& ck =
      golden.checkpoints[golden.checkpoints.size() / 2];
  sim::World world(scenario.world);
  ads::AdsPipeline pipeline(world, pipeline_config());
  pipeline.restore(ck);
  EXPECT_TRUE(pipeline.state_matches(ck));
  pipeline.preload_scene_prefix(golden.scenes, ck.scene_index + 1);
  pipeline.run_until(scenario.duration);

  ASSERT_EQ(pipeline.scenes().size(), golden.scenes.size());
  for (std::size_t i = 0; i < golden.scenes.size(); ++i)
    EXPECT_EQ(pipeline.scenes()[i], golden.scenes[i]) << "scene " << i;
}

TEST(Snapshot, PipelineSnapshotRoundTripCompares) {
  const sim::Scenario scenario = sim::base_suite()[2];
  sim::World world(scenario.world);
  ads::AdsPipeline pipeline(world, pipeline_config());
  pipeline.run_for(2.0);
  const ads::PipelineSnapshot snap = pipeline.snapshot();
  EXPECT_TRUE(pipeline.state_matches(snap));
  EXPECT_EQ(pipeline.snapshot(), snap);

  pipeline.run_for(0.5);
  EXPECT_FALSE(pipeline.state_matches(snap));
  pipeline.restore(snap);
  EXPECT_TRUE(pipeline.state_matches(snap));
}

// --- golden-tail splice vs simulated tail ---------------------------------

void expect_results_bit_equal(const core::RunResult& a,
                              const core::RunResult& b) {
  EXPECT_EQ(a.outcome, b.outcome);
  EXPECT_TRUE(util::bits_equal(a.min_delta_lon, b.min_delta_lon));
  EXPECT_TRUE(util::bits_equal(a.min_delta_lat, b.min_delta_lat));
  EXPECT_TRUE(util::bits_equal(a.max_actuation_divergence,
                               b.max_actuation_divergence));
  EXPECT_EQ(a.hazard_scene_index, b.hazard_scene_index);
  EXPECT_EQ(a.collided, b.collided);
  EXPECT_EQ(a.off_road, b.off_road);
  EXPECT_EQ(a.delta_violated, b.delta_violated);
}

TEST(Snapshot, SplicedReplayEqualsSimulatedReplay) {
  std::vector<sim::Scenario> suite = {sim::base_suite()[1]};

  // No golden checkpoints: replays simulate their whole scenario.
  core::ExperimentOptions full_options;
  full_options.checkpoint_stride = 0;
  full_options.executor.threads = 1;
  const core::Experiment full(suite, pipeline_config(), {}, full_options);

  core::ExperimentOptions fork_options;
  fork_options.checkpoint_stride = 4;
  fork_options.executor.threads = 1;
  const core::Experiment forked(suite, pipeline_config(), {}, fork_options);

  obs::Counter& forked_runs = obs::metrics().counter("experiment.replays_forked");
  obs::Counter& full_runs = obs::metrics().counter("experiment.replays_full");
  obs::Counter& spliced_runs =
      obs::metrics().counter("experiment.replays_spliced");
  obs::Histogram& run_wall =
      obs::metrics().histogram("experiment.run_wall_seconds");
  const std::uint64_t forked_before = forked_runs.value();
  const std::uint64_t full_before = full_runs.value();
  const std::uint64_t spliced_before = spliced_runs.value();
  const double wall_before = run_wall.snapshot().sum_seconds;

  // A fault that perturbs the EKF: the faulty run forks from a checkpoint
  // but (tiny numerical divergence persists) simulates its whole tail.
  core::CandidateFault perturbing;
  perturbing.scenario_index = 0;
  perturbing.scene_index = 60;
  perturbing.inject_time = 8.0;
  perturbing.target = ads::target_index("imu.speed");
  perturbing.value = 45.0;
  expect_results_bit_equal(full.replay_value_fault(perturbing, 1.0 / 30.0),
                           forked.replay_value_fault(perturbing, 1.0 / 30.0));
  EXPECT_EQ(forked_runs.value() - forked_before, 1u);
  EXPECT_EQ(full_runs.value() - full_before, 1u);

  // A bit-inert fault (writes the value the variable already holds): the
  // faulty state stays bit-equal to the golden, so once the hold window
  // passes the engine must splice the golden tail instead of simulating
  // it -- and the classification must still match the full simulation.
  core::CandidateFault inert;
  inert.scenario_index = 0;
  inert.scene_index = 60;
  inert.inject_time = 8.0;
  inert.target = ads::target_index("perception.range");
  inert.value = 200.0;  // == ObjectSensorConfig::range in the golden run
  const core::RunResult a = full.replay_value_fault(inert, 1.0 / 30.0);
  const core::RunResult b = forked.replay_value_fault(inert, 1.0 / 30.0);
  expect_results_bit_equal(a, b);
  EXPECT_EQ(a.outcome, core::Outcome::kMasked);

  // A range the sensor sees no difference under (nothing lies between the
  // configured 200 m and 250 m) still differs from golden while it is held.
  // Its hold's end restores the configured range, so the state reconverges
  // and the forked replay splices; a permanent config fault never would.
  core::CandidateFault released = inert;
  released.value = 250.0;
  const core::RunResult c = full.replay_value_fault(released, 1.0 / 30.0);
  const core::RunResult d = forked.replay_value_fault(released, 1.0 / 30.0);
  expect_results_bit_equal(c, d);
  EXPECT_EQ(c.outcome, core::Outcome::kMasked);

  EXPECT_EQ(forked_runs.value() - forked_before, 3u);
  EXPECT_EQ(full_runs.value() - full_before, 3u);
  EXPECT_EQ(spliced_runs.value() - spliced_before, 2u);
  EXPECT_GT(run_wall.snapshot().sum_seconds, wall_before);
}

}  // namespace
}  // namespace drivefi
