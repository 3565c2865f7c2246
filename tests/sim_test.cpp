#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>

#include "sim/collision.h"
#include "sim/scenario.h"
#include "sim/world.h"
#include "util/rng.h"

namespace drivefi::sim {
namespace {

// ---------- Collision (SAT) ----------

TEST(Collision, OverlappingBoxes) {
  Obb a{0.0, 0.0, 0.0, 2.4, 0.95};
  Obb b{3.0, 0.0, 0.0, 2.4, 0.95};  // centers 3 m apart, half-lengths 2.4
  EXPECT_TRUE(obb_overlap(a, b));
}

TEST(Collision, SeparatedBoxes) {
  Obb a{0.0, 0.0, 0.0, 2.4, 0.95};
  Obb b{6.0, 0.0, 0.0, 2.4, 0.95};
  EXPECT_FALSE(obb_overlap(a, b));
}

TEST(Collision, LateralSeparation) {
  Obb a{0.0, 0.0, 0.0, 2.4, 0.95};
  Obb b{0.0, 2.0, 0.0, 2.4, 0.95};  // side by side, 2 m apart > 1.9 widths
  EXPECT_FALSE(obb_overlap(a, b));
}

TEST(Collision, RotationMatters) {
  // A rotated box can clip a neighbor an axis-aligned test would miss.
  Obb a{0.0, 0.0, 0.0, 2.4, 0.95};
  Obb b{0.0, 2.2, 0.0, 2.4, 0.95};
  EXPECT_FALSE(obb_overlap(a, b));
  b.heading = M_PI / 2.0;  // now its 2.4 half-length points at us
  EXPECT_TRUE(obb_overlap(a, b));
}

TEST(Collision, TouchingCorners) {
  Obb a{0.0, 0.0, 0.0, 1.0, 1.0};
  Obb b{1.9, 1.9, 0.0, 1.0, 1.0};
  EXPECT_TRUE(obb_overlap(a, b));
  b.cx = 2.1;
  b.cy = 2.1;
  EXPECT_FALSE(obb_overlap(a, b));
}

TEST(Collision, BroadPhaseNeverRulesOutAnOverlap) {
  // obb_may_overlap may say false only where the SAT says false. Seeded
  // pairs of rotated boxes: at random distances up to past the sum of the
  // circumradii, corner to corner around the distance where the corners
  // touch (overlaps, touching and near misses), side by side, and with one
  // non-finite input.
  util::Rng rng(20271);
  const auto random_box = [&rng] {
    return Obb{rng.uniform(-1e3, 1e3), rng.uniform(-50.0, 50.0),
               rng.uniform(-4.0, 4.0), rng.uniform(0.0, 3.0),
               rng.uniform(0.0, 1.5)};
  };
  const auto radius = [](const Obb& o) {
    return std::hypot(o.half_length, o.half_width);
  };
  std::size_t ruled_out = 0, sat_overlaps = 0, corner_overlaps = 0;
  std::size_t near_misses = 0, nonfinite_overlaps = 0, missed = 0;
  const auto check = [&](const Obb& a, const Obb& b) {
    const bool may = obb_may_overlap(a, b);
    const bool sat = obb_overlap(a, b);
    ruled_out += !may;
    sat_overlaps += sat;
    near_misses += may && !sat;
    if (sat && !may && missed++ == 0)
      ADD_FAILURE() << std::hexfloat << "ruled out an overlap: a {" << a.cx
                    << ", " << a.cy << ", " << a.heading << ", "
                    << a.half_length << ", " << a.half_width << "} b {" << b.cx
                    << ", " << b.cy << ", " << b.heading << ", "
                    << b.half_length << ", " << b.half_width << "}";
    return sat;
  };

  for (int i = 0; i < 100000; ++i) {
    const Obb a = random_box();
    Obb b = random_box();
    const double reach = radius(a) + radius(b);

    // Anywhere up to past the circles' reach.
    const double dir = rng.uniform(-M_PI, M_PI);
    const double d = reach * rng.uniform(0.0, 1.01);
    b.cx = a.cx + d * std::cos(dir);
    b.cy = a.cy + d * std::sin(dir);
    check(a, b);

    // Corner to corner: b's corner points back at a's along the line of
    // centres, so the boxes first touch at d = reach. The gap runs from
    // overlap through touching to just past the broad phase's margins.
    const double sa = rng.bernoulli(0.5) ? 1.0 : -1.0;
    const double sb = rng.bernoulli(0.5) ? 1.0 : -1.0;
    const double corner = a.heading + std::atan2(sa * a.half_width,
                                                 a.half_length);
    b.heading = corner + M_PI - std::atan2(sb * b.half_width, b.half_length);
    const double gaps[] = {-1e-3, -1e-9, 0.0, 1e-12, 1e-9, 1e-6, 1e-4,
                           1.0001e-3 * reach + 1e-6, 2e-3 * reach + 1e-6};
    for (const double gap : gaps) {
      b.cx = a.cx + (reach + gap) * std::cos(corner);
      b.cy = a.cy + (reach + gap) * std::sin(corner);
      corner_overlaps += check(a, b);
    }

    // Side by side at the same heading, touching along the long sides.
    b = a;
    const double lateral = 2.0 * a.half_width * rng.uniform(0.999, 1.001);
    b.cx = a.cx - lateral * std::sin(a.heading);
    b.cy = a.cy + lateral * std::cos(a.heading);
    check(a, b);

    // One non-finite input, far apart or close.
    const double bad[] = {std::numeric_limits<double>::quiet_NaN(),
                          std::numeric_limits<double>::infinity(),
                          -std::numeric_limits<double>::infinity()};
    Obb pair[2] = {a, random_box()};
    double* fields[] = {&pair[0].cx, &pair[0].cy, &pair[0].heading,
                        &pair[0].half_length, &pair[0].half_width,
                        &pair[1].cx, &pair[1].cy, &pair[1].heading,
                        &pair[1].half_length, &pair[1].half_width};
    *fields[rng.uniform_index(std::size(fields))] =
        bad[rng.uniform_index(std::size(bad))];
    nonfinite_overlaps += check(pair[0], pair[1]);
  }
  EXPECT_EQ(missed, 0u);
  // Every kind of pair occurred.
  EXPECT_GT(ruled_out, 50000u);
  EXPECT_GT(sat_overlaps, 100000u);
  EXPECT_GT(corner_overlaps, 100000u);
  EXPECT_GT(near_misses, 50000u);
  EXPECT_GT(nonfinite_overlaps, 10000u);
}

// ---------- World ----------

WorldConfig two_lane_world() {
  WorldConfig config;
  config.ego_lane = 1;
  config.ego_speed = 30.0;
  return config;
}

TEST(World, InitialEgoPlacement) {
  const World world(two_lane_world());
  EXPECT_DOUBLE_EQ(world.ego().y, 3.7);
  EXPECT_DOUBLE_EQ(world.ego().v, 30.0);
  EXPECT_EQ(world.ego_lane(), 1);
  EXPECT_FALSE(world.status().collided);
}

TEST(World, EgoAdvancesUnderActuation) {
  World world(two_lane_world());
  kinematics::Actuation act;
  act.throttle = 0.3;
  for (int i = 0; i < 120; ++i) world.step(act, 1.0 / 120.0);
  EXPECT_NEAR(world.time(), 1.0, 1e-9);
  EXPECT_GT(world.ego().x, 29.0);
}

TEST(World, TvCruisesAtScriptSpeed) {
  WorldConfig config = two_lane_world();
  TvConfig tv;
  tv.name = "lead";
  tv.initial_gap = 50.0;
  tv.initial_lane = 1;
  tv.initial_speed = 25.0;
  tv.phases.push_back({0.0, 25.0, 2.0, std::nullopt, 3.0});
  config.vehicles.push_back(tv);

  World world(config);
  kinematics::Actuation coast;
  for (int i = 0; i < 240; ++i) world.step(coast, 1.0 / 120.0);
  const auto& lead = world.vehicles()[0];
  EXPECT_NEAR(lead.v, 25.0, 1e-9);
  EXPECT_NEAR(lead.x, 50.0 + 25.0 * 2.0, 0.1);
}

TEST(World, TvLaneChangeReachesTargetLane) {
  WorldConfig config = two_lane_world();
  TvConfig tv;
  tv.name = "changer";
  tv.initial_gap = 40.0;
  tv.initial_lane = 1;
  tv.initial_speed = 28.0;
  tv.phases.push_back({0.0, 28.0, 2.0, std::nullopt, 3.0});
  tv.phases.push_back({1.0, 28.0, 2.0, 2, 2.0});
  config.vehicles.push_back(tv);

  World world(config);
  kinematics::Actuation coast;
  for (int i = 0; i < 120 * 5; ++i) world.step(coast, 1.0 / 120.0);
  EXPECT_NEAR(world.vehicles()[0].y, 7.4, 0.01);  // lane 2 center
}

TEST(World, TvSpeedRampsWithAccelLimit) {
  WorldConfig config = two_lane_world();
  TvConfig tv;
  tv.name = "braker";
  tv.initial_gap = 60.0;
  tv.initial_lane = 1;
  tv.initial_speed = 30.0;
  tv.phases.push_back({0.0, 30.0, 2.0, std::nullopt, 3.0});
  tv.phases.push_back({1.0, 10.0, 5.0, std::nullopt, 3.0});
  config.vehicles.push_back(tv);

  World world(config);
  kinematics::Actuation coast;
  for (int i = 0; i < 240; ++i) world.step(coast, 1.0 / 120.0);  // t = 2 s
  // After 1 s of braking at 5 m/s^2: v = 25.
  EXPECT_NEAR(world.vehicles()[0].v, 25.0, 0.1);
}

TEST(World, CollisionDetectedAndSticky) {
  WorldConfig config = two_lane_world();
  config.ego_speed = 30.0;
  TvConfig tv;
  tv.name = "wall";
  tv.initial_gap = 20.0;
  tv.initial_lane = 1;
  tv.initial_speed = 0.0;
  config.vehicles.push_back(tv);

  World world(config);
  kinematics::Actuation coast;
  bool collided = false;
  for (int i = 0; i < 120 * 3; ++i) {
    world.step(coast, 1.0 / 120.0);
    if (world.status().collided) {
      collided = true;
      break;
    }
  }
  EXPECT_TRUE(collided);
  ASSERT_TRUE(world.status().collided_with.has_value());
  EXPECT_EQ(*world.status().collided_with, 0u);
  // Sticky even if we keep stepping.
  world.step(coast, 1.0 / 120.0);
  EXPECT_TRUE(world.status().collided);
}

TEST(World, OffRoadDetection) {
  WorldConfig config = two_lane_world();
  World world(config);
  world.mutable_ego().y = 11.0;  // beyond lane 2's left edge (9.25)
  kinematics::Actuation coast;
  world.step(coast, 1.0 / 120.0);
  EXPECT_TRUE(world.status().off_road);
}

TEST(World, TrueSafetyPotentialSafeOnOpenRoad) {
  World world(two_lane_world());
  const auto sp = world.true_safety_potential();
  EXPECT_TRUE(sp.safe());
}

TEST(World, TrueSafetyPotentialUnsafeNearWall) {
  WorldConfig config = two_lane_world();
  TvConfig tv;
  tv.name = "wall";
  tv.initial_gap = 25.0;
  tv.initial_lane = 1;
  tv.initial_speed = 0.0;
  config.vehicles.push_back(tv);
  const World world(config);
  EXPECT_FALSE(world.true_safety_potential().safe());
}

// ---------- Scenarios ----------

TEST(Scenario, BaseSuiteIsNonTrivial) {
  const auto suite = base_suite();
  EXPECT_GE(suite.size(), 10u);
  for (const auto& s : suite) {
    EXPECT_FALSE(s.name.empty());
    EXPECT_GT(s.duration, 10.0);
    EXPECT_GT(scene_count(s, 7.5), 75u);
  }
}

TEST(Scenario, NamesAreUnique) {
  const auto suite = base_suite();
  for (std::size_t i = 0; i < suite.size(); ++i)
    for (std::size_t j = i + 1; j < suite.size(); ++j)
      EXPECT_NE(suite[i].name, suite[j].name);
}

TEST(Scenario, ParametricSuiteReachesTargetScenes) {
  const std::size_t target = 7200;
  const auto suite = parametric_suite(target, 7.5);
  std::size_t total = 0;
  for (const auto& s : suite) total += scene_count(s, 7.5);
  EXPECT_GE(total, target);
}

TEST(Scenario, SceneCountFloorsDurationTimesRate) {
  Scenario s;
  s.duration = 40.0;
  EXPECT_EQ(scene_count(s, 7.5), 300u);
  s.duration = 40.1;  // 300.75 frames -> floors to 300
  EXPECT_EQ(scene_count(s, 7.5), 300u);
  s.duration = 0.05;  // shorter than one frame period
  EXPECT_EQ(scene_count(s, 7.5), 0u);
}

TEST(Scenario, ParametricSuiteSceneAccountingIsExactAt7200) {
  // The paper's corpus size: the suite must reach the target, overshoot by
  // less than one scenario, and every listed scenario must contribute (no
  // padding after the target is met).
  const std::size_t target = 7200;
  const auto suite = parametric_suite(target, 7.5);
  std::size_t total = 0;
  std::size_t largest = 0;
  for (const auto& s : suite) {
    const std::size_t scenes = scene_count(s, 7.5);
    total += scenes;
    largest = std::max(largest, scenes);
  }
  EXPECT_GE(total, target);
  EXPECT_LT(total - scene_count(suite.back(), 7.5), target);
  EXPECT_LT(total, target + largest);
}

TEST(Scenario, ParametricSuiteIsDeterministicAcrossCalls) {
  EXPECT_EQ(parametric_suite(7200, 7.5), parametric_suite(7200, 7.5));
  // Variant names are unique across expansion rounds.
  const auto suite = parametric_suite(7200, 7.5);
  std::set<std::string> names;
  for (const auto& s : suite)
    EXPECT_TRUE(names.insert(s.name).second) << "duplicate " << s.name;
}

TEST(Scenario, ParametricSuiteHandlesTinyTargets) {
  EXPECT_TRUE(parametric_suite(0, 7.5).empty());
  // Target 1 scene: exactly one scenario (the first base scenario, which
  // alone contributes >= 1 scene).
  const auto one = parametric_suite(1, 7.5);
  ASSERT_EQ(one.size(), 1u);
  EXPECT_GE(scene_count(one[0], 7.5), 1u);
  EXPECT_EQ(one[0].name, base_suite()[0].name + "_v0");
}

TEST(Scenario, Example1HasLaneChangingLead) {
  const auto s = example1_lead_lane_change();
  ASSERT_GE(s.world.vehicles.size(), 1u);
  bool has_lane_change = false;
  for (const auto& phase : s.world.vehicles[0].phases)
    if (phase.target_lane) has_lane_change = true;
  EXPECT_TRUE(has_lane_change);
}

TEST(Scenario, Example2HasHiddenSlowVehicle) {
  const auto s = example2_tesla_reveal();
  ASSERT_EQ(s.world.vehicles.size(), 2u);
  // TV#2 is much slower than the ego and far ahead of the evading lead.
  EXPECT_LT(s.world.vehicles[1].initial_speed, s.world.ego_speed / 2.0);
  EXPECT_GT(s.world.vehicles[1].initial_gap,
            s.world.vehicles[0].initial_gap + 100.0);
}

// ---------- IDM car-following ----------

TEST(Idm, FreeRoadAcceleratesTowardDesiredSpeed) {
  IdmConfig config;
  EXPECT_GT(idm_accel(config, 20.0, -1.0, 0.0), 0.0);
  // At the desired speed the free-flow term cancels the drive term.
  EXPECT_NEAR(idm_accel(config, config.desired_speed, -1.0, 0.0), 0.0, 1e-9);
  // Above it, the model brakes.
  EXPECT_LT(idm_accel(config, config.desired_speed + 5.0, -1.0, 0.0), 0.0);
}

TEST(Idm, BrakesHardWhenGapCollapses) {
  IdmConfig config;
  const double a = idm_accel(config, 30.0, 5.0, 30.0);  // 5 m gap at speed
  EXPECT_LT(a, -config.comfort_decel);
}

TEST(Idm, DecelerationCappedAtHardLimit) {
  IdmConfig config;
  const double a = idm_accel(config, 35.0, 0.5, 0.0);  // near-collision
  EXPECT_GE(a, -config.hard_decel_cap);
}

TEST(Idm, EquilibriumGapIsStable) {
  // Follower behind a constant-speed leader converges to a fixed gap.
  IdmConfig config;
  config.desired_speed = 40.0;  // leader is the binding constraint
  const double lead_v = 25.0;
  double v = 20.0;
  double gap = 60.0;
  const double dt = 0.05;
  for (int i = 0; i < 4000; ++i) {
    const double a = idm_accel(config, v, gap, lead_v);
    v = std::max(0.0, v + a * dt);
    gap += (lead_v - v) * dt;
  }
  EXPECT_NEAR(v, lead_v, 0.2);
  // Exact IDM equilibrium: s* = (s0 + vT) / sqrt(1 - (v/v0)^delta).
  const double s_star =
      (config.min_gap + lead_v * config.time_headway) /
      std::sqrt(1.0 - std::pow(lead_v / config.desired_speed,
                               config.exponent));
  EXPECT_NEAR(gap, s_star, 1.0);
}

TEST(Idm, TighterHeadwayShrinksEquilibriumGap) {
  IdmConfig tight;
  tight.time_headway = 1.0;
  IdmConfig loose;
  loose.time_headway = 2.0;
  auto settle = [](const IdmConfig& config) {
    double v = 20.0;
    double gap = 50.0;
    for (int i = 0; i < 4000; ++i) {
      const double a = idm_accel(config, v, gap, 25.0);
      v = std::max(0.0, v + a * 0.05);
      gap += (25.0 - v) * 0.05;
    }
    return gap;
  };
  EXPECT_LT(settle(tight), settle(loose));
}

TEST(World, IdmVehicleFollowsScriptedLead) {
  WorldConfig config;
  config.ego_lane = 0;  // keep the ego out of lane 1
  config.ego_speed = 0.0;

  TvConfig lead;
  lead.name = "lead";
  lead.initial_gap = 120.0;
  lead.initial_lane = 1;
  lead.initial_speed = 20.0;
  lead.phases.push_back({0.0, 20.0, 2.0, std::nullopt, 3.0});

  TvConfig follower;
  follower.name = "follower";
  follower.initial_gap = 40.0;
  follower.initial_lane = 1;
  follower.initial_speed = 30.0;  // closing fast
  follower.idm = IdmConfig{};

  config.vehicles = {lead, follower};
  World world(config);
  for (int i = 0; i < 60 * 40; ++i) world.step({}, 1.0 / 60.0);

  const auto& tvs = world.vehicles();
  EXPECT_FALSE(world.status().collided);
  // The follower matched the lead's speed without passing through it.
  EXPECT_NEAR(tvs[1].v, 20.0, 1.0);
  EXPECT_LT(tvs[1].x, tvs[0].x);
}

TEST(World, IdmVehicleReactsToEgoAhead) {
  WorldConfig config;
  config.ego_lane = 1;
  config.ego_speed = 15.0;

  TvConfig chaser;
  chaser.name = "chaser";
  chaser.initial_gap = -35.0;  // starts behind the ego
  chaser.initial_lane = 1;
  chaser.initial_speed = 30.0;
  chaser.idm = IdmConfig{};

  config.vehicles = {chaser};
  World world(config);
  kinematics::Actuation coast;  // ego coasts down from 15 m/s
  for (int i = 0; i < 60 * 30; ++i) world.step(coast, 1.0 / 60.0);

  EXPECT_FALSE(world.status().collided);
  EXPECT_LT(world.vehicles()[0].x, world.ego().x);
}

}  // namespace
}  // namespace drivefi::sim
