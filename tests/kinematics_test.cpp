#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>

#include "kinematics/bicycle.h"
#include "kinematics/safety.h"
#include "kinematics/stopping.h"
#include "util/rng.h"

namespace drivefi::kinematics {
namespace {

// ---------- Bicycle model ----------

TEST(Bicycle, StraightLineAtConstantSpeed) {
  VehicleState s;
  s.v = 20.0;
  VehicleParams params;
  Actuation act;  // coast; drag decays speed slightly
  for (int i = 0; i < 100; ++i) s = step(s, act, params, 0.01);
  EXPECT_NEAR(s.y, 0.0, 1e-9);
  EXPECT_NEAR(s.theta, 0.0, 1e-9);
  EXPECT_GT(s.x, 19.0);  // ~1 s at ~20 m/s
  EXPECT_LT(s.v, 20.0);  // drag
}

TEST(Bicycle, ThrottleAccelerates) {
  VehicleState s;
  s.v = 10.0;
  VehicleParams params;
  Actuation act;
  act.throttle = 1.0;
  for (int i = 0; i < 100; ++i) s = step(s, act, params, 0.01);
  EXPECT_GT(s.v, 13.5);  // ~max_accel * 1s minus drag
}

TEST(Bicycle, BrakeStopsAndDoesNotReverse) {
  VehicleState s;
  s.v = 5.0;
  VehicleParams params;
  Actuation act;
  act.brake = 1.0;
  for (int i = 0; i < 500; ++i) s = step(s, act, params, 0.01);
  EXPECT_DOUBLE_EQ(s.v, 0.0);
}

TEST(Bicycle, SteeringCurvesPath) {
  VehicleState s;
  s.v = 10.0;
  s.phi = 0.1;  // pre-set steering to skip slew
  VehicleParams params;
  Actuation act;
  act.steering = 0.1;
  for (int i = 0; i < 200; ++i) s = step(s, act, params, 0.01);
  EXPECT_GT(s.theta, 0.05);
  EXPECT_GT(s.y, 0.1);
}

TEST(Bicycle, SteeringSlewLimit) {
  VehicleState s;
  s.v = 10.0;
  VehicleParams params;
  Actuation act;
  act.steering = params.max_steering;
  s = step(s, act, params, 0.01);
  EXPECT_NEAR(s.phi, params.steering_rate * 0.01, 1e-12);
}

TEST(Bicycle, SpeedClampedToMax) {
  VehicleState s;
  s.v = 44.9;
  VehicleParams params;
  Actuation act;
  act.throttle = 1.0;
  for (int i = 0; i < 1000; ++i) s = step(s, act, params, 0.01);
  EXPECT_LE(s.v, params.max_speed + 1e-9);
}

// RK4 convergence: halving dt should shrink error ~16x (4th order). We
// test against a fine-dt reference on a curved path.
TEST(Bicycle, Rk4ConvergenceOrder) {
  VehicleParams params;
  Actuation act;
  act.throttle = 0.5;
  act.steering = 0.2;

  auto simulate = [&](double dt) {
    VehicleState s;
    s.v = 15.0;
    s.phi = 0.2;
    const int steps = static_cast<int>(std::lround(2.0 / dt));
    for (int i = 0; i < steps; ++i) s = step(s, act, params, dt);
    return s;
  };

  const VehicleState ref = simulate(1e-5);
  const VehicleState coarse = simulate(0.02);
  const VehicleState fine = simulate(0.01);
  const double err_coarse = std::hypot(coarse.x - ref.x, coarse.y - ref.y);
  const double err_fine = std::hypot(fine.x - ref.x, fine.y - ref.y);
  // Some order-reduction is expected because phi/accel are held piecewise
  // constant; still expect clearly better than 2nd order (factor 4).
  EXPECT_LT(err_fine, err_coarse / 3.0);
}

// ---------- Stopping distance ----------

TEST(Stopping, MatchesClosedFormStraight) {
  for (double v0 : {5.0, 10.0, 20.0, 33.5, 40.0}) {
    const StoppingDistance d = stopping_distance(6.0, v0, 0.0, 0.0, 2.8);
    EXPECT_NEAR(d.longitudinal, stopping_distance_straight(6.0, v0),
                1e-4 * stopping_distance_straight(6.0, v0) + 1e-6)
        << "v0=" << v0;
    EXPECT_NEAR(d.lateral, 0.0, 1e-9);
    EXPECT_NEAR(d.stop_time, v0 / 6.0, 1e-12);
  }
}

TEST(Stopping, ZeroSpeedZeroDistance) {
  const StoppingDistance d = stopping_distance(6.0, 0.0, 0.0, 0.0, 2.8);
  EXPECT_DOUBLE_EQ(d.longitudinal, 0.0);
  EXPECT_DOUBLE_EQ(d.lateral, 0.0);
}

TEST(Stopping, SteeringProducesLateralComponent) {
  const StoppingDistance d = stopping_distance(6.0, 20.0, 0.0, 0.15, 2.8);
  // The lane-hold stop bounds the excursion, but the curvature transient
  // before the hold catches it still shows up laterally.
  EXPECT_GT(std::abs(d.lateral), 0.05);
  // Total displacement can't exceed the straight-line stopping distance.
  const double straight = stopping_distance_straight(6.0, 20.0);
  EXPECT_LT(std::hypot(d.longitudinal, d.lateral), straight + 1e-6);
  // The paper-pure frozen-steering variant keeps the full arc.
  const StoppingDistance frozen =
      stopping_distance(6.0, 20.0, 0.0, 0.15, 2.8, 5e-3, 0.0);
  EXPECT_GT(std::abs(frozen.lateral), std::abs(d.lateral));
}

TEST(Stopping, SignOfLateralFollowsSteering) {
  const StoppingDistance left = stopping_distance(6.0, 20.0, 0.0, 0.1, 2.8);
  const StoppingDistance right = stopping_distance(6.0, 20.0, 0.0, -0.1, 2.8);
  EXPECT_GT(left.lateral, 0.0);
  EXPECT_LT(right.lateral, 0.0);
  EXPECT_NEAR(left.lateral, -right.lateral, 1e-9);
}

TEST(Stopping, HeadingErrorProducesLateralDriftWhenFrozen) {
  // Paper-pure variant (frozen steering): a heading error theta0 drifts
  // laterally by ~sin(theta0) * straight-line stopping distance.
  const double theta0 = 0.02;
  const StoppingDistance frozen =
      stopping_distance(6.0, 30.0, theta0, 0.0, 2.8, 5e-3, 0.0);
  const double straight = stopping_distance_straight(6.0, 30.0);
  EXPECT_NEAR(frozen.lateral, std::sin(theta0) * straight, 0.01);
  EXPECT_NEAR(frozen.longitudinal, std::cos(theta0) * straight, 0.01);

  // The lane-hold stop corrects most of that drift.
  const StoppingDistance held = stopping_distance(6.0, 30.0, theta0, 0.0, 2.8);
  EXPECT_LT(std::abs(held.lateral), std::abs(frozen.lateral) / 2.0);
}

TEST(Stopping, SteeringReleaseBoundsLateralExcursion) {
  // A small steering correction must NOT produce a lane-width lateral
  // displacement once steering releases at the actuator rate -- the
  // degenerate sensitivity the frozen-steering variant suffers from.
  const StoppingDistance released =
      stopping_distance(6.0, 30.0, 0.0, 0.02, 2.8, 1e-3, 0.8);
  const StoppingDistance frozen =
      stopping_distance(6.0, 30.0, 0.0, 0.02, 2.8, 1e-3, 0.0);
  EXPECT_LT(std::abs(released.lateral), 0.5);
  EXPECT_GT(std::abs(frozen.lateral), 5.0);
}

// Reference copy of procedure P in its per-stage formulation: every RK4
// stage evaluates cos, sin and tan of its own heading and steering, and the
// friction cap phi_limit (an atan) at its own speed. The library carries
// cos/sin of the heading and tan of the steering from stage to stage and
// caps in tangent space instead, which changes only rounding; the sweep
// below bounds the difference. Every determinism check compares paths
// within one build, so only a fixed reference like this one catches a
// change to P that moves all paths alike.
namespace reference_p {

struct State {
  double x, y, theta, v, phi;
};

// Which of the library's special paths one call of the reference would
// take. Counting only; the numerics are untouched.
struct Coverage {
  bool heading_libm = false;   // a heading offset >= 1/16 rad (no series)
  bool cap_binds = false;      // a stage's |phi| exceeds its friction cap
  bool steer_beyond = false;   // a stage's |phi| >= 1.5 (no tangent cap)
};

double phi_limit(double v, double wheelbase, double lat_accel_budget) {
  if (v <= 1.0) return 1.0;
  return std::atan(lat_accel_budget * wheelbase / (v * v));
}

State deriv(const State& s, double amax, double wheelbase,
            double release_rate, double lane_hold_gain, Coverage* cov) {
  double dphi = 0.0;
  if (release_rate > 0.0) {
    const double target = std::clamp(-lane_hold_gain * s.theta, -0.55, 0.55);
    const double err = target - s.phi;
    if (err > 1e-12)
      dphi = release_rate;
    else if (err < -1e-12)
      dphi = -release_rate;
  }
  const double lat_budget = 0.7 * amax;
  const double phi_eff =
      std::clamp(s.phi, -phi_limit(s.v, wheelbase, lat_budget),
                 phi_limit(s.v, wheelbase, lat_budget));
  cov->cap_binds |= phi_eff != s.phi;
  cov->steer_beyond |= std::abs(s.phi) >= 1.5;
  return State{s.v * std::cos(s.theta), s.v * std::sin(s.theta),
               s.v * std::tan(phi_eff) / wheelbase, -amax, dphi};
}

State axpy(const State& s, const State& d, double h) {
  return State{s.x + h * d.x, s.y + h * d.y, s.theta + h * d.theta,
               s.v + h * d.v, s.phi + h * d.phi};
}

StoppingDistance stopping_distance(double amax, double v0, double theta0,
                                   double phi0, double wheelbase, double dt,
                                   double release_rate, Coverage* cov) {
  StoppingDistance out;
  if (!std::isfinite(v0) || !std::isfinite(theta0) || !std::isfinite(phi0) ||
      !std::isfinite(amax))
    return out;
  v0 = std::min(v0, 150.0);
  phi0 = std::clamp(phi0, -1.0, 1.0);
  if (v0 <= 0.0 || amax <= 0.0) return out;
  constexpr double kLaneHoldGain = 1.2;
  const auto off_series = [](double from, double to) {
    return std::abs(to - from) >= 1.0 / 16.0;
  };
  State s{0.0, 0.0, theta0, v0, phi0};
  double t = 0.0;
  const double t_stop = v0 / amax;
  while (t < t_stop) {
    const double h = std::min(dt, t_stop - t);
    const State k1 =
        deriv(s, amax, wheelbase, release_rate, kLaneHoldGain, cov);
    const State s2 = axpy(s, k1, 0.5 * h);
    const State k2 =
        deriv(s2, amax, wheelbase, release_rate, kLaneHoldGain, cov);
    const State s3 = axpy(s, k2, 0.5 * h);
    const State k3 =
        deriv(s3, amax, wheelbase, release_rate, kLaneHoldGain, cov);
    const State s4 = axpy(s, k3, h);
    const State k4 =
        deriv(s4, amax, wheelbase, release_rate, kLaneHoldGain, cov);
    const double theta_start = s.theta;
    s.x += h / 6.0 * (k1.x + 2.0 * k2.x + 2.0 * k3.x + k4.x);
    s.y += h / 6.0 * (k1.y + 2.0 * k2.y + 2.0 * k3.y + k4.y);
    s.theta += h / 6.0 * (k1.theta + 2.0 * k2.theta + 2.0 * k3.theta + k4.theta);
    s.phi += h / 6.0 * (k1.phi + 2.0 * k2.phi + 2.0 * k3.phi + k4.phi);
    s.v = std::max(0.0, s.v - amax * h);
    t += h;
    cov->heading_libm |= off_series(theta_start, s2.theta) ||
                         off_series(theta_start, s3.theta) ||
                         off_series(theta_start, s4.theta) ||
                         off_series(theta_start, s.theta);
  }
  out.longitudinal = s.x;
  out.lateral = s.y;
  out.stop_time = t_stop;
  return out;
}

}  // namespace reference_p

TEST(Stopping, WithinNanometreOfPerStageReferenceOnSeededSweep) {
  // P's evaluation may change rounding, not the method: both components
  // stay within 1e-9 m of the reference (seven orders of magnitude below
  // P's own ~4 cm discretization error at dt = 5 ms), and the stop time is
  // bit-identical.
  constexpr double kBound = 1e-9;
  util::Rng rng(20191);
  constexpr int kInputs = 100'000;
  constexpr int kSelectionInputs = 4'000;
  constexpr int kFastSlewInputs = 2'000;
  int slow_start = 0, partial_last_step = 0, frozen_steering = 0,
      clamped_steering = 0, heading_libm = 0, cap_binds = 0,
      steer_beyond = 0;
  double worst_lon = 0.0, worst_lat = 0.0;
  for (int i = 0; i < kInputs + kSelectionInputs + kFastSlewInputs; ++i) {
    double v0, amax, dt, wheelbase, theta0, phi0, release;
    if (i < kInputs) {
      // Mostly short stops (coarse dt, brisk amax) so 1e5 inputs run in
      // about two seconds; one input in sixteen keeps the default dt.
      v0 = rng.bernoulli(0.1) ? rng.uniform(-0.5, 1.0)
                              : rng.uniform(1.0, 25.0);
      amax = rng.uniform(2.0, 12.0);
      dt = rng.bernoulli(0.0625) ? 5e-3 : rng.uniform(0.01, 0.25);
      wheelbase = rng.uniform(1.5, 4.5);
      theta0 = rng.uniform(-0.5, 0.5);
      phi0 = rng.uniform(-1.2, 1.2);
      release = rng.bernoulli(0.25) ? 0.0 : rng.uniform(0.1, 2.0);
    } else if (i < kInputs + kSelectionInputs) {
      // Shaped like Bayesian selection's predicted states, where most P
      // calls happen: highway speeds, large heading and steering, and the
      // defaults for everything else.
      const VehicleParams params;
      v0 = rng.uniform(20.0, 35.0);
      amax = params.amax_comfort;
      dt = 5e-3;
      wheelbase = params.wheelbase;
      theta0 = rng.uniform(-0.9, 0.9);
      phi0 = rng.uniform(-0.6, 0.6);
      release = params.steering_rate;
    } else {
      // A slew fast enough to carry the steering past 1.5 rad, where the
      // friction cap no longer holds in tangent space.
      v0 = rng.uniform(0.5, 5.0);
      amax = rng.uniform(2.0, 12.0);
      dt = rng.uniform(0.01, 0.1);
      wheelbase = rng.uniform(1.5, 4.5);
      theta0 = rng.uniform(-0.5, 0.5);
      phi0 = rng.uniform(-1.0, 1.0);
      release = rng.uniform(10.0, 40.0);
    }

    reference_p::Coverage cov;
    const StoppingDistance got =
        stopping_distance(amax, v0, theta0, phi0, wheelbase, dt, release);
    const StoppingDistance want = reference_p::stopping_distance(
        amax, v0, theta0, phi0, wheelbase, dt, release, &cov);
    ASSERT_LE(std::abs(got.longitudinal - want.longitudinal), kBound)
        << "longitudinal, input " << i;
    ASSERT_LE(std::abs(got.lateral - want.lateral), kBound)
        << "lateral, input " << i;
    ASSERT_EQ(std::memcmp(&got.stop_time, &want.stop_time, sizeof(double)),
              0)
        << "stop_time, input " << i;
    worst_lon =
        std::max(worst_lon, std::abs(got.longitudinal - want.longitudinal));
    worst_lat = std::max(worst_lat, std::abs(got.lateral - want.lateral));

    slow_start += v0 <= 1.0;
    const double steps = v0 / amax / dt;
    partial_last_step += v0 > 0.0 && steps != std::floor(steps);
    frozen_steering += release == 0.0;
    clamped_steering +=
        v0 > 1.0 && std::abs(phi0) > reference_p::phi_limit(
                                         v0, wheelbase, 0.7 * amax);
    heading_libm += cov.heading_libm;
    cap_binds += cov.cap_binds;
    steer_beyond += cov.steer_beyond;
  }
  RecordProperty("worst_longitudinal_m", ::testing::PrintToString(worst_lon));
  RecordProperty("worst_lateral_m", ::testing::PrintToString(worst_lat));
  RecordProperty("heading_libm", heading_libm);
  RecordProperty("cap_binds", cap_binds);
  RecordProperty("steer_beyond", steer_beyond);
  // Each code path the library's evaluation could get wrong was exercised.
  EXPECT_GT(slow_start, kInputs / 20);
  EXPECT_GT(partial_last_step, kInputs / 2);
  EXPECT_GT(frozen_steering, kInputs / 8);
  EXPECT_GT(clamped_steering, kInputs / 4);
  EXPECT_GT(heading_libm, kInputs / 100);
  EXPECT_GT(cap_binds, kInputs / 4);
  EXPECT_GT(steer_beyond, kFastSlewInputs / 4);
}

// Parameterized sweep: dstop is monotonically increasing in v0 and
// decreasing in amax.
class StoppingSweep : public ::testing::TestWithParam<double> {};

TEST_P(StoppingSweep, MonotoneInSpeed) {
  const double phi = GetParam();
  double prev = -1.0;
  for (double v0 = 5.0; v0 <= 40.0; v0 += 5.0) {
    const StoppingDistance d = stopping_distance(6.0, v0, 0.0, phi, 2.8);
    EXPECT_GT(d.longitudinal, prev);
    prev = d.longitudinal;
  }
}

TEST_P(StoppingSweep, MonotoneInDeceleration) {
  const double phi = GetParam();
  double prev = 1e18;
  for (double amax = 2.0; amax <= 10.0; amax += 2.0) {
    const StoppingDistance d = stopping_distance(amax, 30.0, 0.0, phi, 2.8);
    EXPECT_LT(d.longitudinal, prev);
    prev = d.longitudinal;
  }
}

INSTANTIATE_TEST_SUITE_P(SteeringAngles, StoppingSweep,
                         ::testing::Values(0.0, 0.05, 0.1, 0.2, -0.1));

// ---------- Friction-limited steering ----------

// At any speed, the yaw dynamics under a full-lock command must respect
// the lateral-acceleration cap: |v * dtheta/dt| <= max_lateral_accel.
class FrictionCapSweep : public ::testing::TestWithParam<double> {};

TEST_P(FrictionCapSweep, LateralAccelerationBounded) {
  const double speed = GetParam();
  VehicleParams params;
  VehicleState s;
  s.v = speed;
  s.phi = params.max_steering;  // start at full lock
  Actuation act;
  act.steering = params.max_steering;
  act.throttle = 0.3;

  const double dt = 1.0 / 120.0;
  for (int i = 0; i < 240; ++i) {
    const VehicleState next = step(s, act, params, dt);
    const double yaw_rate = (next.theta - s.theta) / dt;
    EXPECT_LE(std::abs(next.v * yaw_rate),
              params.max_lateral_accel * 1.05)
        << "v=" << next.v;
    s = next;
  }
}

TEST_P(FrictionCapSweep, LowSpeedKeepsMechanicalAuthority) {
  // Below ~sqrt(a_lat L / tan(phi_max)) the mechanical limit binds, so a
  // parking-speed car can still articulate fully.
  const double speed = GetParam();
  VehicleParams params;
  if (speed > 5.0) GTEST_SKIP() << "only meaningful at parking speeds";
  VehicleState s;
  s.v = speed;
  s.phi = params.max_steering;
  Actuation act;
  act.steering = params.max_steering;
  const VehicleState next = step(s, act, params, 0.01);
  // Turning at full articulation: yaw rate matches tan(phi_max).
  const double expect_rate = speed * std::tan(params.max_steering) /
                             params.wheelbase;
  EXPECT_NEAR((next.theta - s.theta) / 0.01, expect_rate,
              0.2 * expect_rate + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Speeds, FrictionCapSweep,
                         ::testing::Values(2.0, 5.0, 10.0, 20.0, 30.0, 40.0));

// ---------- Safety envelope / potential ----------

TEST(Safety, OpenRoadEnvelopeIsHorizon) {
  VehicleState ev;
  ev.y = 0.0;
  ev.v = 30.0;
  VehicleParams params;
  SafetyConfig config;
  const SafetyEnvelope env = safety_envelope(ev, params, {}, 0.0, config);
  EXPECT_DOUBLE_EQ(env.d_safe_lon, config.horizon);
  EXPECT_FALSE(env.limiting_obstacle.has_value());
}

TEST(Safety, StoppedLeadLimitsEnvelope) {
  VehicleState ev;
  ev.v = 20.0;
  VehicleParams params;
  ObstacleView lead;
  lead.x = 50.0;
  lead.v = 0.0;
  const SafetyEnvelope env = safety_envelope(ev, params, {lead}, 0.0);
  ASSERT_TRUE(env.limiting_obstacle.has_value());
  // gap = 50 - (4.8+4.8)/2 - standstill 2 = 43.2; no trajectory credit.
  EXPECT_NEAR(env.d_safe_lon, 43.2, 1e-9);
}

TEST(Safety, MovingLeadGetsTrajectoryCredit) {
  VehicleState ev;
  ev.v = 30.0;
  VehicleParams params;
  ObstacleView lead;
  lead.x = 50.0;
  lead.v = 25.0;
  SafetyConfig config;
  const SafetyEnvelope env = safety_envelope(ev, params, {lead}, 0.0, config);
  const double expected_credit = 25.0 * 25.0 / (2.0 * config.obstacle_amax);
  EXPECT_NEAR(env.d_safe_lon, 43.2 + expected_credit, 1e-9);
}

TEST(Safety, AdjacentLaneVehicleDoesNotLimitLongitudinal) {
  VehicleState ev;
  ev.v = 30.0;
  VehicleParams params;
  ObstacleView neighbor;
  neighbor.x = 50.0;
  neighbor.y = 3.7;  // one lane over
  neighbor.v = 30.0;
  SafetyConfig config;
  const SafetyEnvelope env =
      safety_envelope(ev, params, {neighbor}, 0.0, config);
  EXPECT_DOUBLE_EQ(env.d_safe_lon, config.horizon);
}

TEST(Safety, AbeamVehicleLimitsLateral) {
  VehicleState ev;
  ev.v = 30.0;
  VehicleParams params;
  ObstacleView neighbor;
  neighbor.x = 0.0;  // right beside us
  neighbor.y = 2.5;
  neighbor.v = 30.0;
  const SafetyEnvelope env = safety_envelope(ev, params, {neighbor}, 0.0);
  // side gap = 2.5 - 0.95 - 0.95 = 0.6 < lane margin.
  EXPECT_NEAR(env.d_safe_lat, 0.6, 1e-9);
}

TEST(Safety, LaneOffsetShrinksLateralMargin) {
  VehicleState ev;
  ev.y = 1.0;  // off center
  VehicleParams params;
  const SafetyEnvelope centered = safety_envelope({}, params, {}, 0.0);
  const SafetyEnvelope offset = safety_envelope(ev, params, {}, 0.0);
  EXPECT_LT(offset.d_safe_lat, centered.d_safe_lat);
}

TEST(Safety, PotentialCombinesEnvelopeAndStopping) {
  SafetyEnvelope env;
  env.d_safe_lon = 100.0;
  env.d_safe_lat = 1.0;
  StoppingDistance dstop;
  dstop.longitudinal = 75.0;
  dstop.lateral = -0.4;
  const SafetyPotential sp = safety_potential(env, dstop);
  EXPECT_DOUBLE_EQ(sp.longitudinal, 25.0);
  EXPECT_DOUBLE_EQ(sp.lateral, 0.6);
  EXPECT_TRUE(sp.safe());
}

TEST(Safety, UnsafeWhenStoppingExceedsEnvelope) {
  VehicleState ev;
  ev.v = 33.5;
  VehicleParams params;
  ObstacleView lead;
  lead.x = 30.0;  // way too close for 33.5 m/s
  lead.v = 0.0;
  const SafetyPotential sp =
      compute_safety_potential(ev, params, {lead}, 0.0);
  EXPECT_LT(sp.longitudinal, 0.0);
  EXPECT_FALSE(sp.safe());
}

TEST(Safety, FastFollowingOfMovingLeadIsSafe) {
  // Standard highway following at 1.8 s headway must be safe thanks to
  // the lead's trajectory credit.
  VehicleState ev;
  ev.v = 30.0;
  VehicleParams params;
  ObstacleView lead;
  lead.x = 5.0 + 1.8 * 30.0;  // standstill + headway gap
  lead.v = 30.0;
  const SafetyPotential sp =
      compute_safety_potential(ev, params, {lead}, 0.0);
  EXPECT_GT(sp.longitudinal, 0.0) << "headway following must be safe";
}

}  // namespace
}  // namespace drivefi::kinematics
