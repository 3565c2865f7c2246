#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <vector>

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

// The bicycle step as it was before it computed tan(phi) once per step:
// each RK4 stage takes atan of the friction cap and tan of the capped
// angle. `stages` receives, per stage, the stage speed and the cap (NaN
// when v <= 1 and no cap applies).
struct StageView {
  double v = 0.0;
  double limit = 0.0;
};

double reference_accel(double v, double throttle, double brake,
                       const VehicleParams& params) {
  double accel = throttle * params.max_accel - brake * params.max_brake_decel -
                 0.0008 * v * v;
  if (v <= 0.0 && accel < 0.0) accel = 0.0;
  return accel;
}

struct ReferenceDeriv {
  double dx, dy, dtheta, dv;
};

ReferenceDeriv reference_derivatives(double theta, double v, double phi,
                                     double throttle, double brake,
                                     const VehicleParams& params,
                                     StageView* stage) {
  double phi_eff = phi;
  stage->v = v;
  stage->limit = std::nan("");
  if (!(v <= 1.0)) {
    const double tan_limit =
        params.max_lateral_accel * params.wheelbase / (v * v);
    const double limit = std::atan(tan_limit);
    stage->limit = limit;
    phi_eff = std::clamp(phi, -limit, limit);
  }
  return ReferenceDeriv{
      v * std::cos(theta),
      v * std::sin(theta),
      v * std::tan(phi_eff) / params.wheelbase,
      reference_accel(v, throttle, brake, params),
  };
}

VehicleState reference_step(const VehicleState& state, const Actuation& act,
                            const VehicleParams& params, double dt,
                            std::array<StageView, 4>* stages) {
  VehicleState s = state;
  const double target_phi =
      std::clamp(act.steering, -params.max_steering, params.max_steering);
  const double max_dphi = params.steering_rate * dt;
  s.phi += std::clamp(target_phi - s.phi, -max_dphi, max_dphi);

  const double throttle = std::clamp(act.throttle, 0.0, 1.0);
  const double brake = std::clamp(act.brake, 0.0, 1.0);

  const ReferenceDeriv k1 = reference_derivatives(
      s.theta, s.v, s.phi, throttle, brake, params, &(*stages)[0]);
  const ReferenceDeriv k2 = reference_derivatives(
      s.theta + 0.5 * dt * k1.dtheta, std::max(0.0, s.v + 0.5 * dt * k1.dv),
      s.phi, throttle, brake, params, &(*stages)[1]);
  const ReferenceDeriv k3 = reference_derivatives(
      s.theta + 0.5 * dt * k2.dtheta, std::max(0.0, s.v + 0.5 * dt * k2.dv),
      s.phi, throttle, brake, params, &(*stages)[2]);
  const ReferenceDeriv k4 = reference_derivatives(
      s.theta + dt * k3.dtheta, std::max(0.0, s.v + dt * k3.dv), s.phi,
      throttle, brake, params, &(*stages)[3]);

  s.x += dt / 6.0 * (k1.dx + 2.0 * k2.dx + 2.0 * k3.dx + k4.dx);
  s.y += dt / 6.0 * (k1.dy + 2.0 * k2.dy + 2.0 * k3.dy + k4.dy);
  s.theta += dt / 6.0 * (k1.dtheta + 2.0 * k2.dtheta + 2.0 * k3.dtheta + k4.dtheta);
  s.v += dt / 6.0 * (k1.dv + 2.0 * k2.dv + 2.0 * k3.dv + k4.dv);
  s.v = std::clamp(s.v, 0.0, params.max_speed);
  s.a = reference_accel(s.v, throttle, brake, params);
  return s;
}

// step() takes tan(phi) once per step and skips the cap's atan unless
// |phi| may reach it. Every bit of its result must equal the per-stage
// reference's, so the sweep aims at the edges of that shortcut: phi
// within a hair of the cap, stages that straddle it or v = 1, the special
// values of phi, and vehicle parameters a `.scn` file may set.
TEST(Bicycle, StepMatchesPerStageReferenceBitForBitOnSeededSweep) {
  util::Rng rng(20260);
  constexpr int kInputs = 100'000;
  int partial_cap = 0;   // the cap binds in some stages but not all
  int near_cap = 0;      // |phi| within 1e-6 relative of a stage's cap
  int low_speed = 0;     // some stage at v <= 1
  int crossing_one = 0;  // stages on both sides of v = 1
  int scn_extremes = 0;  // vehicle parameters far from the defaults
  int pos_zero = 0, neg_zero = 0, pos_inf = 0, neg_inf = 0, nan_phi = 0;
  for (int i = 0; i < kInputs; ++i) {
    VehicleParams params;
    if (rng.bernoulli(0.3)) {
      ++scn_extremes;
      params.wheelbase = std::exp(rng.uniform(std::log(0.05), std::log(50.0)));
      params.max_accel = rng.uniform(0.0, 30.0);
      params.max_brake_decel = rng.uniform(0.0, 30.0);
      params.max_steering = rng.uniform(0.0, 1.5);
      params.max_speed = rng.uniform(0.0, 150.0);
      params.steering_rate = rng.uniform(0.0, 20.0);
      switch (rng.uniform_int(0, 3)) {
        case 0: params.max_lateral_accel = 0.0; break;
        case 1: params.max_lateral_accel =
            std::exp(rng.uniform(std::log(1e-12), std::log(1e-3))); break;
        case 2: params.max_lateral_accel =
            std::exp(rng.uniform(std::log(1e3), std::log(1e12))); break;
        default: params.max_lateral_accel = rng.uniform(0.0, 30.0);
      }
    }
    const double dt = rng.bernoulli(0.8) ? 1.0 / 120.0 : rng.uniform(1e-4, 0.1);

    VehicleState s;
    s.x = rng.uniform(-100.0, 2000.0);
    s.y = rng.uniform(-5.0, 12.0);
    s.theta = rng.uniform(-3.2, 3.2);
    s.a = rng.uniform(-10.0, 10.0);
    s.v = rng.bernoulli(0.15) ? rng.uniform(0.8, 1.2)
                              : rng.uniform(0.0, std::max(params.max_speed, 2.0));
    Actuation act;
    act.throttle = rng.uniform(-0.5, 1.5);
    act.brake = rng.bernoulli(0.5) ? 0.0 : rng.uniform(-0.5, 1.5);

    const int mode = rng.uniform_int(0, 9);
    if (mode <= 4 && s.v > 1.0) {
      // phi near the cap at the first stage's speed, held there by a
      // matching command; the spread runs from 1e-12 to 1e-2 relative.
      const double cap = std::atan(params.max_lateral_accel *
                                   params.wheelbase / (s.v * s.v));
      const double rel = std::exp(rng.uniform(std::log(1e-12), std::log(1e-2)));
      s.phi = cap * (1.0 + (rng.bernoulli(0.5) ? rel : -rel));
      if (rng.bernoulli(0.5)) s.phi = -s.phi;
      act.steering = s.phi;
      params.max_steering = std::max(params.max_steering, std::abs(s.phi));
    } else if (mode == 5) {
      // A frozen actuator (slew rate 0) keeps a special phi through the
      // slew limit; -0.0 survives it only under a negative command.
      params.steering_rate = 0.0;
      const double special[] = {0.0, -0.0, HUGE_VAL, -HUGE_VAL,
                                std::nan("")};
      s.phi = special[rng.uniform_int(0, 4)];
      act.steering = rng.uniform(-1.0, -0.01);
    } else {
      s.phi = rng.uniform(-1.5, 1.5);
      act.steering = rng.uniform(-2.0, 2.0);
    }

    std::array<StageView, 4> stages;
    const VehicleState want = reference_step(s, act, params, dt, &stages);
    const VehicleState got = step(s, act, params, dt);
    ASSERT_EQ(std::memcmp(&got, &want, sizeof(VehicleState)), 0)
        << "input " << i << ": v " << s.v << " phi " << s.phi << " steering "
        << act.steering << " dt " << dt;

    const double phi = want.phi;
    if (phi == 0.0) (std::signbit(phi) ? neg_zero : pos_zero) += 1;
    if (std::isinf(phi)) (phi > 0.0 ? pos_inf : neg_inf) += 1;
    if (std::isnan(phi)) ++nan_phi;
    int capped = 0, slow = 0, near = 0;
    for (const StageView& stage : stages) {
      if (std::isnan(stage.limit)) {
        ++slow;
        continue;
      }
      if (phi < -stage.limit || phi > stage.limit) ++capped;
      if (std::abs(std::abs(phi) - stage.limit) <= 1e-6 * stage.limit) ++near;
    }
    if (capped > 0 && capped < 4) ++partial_cap;
    if (near > 0) ++near_cap;
    if (slow > 0) ++low_speed;
    if (slow > 0 && slow < 4) ++crossing_one;
  }
  RecordProperty("partial_cap", partial_cap);
  RecordProperty("near_cap", near_cap);
  RecordProperty("low_speed", low_speed);
  RecordProperty("crossing_one", crossing_one);
  RecordProperty("scn_extremes", scn_extremes);
  RecordProperty("special_phi", pos_zero + neg_zero + pos_inf + neg_inf +
                                    nan_phi);
  EXPECT_GT(partial_cap, 1000);
  EXPECT_GT(near_cap, 10'000);
  EXPECT_GT(low_speed, 2'000);
  EXPECT_GT(crossing_one, 1000);
  EXPECT_GT(scn_extremes, 20'000);
  for (int count : {pos_zero, neg_zero, pos_inf, neg_inf, nan_phi})
    EXPECT_GT(count, 500);
}

// ---------- Stopping distance ----------

TEST(Stopping, MatchesClosedFormStraight) {
  // A straight stop is one closed-form segment, sliding or frozen, so it is
  // v0^2 / (2 amax) to the bit.
  for (double v0 : {0.5, 1.0, 5.0, 10.0, 20.0, 33.5, 40.0, 150.0}) {
    for (double release : {0.8, 0.0}) {
      const StoppingDistance d =
          stopping_distance(6.0, v0, 0.0, 0.0, 2.8, release);
      EXPECT_EQ(d.longitudinal, stopping_distance_straight(6.0, v0))
          << "v0=" << v0 << " release=" << release;
      EXPECT_EQ(d.lateral, 0.0);
      EXPECT_EQ(d.stop_time, v0 / 6.0);
    }
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
      stopping_distance(6.0, 20.0, 0.0, 0.15, 2.8, 0.0);
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
      stopping_distance(6.0, 30.0, theta0, 0.0, 2.8, 0.0);
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
      stopping_distance(6.0, 30.0, 0.0, 0.02, 2.8, 0.8);
  const StoppingDistance frozen =
      stopping_distance(6.0, 30.0, 0.0, 0.02, 2.8, 0.0);
  EXPECT_LT(std::abs(released.lateral), 0.5);
  EXPECT_GT(std::abs(frozen.lateral), 5.0);
}

// ---------- P's closed-form segments ----------

// Fine fixed-step RK4 of each closed-form segment's own ODE, in the
// variable the segment runs on. Position and heading accumulate in long
// double, so that summing up to ~10^5 steps of an 11 km path keeps its
// rounding well below the 1e-9 m bound.
namespace segment_reference {

using Real = long double;

struct Rates {
  double x, y, theta;
};

// RK4 of (x, y, theta) from u0 to u1 in `steps` equal steps, where
// rate(u, theta) gives the derivatives.
template <class Rate>
StopPose rk4(const StopPose& p, double u0, double u1, long steps,
             const Rate& rate) {
  Real x = p.x, y = p.y, theta = p.theta;
  const Real h = (static_cast<Real>(u1) - u0) / steps;
  for (long i = 0; i < steps; ++i) {
    const Real u = u0 + h * i;
    const auto at = [&](Real du, Real th) {
      return rate(static_cast<double>(u + du), static_cast<double>(th));
    };
    const Rates k1 = at(0, theta);
    const Rates k2 = at(h / 2, theta + h / 2 * k1.theta);
    const Rates k3 = at(h / 2, theta + h / 2 * k2.theta);
    const Rates k4 = at(h, theta + h * k3.theta);
    x += h / 6 * (Real(k1.x) + 2 * Real(k2.x) + 2 * Real(k3.x) + k4.x);
    y += h / 6 * (Real(k1.y) + 2 * Real(k2.y) + 2 * Real(k3.y) + k4.y);
    theta += h / 6 * (Real(k1.theta) + 2 * Real(k2.theta) +
                      2 * Real(k3.theta) + k4.theta);
  }
  return StopPose{static_cast<double>(x), static_cast<double>(y),
                  static_cast<double>(theta)};
}

// Sliding on -1.2 theta, in arc length s: dtheta/ds = -tan(1.2 theta) / L,
// over the path v^2 / (2 amax), 2 mm steps per metre of wheelbase. Once
// |theta| < 1e-18 rad, the rest of the path adds its length to x and under
// 1e-17 m to y, so the integration stops there.
StopPose slide_to_stop(const StopPose& p, double v, double amax,
                       double wheelbase) {
  const double path = v * v / (2.0 * amax);
  const auto rate = [&](double, double theta) {
    return Rates{std::cos(theta), std::sin(theta),
                 -std::tan(1.2 * theta) / wheelbase};
  };
  constexpr double kChunk = 1.0;  // m, between tests of |theta|
  const double ds = 2e-3 * wheelbase;
  StopPose q = p;
  double s = 0.0;
  while (s < path && std::abs(q.theta) >= 1e-18) {
    const double next = std::min(path, s + kChunk);
    q = rk4(q, s, next,
            std::max(1L, std::lround(std::ceil((next - s) / ds))), rate);
    s = next;
  }
  q.x += path - s;
  return q;
}

// Under the cap, in time: v = va - amax t and the applied steering is
// sign * atan(0.7 amax L / v^2), so theta moves by at most 1e-3 rad a step.
StopPose capped_arc(const StopPose& p, double va, double vb, double amax,
                    int sign) {
  const double wheelbase = 2.0;  // cancels out of the yaw rate
  const auto rate = [&](double t, double theta) {
    const double v = va - amax * t;
    const double steer = sign * std::atan(0.7 * amax * wheelbase / (v * v));
    return Rates{v * std::cos(theta), v * std::sin(theta),
                 v * std::tan(steer) / wheelbase};
  };
  const double duration = (va - vb) / amax;
  const double dt = std::min(1e-3, 1e-3 * vb / (0.7 * amax));
  return rk4(p, 0.0, duration,
             std::max(1L, std::lround(std::ceil(duration / dt))), rate);
}

// Held steering, in arc length s: dtheta/ds = tan(phi) / L, with the
// heading turning by at most 1e-3 rad a step and steps of at most 1 m.
StopPose held_arc(const StopPose& p, double s, double phi, double wheelbase) {
  const double curvature = std::tan(phi) / wheelbase;
  const auto rate = [&](double, double theta) {
    return Rates{std::cos(theta), std::sin(theta), curvature};
  };
  const double ds = std::min(1.0, 1e-3 / std::max(1e-300, std::abs(curvature)));
  return rk4(p, 0.0, s, std::max(1L, std::lround(std::ceil(s / ds))), rate);
}

}  // namespace segment_reference

constexpr double kSegmentBound = 1e-9;  // m
constexpr double kClampHeading = 0.55 / 1.2;

void expect_same_position(const StopPose& got, const StopPose& want,
                          int input) {
  EXPECT_NEAR(got.x, want.x, kSegmentBound) << "x, input " << input;
  EXPECT_NEAR(got.y, want.y, kSegmentBound) << "y, input " << input;
}

TEST(StopSegments, SlideToStopMatchesItsOdeOnSeededSweep) {
  // Gauss-Legendre over w = exp(-1.2 s / L). The sweep reaches the
  // clamp's heading, speeds at and below 1 m/s, the deceleration floor, and
  // the longest stop P runs, 150 m/s at 1 m/s^2: 11,250 m, where
  // exp(-1.2 S / L) underflows to 0.
  struct Input {
    double v, amax, wheelbase, theta;
  };
  std::vector<Input> inputs = {
      {150.0, kMinStopDecel, 1.0, kClampHeading},
      {150.0, kMinStopDecel, 5.0, -kClampHeading},
      {33.5, 6.0, 2.8, kClampHeading},
      {1.0, kMinStopDecel, 2.8, -kClampHeading},
      {1.0, 6.0, 2.8, 0.3},
      {0.5, 6.0, 2.8, 0.2},
      {0.0, 6.0, 2.8, 0.2},
      {27.0, 6.0, 2.8, 1e-12},
  };
  util::Rng rng(31);
  for (int i = 0; i < 40; ++i)
    inputs.push_back({rng.bernoulli(0.2) ? rng.uniform(0.0, 1.0)
                                         : rng.uniform(1.0, 60.0),
                      rng.uniform(kMinStopDecel, 15.0), rng.uniform(1.0, 5.0),
                      rng.uniform(-kClampHeading, kClampHeading)});
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const Input& in = inputs[i];
    const StopPose start{rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0),
                         in.theta};
    expect_same_position(
        slide_to_stop(start, in.v, in.amax, in.wheelbase),
        segment_reference::slide_to_stop(start, in.v, in.amax, in.wheelbase),
        static_cast<int>(i));
  }
}

TEST(StopSegments, CappedArcMatchesItsOdeOnSeededSweep) {
  // theta = theta_a - 0.7 sign ln(v / va), with x and y from the
  // antiderivatives of v cos(theta) and v sin(theta). The sweep reaches
  // the speed clamp, the deceleration floor, and ends at and below 1 m/s.
  struct Input {
    double va, vb, amax, theta;
    int sign;
  };
  std::vector<Input> inputs = {
      {150.0, 1.0, kMinStopDecel, 0.8, -1},
      {150.0, 1.0, 15.0, -0.3, 1},
      {150.0, 149.9999, kMinStopDecel, 0.1, 1},
      {27.0, 1.0, 6.0, kClampHeading, -1},
      {4.0, 0.5, 6.0, -kClampHeading, 1},
      {27.0, 26.0, 6.0, 0.0, 1},
  };
  util::Rng rng(37);
  for (int i = 0; i < 30; ++i) {
    const double va = rng.uniform(1.0, 60.0);
    inputs.push_back({va, rng.uniform(1.0, va), rng.uniform(kMinStopDecel, 15.0),
                      rng.uniform(-1.5, 1.5), rng.bernoulli(0.5) ? 1 : -1});
  }
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const Input& in = inputs[i];
    const StopPose start{rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0),
                         in.theta};
    const StopPose got = capped_arc(start, in.va, in.vb, in.amax, in.sign);
    const StopPose want =
        segment_reference::capped_arc(start, in.va, in.vb, in.amax, in.sign);
    expect_same_position(got, want, static_cast<int>(i));
    EXPECT_NEAR(got.theta, want.theta, 1e-12) << "theta, input " << i;
  }
}

TEST(StopSegments, HeldArcMatchesItsOdeOnSeededSweep) {
  // The heading turns linearly in arc length: frozen steering at any angle
  // P accepts, and a slide held on the command's +-0.55 rad clamp.
  struct Input {
    double s, phi, wheelbase, theta;
  };
  std::vector<Input> inputs = {
      {11'250.0, 0.0, 2.8, 0.3},        {11'250.0, 1e-4, 5.0, -0.02},
      {300.0, 1.0, 1.0, 0.0},           {93.5, 0.55, 2.8, -1.0},
      {93.5, -0.55, 2.8, 1.0},          {0.0, 0.3, 2.8, 0.1},
      {1e-9, -1.0, 1.0, 0.4},
  };
  util::Rng rng(41);
  for (int i = 0; i < 30; ++i)
    inputs.push_back({rng.uniform(0.0, 200.0), rng.uniform(-1.0, 1.0),
                      rng.uniform(1.0, 5.0), rng.uniform(-1.5, 1.5)});
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const Input& in = inputs[i];
    const StopPose start{rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0),
                         in.theta};
    const StopPose got = held_arc(start, in.s, in.phi, in.wheelbase);
    const StopPose want =
        segment_reference::held_arc(start, in.s, in.phi, in.wheelbase);
    expect_same_position(got, want, static_cast<int>(i));
    EXPECT_NEAR(got.theta, want.theta, 1e-9) << "theta, input " << i;
  }
}

// Reference copy of procedure P in its per-stage formulation: fixed RK4
// steps in which every stage slews the steering at the full rate toward the
// lane-hold command (bang-bang, with a 1e-12 rad deadband) and evaluates its
// own friction cap. At fine steps the slew chatters about the command, and
// as dt -> 0 it converges to the sliding solution the library solves
// segment by segment; the sweep below bounds the difference. Every
// determinism check compares paths within one build, so only a fixed
// reference like this one catches a change to P that moves all paths alike.
namespace reference_p {

struct State {
  double x, y, theta, v, phi;
};

double phi_limit(double v, double wheelbase, double lat_accel_budget) {
  if (v <= 1.0) return 1.0;
  return std::atan(lat_accel_budget * wheelbase / (v * v));
}

State deriv(const State& s, double amax, double wheelbase,
            double release_rate, double lane_hold_gain) {
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
  return State{s.v * std::cos(s.theta), s.v * std::sin(s.theta),
               s.v * std::tan(phi_eff) / wheelbase, -amax, dphi};
}

State axpy(const State& s, const State& d, double h) {
  return State{s.x + h * d.x, s.y + h * d.y, s.theta + h * d.theta,
               s.v + h * d.v, s.phi + h * d.phi};
}

StoppingDistance stopping_distance(double amax, double v0, double theta0,
                                   double phi0, double wheelbase, double dt,
                                   double release_rate) {
  StoppingDistance out;
  if (!std::isfinite(v0) || !std::isfinite(theta0) || !std::isfinite(phi0) ||
      !std::isfinite(amax))
    return out;
  v0 = std::min(v0, 150.0);
  phi0 = std::clamp(phi0, -1.0, 1.0);
  if (v0 <= 0.0 || amax <= 0.0) return out;
  constexpr double kLaneHoldGain = 1.2;
  State s{0.0, 0.0, theta0, v0, phi0};
  double t = 0.0;
  const double t_stop = v0 / amax;
  while (t < t_stop) {
    const double h = std::min(dt, t_stop - t);
    const State k1 = deriv(s, amax, wheelbase, release_rate, kLaneHoldGain);
    const State s2 = axpy(s, k1, 0.5 * h);
    const State k2 = deriv(s2, amax, wheelbase, release_rate, kLaneHoldGain);
    const State s3 = axpy(s, k2, 0.5 * h);
    const State k3 = deriv(s3, amax, wheelbase, release_rate, kLaneHoldGain);
    const State s4 = axpy(s, k3, h);
    const State k4 = deriv(s4, amax, wheelbase, release_rate, kLaneHoldGain);
    s.x += h / 6.0 * (k1.x + 2.0 * k2.x + 2.0 * k3.x + k4.x);
    s.y += h / 6.0 * (k1.y + 2.0 * k2.y + 2.0 * k3.y + k4.y);
    s.theta += h / 6.0 * (k1.theta + 2.0 * k2.theta + 2.0 * k3.theta + k4.theta);
    s.phi += h / 6.0 * (k1.phi + 2.0 * k2.phi + 2.0 * k3.phi + k4.phi);
    s.v = std::max(0.0, s.v - amax * h);
    t += h;
  }
  out.longitudinal = s.x;
  out.lateral = s.y;
  out.stop_time = t_stop;
  return out;
}

}  // namespace reference_p

TEST(Stopping, WithinTwoMillimetresOfConvergedReferenceOnSeededSweep) {
  // P solves the sliding limit of the reference's chatter, in closed form
  // except where the steering slews below the cap. Both components stay within 2 mm of the reference at 50 us, and
  // the reference at 50 us is itself within 0.25 mm of its value at
  // 12.5 us, so 50 us is converged to this budget. The stop time is
  // bit-identical. The reference costs ~4 ms per simulated second, so the
  // sweep is a few hundred inputs.
  constexpr double kBound = 2e-3;
  constexpr double kReferenceStep = 5e-5;
  constexpr double kConvergence = 2.5e-4;
  constexpr int kConvergenceEvery = 8;
  enum Shape { kGeneral, kSelection, kScene, kFastSlew, kSlideExit };
  struct Slice {
    Shape shape;
    int inputs;
  };
  constexpr Slice kSlices[] = {{kGeneral, 100},
                               {kSelection, 40},
                               {kScene, 40},
                               {kFastSlew, 100},
                               {kSlideExit, 40}};
  util::Rng rng(20191);
  const VehicleParams defaults;
  int input = 0, slewed = 0, slid = 0, left_slide = 0, cap_kink = 0,
      low_speed = 0, frozen = 0, stepped = 0, capped = 0, held = 0,
      slid_to_stop = 0;
  double worst_lon = 0.0, worst_lat = 0.0, worst_convergence = 0.0;
  for (const Slice& slice : kSlices) {
    for (int i = 0; i < slice.inputs; ++i, ++input) {
      double v0 = 0.0, theta0 = 0.0, phi0 = 0.0;
      double amax = defaults.amax_comfort, wheelbase = defaults.wheelbase,
             release = defaults.steering_rate;
      switch (slice.shape) {
        case kGeneral:
          // Anything P accepts, including v0 <= 1 and frozen steering.
          v0 = rng.bernoulli(0.1) ? rng.uniform(-0.5, 1.0)
                                  : rng.uniform(1.0, 25.0);
          amax = rng.uniform(2.0, 12.0);
          wheelbase = rng.uniform(1.5, 4.5);
          theta0 = rng.uniform(-0.5, 0.5);
          phi0 = rng.uniform(-1.2, 1.2);
          release = rng.bernoulli(0.25) ? 0.0 : rng.uniform(0.1, 2.0);
          break;
        case kSelection:
          // Bayesian selection's predicted states, where most P calls
          // happen: highway speeds, large heading and steering.
          v0 = rng.uniform(20.0, 35.0);
          theta0 = rng.uniform(-0.9, 0.9);
          phi0 = rng.uniform(-0.6, 0.6);
          break;
        case kScene:
          // Golden and replayed scenes: near-straight, lane-centred.
          v0 = rng.uniform(5.0, 35.0);
          theta0 = rng.uniform(-0.05, 0.05);
          phi0 = rng.uniform(-0.05, 0.05);
          break;
        case kFastSlew:
          // A `.scn` steering_rate far above the default.
          v0 = rng.uniform(0.5, 5.0);
          amax = rng.uniform(2.0, 12.0);
          wheelbase = rng.uniform(1.5, 4.5);
          theta0 = rng.uniform(-0.5, 0.5);
          phi0 = rng.uniform(-1.0, 1.0);
          release = rng.uniform(10.0, 40.0);
          break;
        case kSlideExit:
          // On the command with a large heading, so the slide meets the
          // friction cap and the command outruns the rate as v falls.
          v0 = rng.uniform(10.0, 30.0);
          amax = rng.uniform(4.0, 12.0);
          wheelbase = rng.uniform(2.0, 4.0);
          theta0 = (rng.bernoulli(0.5) ? -1.0 : 1.0) * rng.uniform(0.4, 1.0);
          phi0 = std::clamp(-1.2 * theta0, -0.55, 0.55);
          release = rng.uniform(0.3, 1.5);
          break;
      }

      StopEvents events;
      const StoppingDistance got = stopping_distance(
          amax, v0, theta0, phi0, wheelbase, release, &events);
      const StoppingDistance want = reference_p::stopping_distance(
          amax, v0, theta0, phi0, wheelbase, kReferenceStep, release);
      const double d_lon = std::abs(got.longitudinal - want.longitudinal);
      const double d_lat = std::abs(got.lateral - want.lateral);
      ASSERT_LE(d_lon, kBound) << "longitudinal, input " << input;
      ASSERT_LE(d_lat, kBound) << "lateral, input " << input;
      ASSERT_EQ(std::memcmp(&got.stop_time, &want.stop_time, sizeof(double)),
                0)
          << "stop_time, input " << input;
      worst_lon = std::max(worst_lon, d_lon);
      worst_lat = std::max(worst_lat, d_lat);
      if (input % kConvergenceEvery == 0) {
        const StoppingDistance finer = reference_p::stopping_distance(
            amax, v0, theta0, phi0, wheelbase, kReferenceStep / 4.0, release);
        const double moved =
            std::max(std::abs(finer.longitudinal - want.longitudinal),
                     std::abs(finer.lateral - want.lateral));
        ASSERT_LE(moved, kConvergence) << "reference, input " << input;
        worst_convergence = std::max(worst_convergence, moved);
      }

      slewed += events.slews > 0;
      slid += events.slides > 0;
      left_slide += events.slide_exits > 0;
      cap_kink += events.cap_kinks > 0;
      low_speed += events.low_speed;
      stepped += events.rk4_steps > 0;
      capped += events.capped_arcs > 0;
      held += events.held_arcs > 0;
      slid_to_stop += events.slid_to_stop;
      if (release == 0.0) {
        ++frozen;
        EXPECT_EQ(events.slews + events.slides, 0) << "input " << input;
      }
    }
  }
  RecordProperty("worst_longitudinal_m", ::testing::PrintToString(worst_lon));
  RecordProperty("worst_lateral_m", ::testing::PrintToString(worst_lat));
  RecordProperty("worst_reference_convergence_m",
                 ::testing::PrintToString(worst_convergence));
  // Each path of the hybrid integration ran on many inputs: every kind of
  // closed-form segment, and RK4 where the steering slews below the cap. A
  // stop that ends in the closed-form slide never reaches v = 1 m/s as a
  // boundary, so few stops do.
  EXPECT_GT(slewed, input / 2);
  EXPECT_GT(slid, input / 2);
  EXPECT_GT(left_slide, 10);
  EXPECT_GT(cap_kink, input / 4);
  EXPECT_GT(low_speed, input / 10);
  EXPECT_GT(frozen, 10);
  EXPECT_GT(stepped, input / 2);
  EXPECT_GT(capped, input / 4);
  EXPECT_GT(held, 10);
  EXPECT_GT(slid_to_stop, input / 2);
}

TEST(Stopping, TerminatesAndStaysPhysicalAtScnLegalExtremes) {
  // Inputs a `.scn` file or a fitted predictor may hand P, out to the
  // speed clamp and the deceleration floor, with slew rates from very slow
  // to far beyond the actuator's. No reference: P must end, give finite
  // components within the path length, and stay under its event cap.
  util::Rng rng(7919);
  constexpr int kInputs = 20'000;
  int most_switches = 0;
  for (int i = 0; i < kInputs; ++i) {
    const double v0 = rng.uniform(0.0, 150.0);
    const double amax = rng.uniform(kMinStopDecel, 15.0);
    const double theta0 = rng.uniform(-1.5, 1.5);
    const double phi0 = rng.uniform(-1.2, 1.2);
    const double wheelbase = rng.uniform(1.0, 5.0);
    double release = 0.0;
    if (!rng.bernoulli(0.2))
      release = rng.bernoulli(0.5)
                    ? rng.uniform(0.0, 2.0)
                    : std::exp(rng.uniform(std::log(1e-2), std::log(200.0)));

    StopEvents events;
    const StoppingDistance d = stopping_distance(amax, v0, theta0, phi0,
                                                 wheelbase, release, &events);
    ASSERT_TRUE(std::isfinite(d.longitudinal)) << "input " << i;
    ASSERT_TRUE(std::isfinite(d.lateral)) << "input " << i;
    const double stop_time = v0 / amax;
    ASSERT_EQ(std::memcmp(&d.stop_time, &stop_time, sizeof(double)), 0)
        << "input " << i;
    // The displacement is at most the path length v0^2 / (2 amax).
    const double path = stopping_distance_straight(amax, v0);
    ASSERT_LE(std::hypot(d.longitudinal, d.lateral), path * (1.0 + 1e-12))
        << "input " << i;
    ASSERT_LT(events.switches, kMaxStopEvents) << "input " << i;
    most_switches = std::max(most_switches, events.switches);
  }
  RecordProperty("most_switches", most_switches);
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
