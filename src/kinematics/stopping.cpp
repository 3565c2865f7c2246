#include "kinematics/stopping.h"

#include <algorithm>
#include <cmath>

namespace drivefi::kinematics {

namespace {

struct StopState {
  double x, y, theta, v, phi;
};

// Friction cap shared with the bicycle model: while braking at amax the
// combined-slip budget leaves a reduced lateral allowance, approximated
// as a constant fraction of the longitudinal authority.
double phi_limit(double v, double wheelbase, double lat_accel_budget) {
  if (v <= 1.0) return 1.0;
  return std::atan(lat_accel_budget * wheelbase / (v * v));
}

// Reduced dynamics of the emergency-stop maneuver (paper eq. (6)): speed
// ramps down at amax while the steering actuator slews toward a lane-hold
// command (see the header for how this deviates from the paper's frozen
// steering and why). `limit` is phi_limit at s.v, passed in because the
// caller shares it between stages evaluated at the same speed.
StopState deriv(const StopState& s, double limit, double amax,
                double wheelbase, double release_rate, double lane_hold_gain) {
  double dphi = 0.0;
  if (release_rate > 0.0) {
    const double target = std::clamp(-lane_hold_gain * s.theta, -0.55, 0.55);
    const double err = target - s.phi;
    if (err > 1e-12)
      dphi = release_rate;
    else if (err < -1e-12)
      dphi = -release_rate;
  }
  const double phi_eff = std::clamp(s.phi, -limit, limit);
  return StopState{
      s.v * std::cos(s.theta),
      s.v * std::sin(s.theta),
      s.v * std::tan(phi_eff) / wheelbase,
      -amax,
      dphi,
  };
}

StopState axpy(const StopState& s, const StopState& d, double h) {
  return StopState{s.x + h * d.x, s.y + h * d.y, s.theta + h * d.theta,
                   s.v + h * d.v, s.phi + h * d.phi};
}

}  // namespace

StoppingDistance stopping_distance(double amax, double v0, double theta0,
                                   double phi0, double wheelbase, double dt,
                                   double steering_release_rate) {
  StoppingDistance out;
  // The inputs may be *believed* state reconstructed from corrupted ADS
  // variables (that is the whole point of fault injection), so they must
  // be sanitized before driving the integration loop: a bit-flipped speed
  // of 1e300 m/s would otherwise make t_stop astronomically large. Values
  // are clamped to generous physical envelopes -- the procedure P models a
  // road vehicle, and any clamped input is already far beyond every
  // safety threshold it feeds.
  if (!std::isfinite(v0) || !std::isfinite(theta0) || !std::isfinite(phi0) ||
      !std::isfinite(amax))
    return out;
  constexpr double kMaxSpeed = 150.0;     // m/s, > any road vehicle
  constexpr double kMaxSteer = 1.0;       // rad, past full mechanical lock
  v0 = std::min(v0, kMaxSpeed);
  phi0 = std::clamp(phi0, -kMaxSteer, kMaxSteer);
  if (v0 <= 0.0 || amax <= 0.0) return out;

  // Lane-hold steering gain during the stop (rad of steering per rad of
  // heading error); only active when the steering actuator is modeled
  // (steering_release_rate > 0).
  constexpr double kLaneHoldGain = 1.2;

  const double lat_budget = 0.7 * amax;  // combined-slip allowance

  StopState s{0.0, 0.0, theta0, v0, phi0};
  double t = 0.0;
  // The stop time is exactly v0/amax since dv/dt = -amax is constant; we
  // still integrate positionally and land the final partial step on it.
  const double t_stop = v0 / amax;
  // phi_limit (one atan) depends on speed alone, and an RK4 step sees only
  // two new speeds: k2 and k3 share the half-step speed (k1.v == k2.v ==
  // -amax), and k4's speed s.v + h * -amax equals the next step's start
  // speed s.v - amax * h bit for bit (the max(0, .) clamp below only acts
  // when both are <= 1, where phi_limit is 1). Evaluating it once per
  // distinct speed keeps P bit-identical to the per-stage formulation at
  // half the atan calls.
  double limit_start = phi_limit(s.v, wheelbase, lat_budget);
  while (t < t_stop) {
    const double h = std::min(dt, t_stop - t);
    const StopState k1 = deriv(s, limit_start, amax, wheelbase,
                               steering_release_rate, kLaneHoldGain);
    const StopState s2 = axpy(s, k1, 0.5 * h);
    const double limit_half = phi_limit(s2.v, wheelbase, lat_budget);
    const StopState k2 = deriv(s2, limit_half, amax, wheelbase,
                               steering_release_rate, kLaneHoldGain);
    const StopState k3 = deriv(axpy(s, k2, 0.5 * h), limit_half, amax,
                               wheelbase, steering_release_rate,
                               kLaneHoldGain);
    const StopState s4 = axpy(s, k3, h);
    const double limit_end = phi_limit(s4.v, wheelbase, lat_budget);
    const StopState k4 = deriv(s4, limit_end, amax, wheelbase,
                               steering_release_rate, kLaneHoldGain);
    s.x += h / 6.0 * (k1.x + 2.0 * k2.x + 2.0 * k3.x + k4.x);
    s.y += h / 6.0 * (k1.y + 2.0 * k2.y + 2.0 * k3.y + k4.y);
    s.theta += h / 6.0 * (k1.theta + 2.0 * k2.theta + 2.0 * k3.theta + k4.theta);
    s.phi += h / 6.0 * (k1.phi + 2.0 * k2.phi + 2.0 * k3.phi + k4.phi);
    s.v = std::max(0.0, s.v - amax * h);
    limit_start = limit_end;
    t += h;
  }

  // Components are expressed in the reference (lane) frame that theta0 is
  // measured against: a heading error at maneuver start therefore shows up
  // as lateral displacement, which is exactly the lane-violation hazard.
  out.longitudinal = s.x;
  out.lateral = s.y;
  out.stop_time = t_stop;
  return out;
}

StoppingDistance stopping_distance(const VehicleState& state,
                                   const VehicleParams& params, double dt) {
  return stopping_distance(params.amax_comfort, state.v, state.theta,
                           state.phi, params.wheelbase, dt,
                           params.steering_rate);
}

double stopping_distance_straight(double amax, double v0) {
  if (v0 <= 0.0 || amax <= 0.0) return 0.0;
  return v0 * v0 / (2.0 * amax);
}

}  // namespace drivefi::kinematics
