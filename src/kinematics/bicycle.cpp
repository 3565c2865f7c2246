#include "kinematics/bicycle.h"

#include <algorithm>
#include <cmath>

namespace drivefi::kinematics {

namespace {

constexpr double kDragCoeff = 0.0008;  // 1/m; v^2 drag term

struct Deriv {
  double dx, dy, dtheta, dv;
};

// Longitudinal acceleration as a function of the (stage) speed, so RK4
// stages see the speed-dependent drag and the method keeps its order.
double accel_at(double v, double throttle, double brake,
                const VehicleParams& params) {
  double accel = throttle * params.max_accel - brake * params.max_brake_decel -
                 kDragCoeff * v * v;
  // A stopped vehicle cannot be pushed backwards by brakes/drag.
  if (v <= 0.0 && accel < 0.0) accel = 0.0;
  return accel;
}

// tan(phi_eff) at stage speed v, where phi_eff is phi capped by tyre
// friction: tan(phi_eff) <= a_lat_max L / v^2. At low speed the mechanical
// limit binds; at highway speed the tires do. phi is held over a step, so
// the caller passes tan(phi) once. The cap's atan and a second tan run only
// when |phi| may reach the cap: |phi| sqrt(1 + t^2) < t (1 - 1e-9) gives
// |phi| < t / sqrt(1 + t^2) = sin(atan t) < atan t, with a margin far wider
// than the rounding of either side, so the clamp would return phi itself
// and tan(phi_eff) is tan(phi) bit for bit. NaN and infinite inputs fail
// the test and take the clamp as before.
double tan_effective_steering(double phi, double tan_phi, double v,
                              const VehicleParams& params) {
  if (v <= 1.0) return tan_phi;
  const double tan_limit =
      params.max_lateral_accel * params.wheelbase / (v * v);
  if (std::abs(phi) * std::sqrt(1.0 + tan_limit * tan_limit) <
      tan_limit * (1.0 - 1e-9))
    return tan_phi;
  const double limit = std::atan(tan_limit);
  return std::tan(std::clamp(phi, -limit, limit));
}

Deriv derivatives(double theta, double v, double phi, double tan_phi,
                  double throttle, double brake, const VehicleParams& params) {
  return Deriv{
      v * std::cos(theta),
      v * std::sin(theta),
      v * tan_effective_steering(phi, tan_phi, v, params) / params.wheelbase,
      accel_at(v, throttle, brake, params),
  };
}

}  // namespace

double longitudinal_accel(const VehicleState& state, const Actuation& act,
                          const VehicleParams& params) {
  const double throttle = std::clamp(act.throttle, 0.0, 1.0);
  const double brake = std::clamp(act.brake, 0.0, 1.0);
  return accel_at(state.v, throttle, brake, params);
}

VehicleState step(const VehicleState& state, const Actuation& act,
                  const VehicleParams& params, double dt) {
  VehicleState s = state;

  // Steering actuator: clamp to the mechanical limit, then slew-limit.
  const double target_phi =
      std::clamp(act.steering, -params.max_steering, params.max_steering);
  const double max_dphi = params.steering_rate * dt;
  s.phi += std::clamp(target_phi - s.phi, -max_dphi, max_dphi);

  const double throttle = std::clamp(act.throttle, 0.0, 1.0);
  const double brake = std::clamp(act.brake, 0.0, 1.0);

  // Classic RK4 over [x, y, theta, v] with phi held over the step; the
  // acceleration (incl. speed-dependent drag) is re-evaluated per stage.
  const double tan_phi = std::tan(s.phi);
  const Deriv k1 =
      derivatives(s.theta, s.v, s.phi, tan_phi, throttle, brake, params);
  const Deriv k2 = derivatives(s.theta + 0.5 * dt * k1.dtheta,
                               std::max(0.0, s.v + 0.5 * dt * k1.dv), s.phi,
                               tan_phi, throttle, brake, params);
  const Deriv k3 = derivatives(s.theta + 0.5 * dt * k2.dtheta,
                               std::max(0.0, s.v + 0.5 * dt * k2.dv), s.phi,
                               tan_phi, throttle, brake, params);
  const Deriv k4 = derivatives(s.theta + dt * k3.dtheta,
                               std::max(0.0, s.v + dt * k3.dv), s.phi,
                               tan_phi, throttle, brake, params);

  s.x += dt / 6.0 * (k1.dx + 2.0 * k2.dx + 2.0 * k3.dx + k4.dx);
  s.y += dt / 6.0 * (k1.dy + 2.0 * k2.dy + 2.0 * k3.dy + k4.dy);
  s.theta += dt / 6.0 * (k1.dtheta + 2.0 * k2.dtheta + 2.0 * k3.dtheta + k4.dtheta);
  s.v += dt / 6.0 * (k1.dv + 2.0 * k2.dv + 2.0 * k3.dv + k4.dv);
  s.v = std::clamp(s.v, 0.0, params.max_speed);
  s.a = accel_at(s.v, throttle, brake, params);
  return s;
}

double distance(const VehicleState& a, const VehicleState& b) {
  return std::hypot(a.x - b.x, a.y - b.y);
}

}  // namespace drivefi::kinematics
