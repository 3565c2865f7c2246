// Emergency-stop maneuver and stopping distance d_stop (paper §III-A,
// eqs. (4)–(7)). The maneuver holds the steering angle (dphi/dt = 0) and
// applies maximum comfortable deceleration (dv/dt = -amax) until the
// vehicle halts; d_stop is the displacement accumulated during the
// maneuver, decomposed into the longitudinal/lateral axes of the vehicle
// frame at the start of the maneuver.
#pragma once

#include "kinematics/bicycle.h"

namespace drivefi::kinematics {

// Components are expressed in the reference frame theta0 is measured
// against (the lane axis): longitudinal is along the lane, lateral across
// it. A heading error theta0 != 0 therefore contributes lateral stopping
// displacement -- the quantity compared against the lane margin.
struct StoppingDistance {
  double longitudinal = 0.0;  // m, along the lane axis (>= 0)
  double lateral = 0.0;       // m, signed; + is left of the lane axis
  double stop_time = 0.0;     // s, time to standstill
};

// The paper's procedure P (eq. (7)): iterative numerical integration of the
// reduced system (6) from the initial kinematic state. Implemented with RK4
// at the given step size.
//
// Deviation from eq. (5): the stop brakes with lane-hold steering (the
// actuator slews at steering_release_rate, rad/s, toward a command that
// decays the heading error) instead of the paper's frozen steering; see
// docs/ARCHITECTURE.md, "Procedure P steers to hold the lane", for why.
// Pass steering_release_rate = 0 for the paper-pure frozen-steering variant.
StoppingDistance stopping_distance(double amax, double v0, double theta0,
                                   double phi0, double wheelbase,
                                   double dt = 5e-3,
                                   double steering_release_rate = 0.8);

// Smallest emergency-stop deceleration (m/s^2) accepted from input files
// (`.scn` ego_params amax_comfort, a fitted predictor's amax). P takes
// v0 / (amax * dt) steps, so with speeds clamped to 150 m/s the floor caps
// one call at 150 / 1 / 5e-3 = 30,000 steps; below it a campaign stalls.
inline constexpr double kMinStopDecel = 1.0;

// Convenience overload from a vehicle state.
StoppingDistance stopping_distance(const VehicleState& state,
                                   const VehicleParams& params,
                                   double dt = 5e-3);

// Closed form for straight-line motion (phi0 == 0): v0^2 / (2 amax).
// Used by tests/benches to validate the numerical procedure.
double stopping_distance_straight(double amax, double v0);

}  // namespace drivefi::kinematics
