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

// P's internal RK4 step (s). A step is cut short to land on each mode
// switch and kink, and is at most L / (1.2 v) while the steering slides
// below the friction cap, where the lane-hold loop is stiff.
inline constexpr double kStopStep = 0.05;

// Most mode switches and kinks one call of P lands on. Past it P stops
// landing on them and lets the steering follow the lane-hold command, so a
// call always ends. A stop lands on a handful; a slew rate near 1e-3
// rad/s makes the steering oscillate about the command with shrinking
// swings before it slides, and the worst such input found needs ~100.
inline constexpr int kMaxStopEvents = 256;

// What one call of P did, for tests that must show each path ran.
struct StopEvents {
  int slews = 0;          // segments where the steering slews at the rate
  int slides = 0;         // segments where it slides on the lane-hold command
  int slide_exits = 0;    // slides left because the command outran the rate
  int cap_kinks = 0;      // steps landed where the friction cap binds or lets go
  bool low_speed = false; // a step landed on v = 1 m/s
  int switches = 0;       // every landing above, against kMaxStopEvents
};

// The paper's procedure P (eq. (7)): numerical integration of the reduced
// system (6) from the initial kinematic state, as a hybrid system (docs/
// ARCHITECTURE.md, "Procedure P steers to hold the lane"). The steering
// either slews at steering_release_rate (rad/s) or slides on the lane-hold
// command; RK4 steps of kStopStep land exactly on every switch between the
// two, on every friction-cap kink and on v = 1 m/s. Each call's wall time
// is observed into the `kinematics.stopping_distance_seconds` histogram
// (obs/metrics.h); `events`, if given, receives what the call did.
//
// Deviation from eq. (5): the stop brakes with lane-hold steering (the
// actuator slews at steering_release_rate, rad/s, toward a command that
// decays the heading error) instead of the paper's frozen steering; see
// the same section for why. Pass steering_release_rate = 0 for the
// paper-pure frozen-steering variant.
StoppingDistance stopping_distance(double amax, double v0, double theta0,
                                   double phi0, double wheelbase,
                                   double steering_release_rate = 0.8,
                                   StopEvents* events = nullptr);

// Smallest emergency-stop deceleration (m/s^2) accepted from input files
// (`.scn` ego_params amax_comfort, a fitted predictor's amax). A stop lasts
// v0 / amax, so with speeds clamped to 150 m/s the floor caps one call at
// 150 / 1 / kStopStep = 3,000 full steps, plus the stiff-slide steps above
// L / (1.2 kStopStep) m/s and kMaxStopEvents landings; below it a
// campaign stalls.
inline constexpr double kMinStopDecel = 1.0;

// Convenience overload from a vehicle state.
StoppingDistance stopping_distance(const VehicleState& state,
                                   const VehicleParams& params);

// Closed form for straight-line motion (phi0 == 0): v0^2 / (2 amax).
// Used by tests/benches to validate the numerical procedure.
double stopping_distance_straight(double amax, double v0);

}  // namespace drivefi::kinematics
