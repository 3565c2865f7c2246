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

// P's RK4 step (s) while the steering slews below the friction cap, the
// one regime P integrates numerically. A step is cut short to land on the
// slew's events: it meets the lane-hold command, the cap starts to bind,
// or v falls to 1 m/s.
inline constexpr double kStopStep = 0.05;

// Most segment boundaries one call of P finds. Past it P stops finding
// them and lets the steering follow the lane-hold command, which ends the
// stop in at most four closed-form segments, so a call always ends. A
// stop finds a handful. A slow slew makes the steering oscillate about the
// command with shrinking swings before it slides: of 200,000 random inputs
// with rates from 1e-4 to 0.1 rad/s, the worst finds 29.
inline constexpr int kMaxStopEvents = 256;

// What one call of P did, for tests that must show each path ran.
struct StopEvents {
  int slews = 0;          // times the steering starts to slew at the rate
  int slides = 0;         // times it starts to slide on the lane-hold command
  int slide_exits = 0;    // slides left because the command outran the rate
  int cap_kinks = 0;      // times the friction cap starts or stops binding
  bool low_speed = false; // a segment ended at v = 1 m/s
  int rk4_steps = 0;      // RK4 steps of a slew below the cap
  int capped_arcs = 0;    // closed-form segments while the cap binds
  int held_arcs = 0;      // closed-form segments at a held steering angle
  bool slid_to_stop = false;  // the stop ended in the closed-form slide
  int switches = 0;       // every segment boundary, against kMaxStopEvents
};

// The paper's procedure P (eq. (7)): the reduced system (6) from the
// initial kinematic state to standstill, as a hybrid system (docs/
// ARCHITECTURE.md, "Procedure P steers to hold the lane"). The steering
// either slews at steering_release_rate (rad/s) or slides on the lane-hold
// command. P solves every segment in closed form (the three functions
// below) except a slew below the friction cap, which it integrates with
// RK4 steps of kStopStep. Each call's wall time is observed into the
// `kinematics.stopping_distance_seconds` histogram (obs/metrics.h);
// `events`, if given, receives what the call did.
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

// Position and heading in the lane frame.
struct StopPose {
  double x = 0.0;
  double y = 0.0;
  double theta = 0.0;
};

// P's closed-form segments, exposed so tests can check each one against
// its own ODE. Each advances `p` while the vehicle brakes at amax.
//
// The steering slides on the unclamped lane-hold command -1.2 theta below
// the friction cap, from speed v to standstill: in arc length s,
// sin(1.2 theta) = sin(1.2 theta_a) exp(-1.2 s / L).
StopPose slide_to_stop(const StopPose& p, double v, double amax,
                       double wheelbase);
// The friction cap binds, with applied steering sign * atan(0.7 amax L /
// v^2) (sign +1 or -1), from speed va down to vb: theta = theta_a -
// 0.7 sign ln(v / va).
StopPose capped_arc(const StopPose& p, double va, double vb, double amax,
                    int sign);
// The steering is held at phi below the cap for an arc length s: the
// heading turns by tan(phi) / L per metre.
StopPose held_arc(const StopPose& p, double s, double phi, double wheelbase);

// Smallest emergency-stop deceleration (m/s^2) accepted from input files
// (`.scn` ego_params amax_comfort, a fitted predictor's amax). A stop lasts
// v0 / amax, so with speeds clamped to 150 m/s the floor caps a slew's RK4
// at 150 / 1 / kStopStep = 3,000 full steps, plus kMaxStopEvents segment
// boundaries; below it a campaign stalls.
inline constexpr double kMinStopDecel = 1.0;

// Convenience overload from a vehicle state.
StoppingDistance stopping_distance(const VehicleState& state,
                                   const VehicleParams& params);

// Closed form for straight-line motion (phi0 == 0): v0^2 / (2 amax).
// Used by tests/benches to validate the numerical procedure.
double stopping_distance_straight(double amax, double v0);

}  // namespace drivefi::kinematics
