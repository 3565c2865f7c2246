#include "kinematics/stopping.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>

#include "obs/metrics.h"

namespace drivefi::kinematics {

namespace {

// Below this magnitude, the cos and sin of a heading offset come from the
// Taylor series in rotate(); above it, from libm. A stage's heading offset
// is at most 0.7 * amax * h above 1 m/s, which is 0.021 rad at the
// defaults, so libm is the exception.
constexpr double kSeriesLimit = 1.0 / 16.0;

// The friction cap clamps tan(phi) instead of phi. Since tan is increasing
// on (-pi/2, pi/2), tan(clamp(phi, -limit, limit)) equals
// clamp(tan(phi), -tan(limit), tan(limit)) as long as |phi| < pi/2. That
// holds at every stage: the input clamp makes |phi0| <= 1, and the slew
// moves phi toward a target inside +-0.55 by at most h * rate per stage
// (0.004 rad at the defaults). A stage past this margin, which takes a dt
// or a slew rate far beyond the defaults (a .scn file sets steering_rate),
// caps phi itself through libm as the per-stage formulation does.
constexpr double kTangentCapLimit = 1.5;

// Steps between refreshes of the carried cos, sin and tan from libm.
constexpr unsigned kResyncSteps = 64;

// tan of the 1 rad steering limit that applies up to 1 m/s.
const double kTanLowSpeedLimit = std::tan(1.0);

struct Heading {
  double cos, sin;
};

Heading heading_of(double theta) {
  return Heading{std::cos(theta), std::sin(theta)};
}

// (cos, sin) of `theta`, given those of `base` near it. The offset
// theta - base is exact whenever the two are within a factor of two, so
// this tracks the same rounded angles the caller steps through. The libm
// fallback is a separate function so that this one stays small enough to
// inline: P calls it four times a step.
inline Heading rotate(const Heading& at_base, double base, double theta) {
  const double d = theta - base;
  if (!(std::abs(d) < kSeriesLimit)) [[unlikely]]
    return heading_of(theta);
  // sin d and 1 - cos d to degree 9 and 10; the first omitted terms are
  // below 1e-20 at |d| = 1/16.
  const double d2 = d * d;
  const double sin_d =
      d + d * d2 *
              (-1.0 / 6 +
               d2 * (1.0 / 120 + d2 * (-1.0 / 5040 + d2 * (1.0 / 362880))));
  const double versin_d =
      d2 * (1.0 / 2 +
            d2 * (-1.0 / 24 +
                  d2 * (1.0 / 720 +
                        d2 * (-1.0 / 40320 + d2 * (1.0 / 3628800)))));
  return Heading{
      at_base.cos - (at_base.cos * versin_d + at_base.sin * sin_d),
      at_base.sin + (at_base.cos * sin_d - at_base.sin * versin_d)};
}

// tan(a + b) from tan a and tan b.
double tan_sum(double tan_a, double tan_b) {
  return (tan_a + tan_b) / (1.0 - tan_a * tan_b);
}

// The steering offsets one step of length h can make: every stage offset
// and step increment is m * h * rate / 6 for an integer m in [-6, 6]
// (stages 2 and 3 sit at m = 3 * slew, stage 4 at m = 6 * slew). Built
// once per distinct step length, which is twice per call: the full steps
// and the partial last one.
class SlewTable {
 public:
  void build(double h, double rate) {
    for (int m = -6; m <= 6; ++m) tan_[m + 6] = std::tan(h * m * rate / 6.0);
    h_ = h;
  }
  double h() const { return h_; }

  // tan(phi + m * h * rate / 6) from tan_phi.
  double shifted(double tan_phi, int m) const {
    if (m == 0) return tan_phi;
    return tan_sum(tan_phi, tan_[m + 6]);
  }

 private:
  double h_ = 0.0;
  std::array<double, 13> tan_{};
};

// Lane-hold steering (see the header for how this deviates from the
// paper's frozen steering and why): the actuator slews at `rate` toward a
// command that decays the heading error. Returns the slew direction,
// -1, 0 or +1.
int slew_direction(double theta, double phi, double rate) {
  constexpr double kLaneHoldGain = 1.2;  // rad of steering per rad of heading
  if (!(rate > 0.0)) return 0;
  const double target = std::clamp(-kLaneHoldGain * theta, -0.55, 0.55);
  const double err = target - phi;
  if (err > 1e-12) return 1;
  if (err < -1e-12) return -1;
  return 0;
}

// Derivatives of the reduced dynamics (paper eq. (6)) at one RK4 stage.
// Speed ramps down at amax, so dv/dt is implicit.
struct StageRates {
  double dx, dy, dtheta;
  int slew;  // dphi/dt = slew * rate
};

// The constants of one call of P.
struct StopModel {
  double inv_wheelbase;
  double budget_wheelbase;  // 0.7 * amax * wheelbase
  double rate;              // steering release rate, rad/s

  // Friction cap shared with the bicycle model: while braking at amax the
  // combined-slip budget leaves a reduced lateral allowance, approximated
  // as a constant fraction of the longitudinal authority. The cap on the
  // steering angle is atan(budget_wheelbase / v^2) above 1 m/s and 1 rad
  // below; this returns its tan, so no atan is taken.
  double tan_phi_limit(double v) const {
    if (v <= 1.0) return kTanLowSpeedLimit;
    return budget_wheelbase / (v * v);
  }

  // Stage at speed v, heading theta with (cos, sin) `dir`, and steering
  // phi with tan(phi) = tan_phi; `cap` is tan_phi_limit(v), shared by the
  // stages at equal speeds.
  StageRates stage(double v, double theta, const Heading& dir, double phi,
                   double tan_phi, double cap) const {
    double tan_eff;
    if (std::abs(phi) < kTangentCapLimit) {
      tan_eff = std::clamp(tan_phi, -cap, cap);
    } else {
      const double limit = std::atan(cap);  // the cap on phi itself
      tan_eff = std::tan(std::clamp(phi, -limit, limit));
    }
    return StageRates{v * dir.cos, v * dir.sin, v * tan_eff * inv_wheelbase,
                      slew_direction(theta, phi, rate)};
  }
};

StoppingDistance integrate_stop(double amax, double v0, double theta0,
                                double phi0, double wheelbase, double dt,
                                double rate) {
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

  const StopModel model{1.0 / wheelbase, 0.7 * amax * wheelbase, rate};

  // State: position, heading theta with its cos and sin in `dir`, speed,
  // and steering phi with its tan. The RK4 stages sit at the step's start
  // heading plus a small offset, so their cos and sin come from rotate();
  // every steering offset is a multiple of h * rate / 6, so their tan
  // comes from the tangent addition formula over a SlewTable. No stage
  // calls libm in the common case, and the steps, the stage states, the
  // slew with its deadband, the friction cap and the stop time are those
  // of the per-stage formulation; only rounding differs.
  double x = 0.0, y = 0.0, theta = theta0, v = v0, phi = phi0;
  Heading dir{};
  double tan_phi = 0.0;
  SlewTable slew;

  double t = 0.0;
  // The stop time is exactly v0/amax since dv/dt = -amax is constant; we
  // still integrate positionally and land the final partial step on it.
  const double t_stop = v0 / amax;
  // The cap depends on speed alone, and an RK4 step sees only two new
  // speeds: k2 and k3 share the half-step speed (k1.v == k2.v == -amax),
  // and k4's speed v + h * -amax equals the next step's start speed
  // v - amax * h bit for bit (the max(0, .) clamp below only acts when
  // both are <= 1, where the cap is tan 1).
  double cap_start = model.tan_phi_limit(v);
  for (unsigned step = 0; t < t_stop; ++step) {
    const double h = std::min(dt, t_stop - t);
    // The carried cos, sin and tan gather rounding at every step. Taking
    // them from libm at the first step, every kResyncSteps after it, and
    // while the steering is past kTangentCapLimit keeps them within a few
    // ulps of the angles the loop steps through, at stops of any length.
    if (step % kResyncSteps == 0 || !(std::abs(phi) < kTangentCapLimit)) {
      dir = heading_of(theta);
      tan_phi = std::tan(phi);
    }
    const double hh = 0.5 * h;
    if (rate > 0.0 && h != slew.h()) slew.build(h, rate);

    const StageRates k1 = model.stage(v, theta, dir, phi, tan_phi, cap_start);

    const double v_half = v + hh * -amax;
    const double cap_half = model.tan_phi_limit(v_half);
    const double theta2 = theta + hh * k1.dtheta;
    const double phi2 = phi + hh * (k1.slew * rate);
    const StageRates k2 =
        model.stage(v_half, theta2, rotate(dir, theta, theta2), phi2,
                    slew.shifted(tan_phi, 3 * k1.slew), cap_half);

    const double theta3 = theta + hh * k2.dtheta;
    const double phi3 = phi + hh * (k2.slew * rate);
    const StageRates k3 =
        model.stage(v_half, theta3, rotate(dir, theta, theta3), phi3,
                    slew.shifted(tan_phi, 3 * k2.slew), cap_half);

    const double v_end = v + h * -amax;
    const double cap_end = model.tan_phi_limit(v_end);
    const double theta4 = theta + h * k3.dtheta;
    const double phi4 = phi + h * (k3.slew * rate);
    const StageRates k4 =
        model.stage(v_end, theta4, rotate(dir, theta, theta4), phi4,
                    slew.shifted(tan_phi, 6 * k3.slew), cap_end);

    x += h / 6.0 * (k1.dx + 2.0 * k2.dx + 2.0 * k3.dx + k4.dx);
    y += h / 6.0 * (k1.dy + 2.0 * k2.dy + 2.0 * k3.dy + k4.dy);
    const double theta_next =
        theta +
        h / 6.0 * (k1.dtheta + 2.0 * k2.dtheta + 2.0 * k3.dtheta + k4.dtheta);
    dir = rotate(dir, theta, theta_next);
    theta = theta_next;
    phi += h / 6.0 * (k1.slew * rate + 2.0 * (k2.slew * rate) +
                      2.0 * (k3.slew * rate) + k4.slew * rate);
    tan_phi = slew.shifted(
        tan_phi, k1.slew + 2 * k2.slew + 2 * k3.slew + k4.slew);
    v = std::max(0.0, v - amax * h);
    cap_start = cap_end;
    t += h;
  }

  // Components are expressed in the reference (lane) frame that theta0 is
  // measured against: a heading error at maneuver start therefore shows up
  // as lateral displacement, which is exactly the lane-violation hazard.
  out.longitudinal = x;
  out.lateral = y;
  out.stop_time = t_stop;
  return out;
}

}  // namespace

StoppingDistance stopping_distance(double amax, double v0, double theta0,
                                   double phi0, double wheelbase, double dt,
                                   double steering_release_rate) {
  // P is most of a scene's cost and all of a prediction's, so its wall time
  // is observed on every call (two clock reads and one observe).
  static obs::Histogram& wall_hist =
      obs::metrics().histogram("kinematics.stopping_distance_seconds");
  const auto start = std::chrono::steady_clock::now();
  const StoppingDistance out = integrate_stop(
      amax, v0, theta0, phi0, wheelbase, dt, steering_release_rate);
  wall_hist.observe(
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count());
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
