#include "kinematics/stopping.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>

#include "obs/metrics.h"

namespace drivefi::kinematics {

namespace {

constexpr double kLaneHoldGain = 1.2;    // rad of steering per rad of heading
constexpr double kLaneHoldLimit = 0.55;  // rad, bound on the lane-hold command
// |command - phi0| within which the steering starts on the command.
constexpr double kOnCommand = 1e-12;
// How closely a step lands on an event, in seconds. Landing late by d
// moves d_stop by O(d^2), since every rate that changes there is
// continuous except at v = 1 m/s, which is landed on in closed form.
constexpr double kLandingTolerance = 1e-8;
constexpr int kMaxLandingIterations = 64;

// The lane-hold command T(theta): the steering that decays the heading
// error, clamped to the actuator's range.
double lane_hold(double theta) {
  return std::clamp(-kLaneHoldGain * theta, -kLaneHoldLimit, kLaneHoldLimit);
}

// The first s in (a, b] with g(s) <= 0, given g(a) > 0 >= g(b), within
// kLandingTolerance (Illinois false position). The result is on the
// event's far side, so the state there already belongs to the next mode.
template <class G>
double land(const G& g, double a, double ga, double b, double gb) {
  int kept = 0;  // +1 if the last iteration kept b, -1 if it kept a
  for (int i = 0; i < kMaxLandingIterations && gb != 0.0 &&
                  b - a > kLandingTolerance;
       ++i) {
    double c = (a * gb - b * ga) / (gb - ga);
    if (!(c > a && c < b)) c = 0.5 * (a + b);
    const double gc = g(c);
    if (gc > 0.0) {
      a = c;
      ga = gc;
      if (kept == 1) gb *= 0.5;
      kept = 1;
    } else {
      b = c;
      gb = gc;
      if (kept == -1) ga *= 0.5;
      kept = -1;
    }
  }
  return b;
}

// Position and heading, which RK4 integrates. Speed is explicit in time
// (dv/dt = -amax), and so is the steering except while it slides.
struct Pose {
  double x, y, theta;
};

// One call of P: its constants and the steering law of the current step.
struct Stop {
  double amax;
  double inv_wheelbase;
  double cap_budget;  // 0.7 * amax * wheelbase
  double rate;        // steering release rate, rad/s; 0 freezes the steering
  bool low_speed;     // at or below 1 m/s, where the steering limit is 1 rad
  // The steering slides on lane_hold(theta), or else is phi + slew * rate
  // * tau at tau seconds into the step (slew 0 when frozen).
  bool slide;
  int slew;
  double phi;

  // Friction cap shared with the bicycle model: while braking at amax the
  // combined-slip budget leaves a reduced lateral allowance, approximated
  // as a constant fraction of the longitudinal authority.
  double steer_limit(double v) const {
    return low_speed ? 1.0 : std::atan(cap_budget / (v * v));
  }
  double steering(double tau, double theta) const {
    return slide ? lane_hold(theta) : phi + slew * rate * tau;
  }
  double yaw_rate(double v, double steer, double limit) const {
    return v * std::tan(std::clamp(steer, -limit, limit)) * inv_wheelbase;
  }

  // Paper eq. (6) at tau seconds into a step that starts at speed v.
  Pose rates(double tau, double v, double limit, double theta) const {
    return Pose{v * std::cos(theta), v * std::sin(theta),
                yaw_rate(v, steering(tau, theta), limit)};
  }
};

// The pose h seconds after `p`, one RK4 step from speed v (whose steering
// limit is `limit`), with the steering limit at the step's end.
struct Rk4Step {
  Pose pose;
  double limit;
};

Rk4Step rk4(const Stop& m, const Pose& p, double v, double limit, double h) {
  const double hh = 0.5 * h;
  const double v_half = v - m.amax * hh;
  const double v_end = v - m.amax * h;
  const double limit_half = m.steer_limit(v_half);
  const double limit_end = m.steer_limit(v_end);
  const Pose k1 = m.rates(0.0, v, limit, p.theta);
  const Pose k2 = m.rates(hh, v_half, limit_half, p.theta + hh * k1.theta);
  const Pose k3 = m.rates(hh, v_half, limit_half, p.theta + hh * k2.theta);
  const Pose k4 = m.rates(h, v_end, limit_end, p.theta + h * k3.theta);
  const double w = h / 6.0;
  return Rk4Step{
      Pose{p.x + w * (k1.x + 2.0 * k2.x + 2.0 * k3.x + k4.x),
           p.y + w * (k1.y + 2.0 * k2.y + 2.0 * k3.y + k4.y),
           p.theta +
               w * (k1.theta + 2.0 * k2.theta + 2.0 * k3.theta + k4.theta)},
      limit_end};
}

StoppingDistance integrate_stop(double amax, double v0, double theta0,
                                double phi0, double wheelbase, double rate,
                                StopEvents* events) {
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

  // The stop time is exactly v0/amax since dv/dt = -amax is constant; the
  // last step lands on it.
  const double t_stop = v0 / amax;
  const double t_low = (v0 - 1.0) / amax;  // when v = 1 m/s
  Stop m{amax,        1.0 / wheelbase, 0.7 * amax * wheelbase,
         rate > 0.0 ? rate : 0.0,      v0 <= 1.0,
         false,       0,               phi0};
  StopEvents seen;
  Pose pose{0.0, 0.0, theta0};
  // Flags of the current segment. They change only where P lands on the
  // event that changes them, on its far side, so rounding at an event
  // cannot make P land on it twice.
  bool capped = false;     // the friction cap binds the steering
  bool saturated = false;  // sliding on lane_hold's clamp at +-0.55 rad

  // Puts the steering on the lane-hold command at speed v. It slides there
  // if the command moves no faster than the rate (Filippov's sliding mode,
  // the limit of the bang-bang slew's chatter as the step shrinks), and
  // otherwise slews after the command.
  const auto settle = [&](double v, double limit, double theta) {
    const bool was_sliding = m.slide;
    m.phi = lane_hold(theta);
    saturated = kLaneHoldGain * std::abs(theta) > kLaneHoldLimit;
    const double command_rate =
        saturated ? 0.0 : -kLaneHoldGain * m.yaw_rate(v, m.phi, limit);
    if (std::abs(command_rate) <= m.rate) {
      m.slide = true;
      m.slew = 0;
      seen.slides += !was_sliding;
    } else {
      m.slide = false;
      m.slew = command_rate > 0.0 ? 1 : -1;
      seen.slide_exits += was_sliding;
      ++seen.slews;
    }
  };

  if (m.rate > 0.0) {
    const double err = lane_hold(theta0) - phi0;
    if (std::abs(err) > kOnCommand) {
      m.slew = err > 0.0 ? 1 : -1;
      ++seen.slews;
    } else {
      settle(v0, m.steer_limit(v0), theta0);
    }
  }
  capped = !m.low_speed &&
           std::abs(m.steering(0.0, theta0)) > m.steer_limit(v0);

  // Positive while a slide keeps its regime: the command stays clamped (or
  // not), the cap keeps binding (or not), and, while it binds, the command
  // moves no faster than the rate. Unclamped and uncapped, |dT/dt| only
  // falls as v and |theta| do, so the slide cannot end there.
  struct SlideGaps {
    double clamp, cap, rate;
    double min() const { return std::min({clamp, cap, rate}); }
  };
  const auto slide_gaps = [&](const Pose& p, double v, double limit) {
    constexpr double kNone = std::numeric_limits<double>::infinity();
    const double command = lane_hold(p.theta);
    SlideGaps g{kNone, kNone, kNone};
    if (saturated)
      g.clamp = kLaneHoldGain * std::abs(p.theta) - kLaneHoldLimit;
    if (!m.low_speed) {
      const double over = std::abs(command) - limit;
      g.cap = capped ? over : -over;
    }
    if (capped && !saturated)
      g.rate = m.rate - kLaneHoldGain * std::abs(m.yaw_rate(v, command, limit));
    return g;
  };

  double t = 0.0;
  double limit = m.steer_limit(v0);  // at the start of each step
  while (t < t_stop) {
    const double v = v0 - amax * t;
    const bool landing = seen.switches < kMaxStopEvents;
    if (!landing && !m.slide && m.slew != 0) {
      // Past the event cap the steering follows the command exactly.
      m.slide = true;
      saturated = kLaneHoldGain * std::abs(pose.theta) > kLaneHoldLimit;
      capped = false;
    }

    double h = std::min(kStopStep, t_stop - t);
    if (m.slide && !capped && !saturated) {
      // Sliding below the cap, dtheta/dt ~ -1.2 v theta / L: RK4 keeps
      // h * 1.2 v / L <= 1.
      h = std::min(h, std::max(kStopStep / 16.0,
                               1.0 / (kLaneHoldGain * v * m.inv_wheelbase)));
    }
    bool slew_ends = false;
    if (!m.slide && m.slew != 0) {
      // A slew toward a command inside +-0.55 rad meets it by the time the
      // steering reaches the far bound.
      const double room =
          m.slew > 0 ? kLaneHoldLimit - m.phi : m.phi + kLaneHoldLimit;
      if (room / m.rate <= h) {
        h = std::max(0.0, room / m.rate);
        slew_ends = true;
      }
    }
    bool to_low = false;
    if (!m.low_speed && t_low - t <= h) {
      h = std::max(0.0, t_low - t);
      to_low = true;
      slew_ends = false;
    }

    // While the steering is explicit in time, so is the cap: land on the
    // instant |phi| crosses atan(0.7 amax L / v^2). A slew through zero
    // crosses a narrow cap twice in one step, so a binding cap is also
    // tested where phi = 0, where it cannot bind.
    bool kink = false;
    if (landing && !m.slide && !m.low_speed) {
      const auto cap_gap = [&](double tau) {
        const double over =
            std::abs(m.steering(tau, 0.0)) - m.steer_limit(v - amax * tau);
        return capped ? over : -over;
      };
      const double through_zero = m.slew != 0 ? -m.phi / (m.slew * m.rate) : 0.0;
      const double probe =
          capped && through_zero > 0.0 && through_zero < h ? through_zero : h;
      const double g_end = cap_gap(probe);
      if (g_end < 0.0) {
        const double s = land(cap_gap, 0.0, cap_gap(0.0), probe, g_end);
        if (s < h) to_low = slew_ends = false;
        h = s;
        kink = true;
      }
    }

    Rk4Step next = rk4(m, pose, v, limit, h);

    // Implicit events: a slew meets the command, or a slide changes regime.
    // Land on the first by root-finding on the step length. A slew cut at
    // the far bound has met the command at the step's end.
    bool met = false, slide_event = false;
    if (landing && (m.slide || m.slew != 0)) {
      const auto gap = [&](const Rk4Step& st, double s) {
        return m.slide
                   ? slide_gaps(st.pose, v - amax * s, st.limit).min()
                   : m.slew * (lane_hold(st.pose.theta) - m.steering(s, 0.0));
      };
      const double g_end = gap(next, h);
      if (g_end < 0.0 || (!m.slide && (g_end == 0.0 || slew_ends))) {
        if (g_end < 0.0) {
          const double s = land(
              [&](double s) { return gap(rk4(m, pose, v, limit, s), s); },
              0.0, gap(Rk4Step{pose, limit}, 0.0), h, g_end);
          if (s < h) {
            h = s;
            next = rk4(m, pose, v, limit, s);
            to_low = kink = false;
          }
        }
        (m.slide ? slide_event : met) = true;
      }
    }

    // Every test below sees the step's end state as the trial saw it.
    const double v_end = v - amax * h;
    const SlideGaps landed =
        slide_event ? slide_gaps(next.pose, v_end, next.limit) : SlideGaps{};
    pose = next.pose;
    if (!m.slide) m.phi += m.slew * m.rate * h;
    t = to_low ? t_low : t + h;

    if (kink) {
      capped = !capped;
      ++seen.cap_kinks;
      ++seen.switches;
    }
    if (slide_event) {
      ++seen.switches;
      if (landed.clamp <= 0.0) saturated = false;
      if (landed.cap <= 0.0) {
        capped = !capped;
        ++seen.cap_kinks;
      }
    }
    if (to_low) {
      // At and below 1 m/s the limit is 1 rad, and |phi| <= 1 throughout.
      m.low_speed = true;
      capped = false;
      seen.low_speed = true;
    }
    const double limit_end = to_low ? m.steer_limit(v_end) : next.limit;
    limit = limit_end;
    if (met) {
      ++seen.switches;
      settle(v_end, limit_end, pose.theta);
      capped = !m.low_speed &&
               std::abs(m.steering(0.0, pose.theta)) > limit_end;
    } else if (m.slide && (slide_event || to_low) && !saturated &&
               m.rate - kLaneHoldGain *
                            std::abs(m.yaw_rate(v_end, lane_hold(pose.theta),
                                                limit_end)) <=
                   0.0) {
      settle(v_end, limit_end, pose.theta);
    }
  }

  // Components are expressed in the reference (lane) frame that theta0 is
  // measured against: a heading error at maneuver start therefore shows up
  // as lateral displacement, which is exactly the lane-violation hazard.
  out.longitudinal = pose.x;
  out.lateral = pose.y;
  out.stop_time = t_stop;
  if (events) *events = seen;
  return out;
}

}  // namespace

StoppingDistance stopping_distance(double amax, double v0, double theta0,
                                   double phi0, double wheelbase,
                                   double steering_release_rate,
                                   StopEvents* events) {
  // P is most of a scene's cost and all of a prediction's, so its wall time
  // is observed on every call (two clock reads and one observe).
  static obs::Histogram& wall_hist =
      obs::metrics().histogram("kinematics.stopping_distance_seconds");
  const auto start = std::chrono::steady_clock::now();
  const StoppingDistance out = integrate_stop(
      amax, v0, theta0, phi0, wheelbase, steering_release_rate, events);
  wall_hist.observe(
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count());
  return out;
}

StoppingDistance stopping_distance(const VehicleState& state,
                                   const VehicleParams& params) {
  return stopping_distance(params.amax_comfort, state.v, state.theta,
                           state.phi, params.wheelbase, params.steering_rate);
}

double stopping_distance_straight(double amax, double v0) {
  if (v0 <= 0.0 || amax <= 0.0) return 0.0;
  return v0 * v0 / (2.0 * amax);
}

}  // namespace drivefi::kinematics
