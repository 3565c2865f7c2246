#include "kinematics/stopping.h"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "obs/metrics.h"

namespace drivefi::kinematics {

namespace {

constexpr double kLaneHoldGain = 1.2;    // rad of steering per rad of heading
constexpr double kLaneHoldLimit = 0.55;  // rad, bound on the lane-hold command
// The heading error at which the lane-hold command reaches its bound.
constexpr double kClampHeading = kLaneHoldLimit / kLaneHoldGain;
// Friction cap shared with the bicycle model: while braking at amax the
// combined-slip budget leaves this share of it for lateral acceleration,
// so |applied steering| <= atan(kCapShare amax L / v^2).
constexpr double kCapShare = 0.7;
// |command - phi0| within which the steering starts on the command.
constexpr double kOnCommand = 1e-12;
// How closely a segment end is found, in seconds. Finding it late by d
// moves d_stop by O(d^2), since every rate that changes there is
// continuous except at v = 1 m/s, which is found in closed form.
constexpr double kLandingTolerance = 1e-8;
constexpr int kMaxLandingIterations = 64;
// A heading within this of the lane-hold clamp's boundary counts as on it.
constexpr double kClampTolerance = 1e-9;

// The 8-point Gauss-Legendre rule on [-1, 1]: its positive nodes and their
// weights (the rule is symmetric).
constexpr double kGaussNode[4] = {0.1834346424956498, 0.5255324099163290,
                                  0.7966664774136267, 0.9602898564975363};
constexpr double kGaussWeight[4] = {0.3626837833783620, 0.3137066458778873,
                                    0.2223810344533745, 0.1012285362903763};

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

// The first tau in (0, b] with g(tau) <= 0, given g(b) <= 0: 0 itself if
// g(0) < 0 already. A segment that starts where the last one ended has
// g(0) = 0 exactly, and land() then bisects away from it.
template <class G>
double first_crossing(const G& g, double b, double gb) {
  const double g0 = g(0.0);
  return g0 < 0.0 ? 0.0 : land(g, 0.0, g0, b, gb);
}

enum class Steering { kFrozen, kSlew, kSlide };

// One call of P, segment by segment. Each step() solves one segment: in
// closed form while the steering slides, is frozen or is under the
// friction cap, and with RK4 steps while it slews below the cap. Flags
// change only at the boundary that changes them, so rounding there cannot
// make P find the same boundary twice. Every boundary function reads the
// speed as speed(t_ + tau), so the segment on each side of a boundary
// evaluates it at bit-identical arguments.
class Stop {
 public:
  Stop(double amax, double v0, double theta0, double phi0, double wheelbase,
       double rate)
      : v0_(v0),
        amax_(amax),
        wheelbase_(wheelbase),
        inv_wheelbase_(1.0 / wheelbase),
        cap_budget_(kCapShare * amax * wheelbase),
        rate_(rate),
        t_stop_(v0 / amax),
        t_low_((v0 - 1.0) / amax),
        v_exit_(kLaneHoldGain * kCapShare * amax / rate),
        low_(v0 <= 1.0) {
    pose_.theta = theta0;
    phi_ = phi0;
    capped_ = !low_ && std::abs(phi0) > limit(v0);
    const double err = lane_hold(theta0) - phi0;
    if (rate_ == 0.0) {
      mode_ = Steering::kFrozen;
    } else if (std::abs(err) > kOnCommand) {
      slew_ = err > 0.0 ? 1 : -1;
      ++seen_.slews;
    } else {
      meet();
    }
  }

  // Solves one segment; false once the vehicle stands.
  bool step() {
    switch (mode_) {
      case Steering::kFrozen:
        return frozen();
      case Steering::kSlide:
        return slide();
      case Steering::kSlew:
        if (!landing()) {
          // Past the event cap the steering follows the command exactly.
          meet();
          return true;
        }
        return capped_ ? capped_slew() : rk4_slew();
    }
    return false;
  }

  const StopPose& pose() const { return pose_; }
  const StopEvents& events() const { return seen_; }

 private:
  enum class End { kLowSpeed, kRelease, kClamp, kRateExit, kMeet };

  double speed(double t) const { return v0_ - amax_ * t; }
  // The friction cap above 1 m/s. At and below it the steering limit is
  // 1 rad, which no steering angle P reaches exceeds.
  double limit(double v) const { return std::atan(cap_budget_ / (v * v)); }
  bool landing() const { return seen_.switches < kMaxStopEvents; }

  // Ends a capped segment at time t, where its steering angle sign is
  // `sign`, and counts the boundary.
  void end_capped(double t, int sign) {
    pose_ = capped_arc(pose_, speed(t_), speed(t), amax_, sign);
    t_ = t;
    ++seen_.capped_arcs;
    ++seen_.switches;
  }
  void reach_low_speed() {
    low_ = true;
    capped_ = false;
    seen_.low_speed = true;
  }
  void release_cap() {
    capped_ = false;
    ++seen_.cap_kinks;
  }

  // Puts the steering on the lane-hold command with the current flags. It
  // slides there if the command moves no faster than the rate (Filippov's
  // sliding mode, the limit of the bang-bang slew's chatter as the step
  // shrinks), and otherwise slews after the command.
  void settle() {
    const double v = speed(t_);
    const double command = lane_hold(pose_.theta);
    bool slides = true;
    if (landing() && !saturated_) {
      // Under the cap |dT/dt| = 1.2 * 0.7 amax / v, which exceeds the rate
      // below v_exit_; below it, 1.2 v tan|T| / L.
      slides = capped_ ? v > v_exit_
                       : kLaneHoldGain * v * std::tan(std::abs(command)) *
                                 inv_wheelbase_ <=
                             rate_;
    }
    const bool was_sliding = mode_ == Steering::kSlide;
    if (slides) {
      mode_ = Steering::kSlide;
      seen_.slides += !was_sliding;
    } else {
      // The command moves toward zero: dT/dt = -1.2 dtheta/dt.
      mode_ = Steering::kSlew;
      phi_ = command;
      slew_ = command > 0.0 ? -1 : 1;
      seen_.slide_exits += was_sliding;
      ++seen_.slews;
    }
  }

  // The steering has met the lane-hold command.
  void meet() {
    saturated_ = kLaneHoldGain * std::abs(pose_.theta) > kLaneHoldLimit;
    capped_ = !low_ && std::abs(lane_hold(pose_.theta)) > limit(speed(t_));
    settle();
  }

  // Frozen steering: under the cap until atan(c / v^2) = |phi|, or until
  // v = 1 m/s, then held to standstill.
  bool frozen() {
    if (capped_) {
      const double v_release =
          std::sqrt(cap_budget_ / std::tan(std::abs(phi_)));
      const bool releases = v_release > 1.0;
      end_capped(releases ? std::max(t_, (v0_ - v_release) / amax_) : t_low_,
                 phi_ > 0.0 ? 1 : -1);
      if (releases)
        release_cap();
      else
        reach_low_speed();
      return true;
    }
    const double v = speed(t_);
    pose_ = held_arc(pose_, v * v / (2.0 * amax_), phi_, wheelbase_);
    ++seen_.held_arcs;
    return false;
  }

  bool slide() {
    const double v = speed(t_);
    if (!capped_ && !saturated_) {
      // The command moves ever slower as v and |theta| fall, and the cap
      // widens, so the slide lasts to standstill.
      pose_ = slide_to_stop(pose_, v, amax_, wheelbase_);
      seen_.slid_to_stop = true;
      return false;
    }
    const double command = lane_hold(pose_.theta);
    const int sign = command > 0.0 ? 1 : -1;
    if (!capped_) {
      // Held on the clamp below the cap: |theta| falls linearly in arc
      // length until the command leaves the clamp, and the cap, which only
      // widens, cannot bind again.
      const double path = v * v / (2.0 * amax_);
      const double to_release =
          (std::abs(pose_.theta) - kClampHeading) /
          std::abs(std::tan(command) * inv_wheelbase_);
      ++seen_.held_arcs;
      if (!(to_release < path)) {
        pose_ = held_arc(pose_, path, command, wheelbase_);
        return false;
      }
      pose_ = held_arc(pose_, to_release, command, wheelbase_);
      pose_.theta = std::copysign(kClampHeading, pose_.theta);
      // Below the cap, passing v = 1 m/s changes nothing.
      t_ = (v0_ - std::sqrt(v * v - 2.0 * amax_ * to_release)) / amax_;
      low_ = low_ || t_ >= t_low_;
      saturated_ = false;
      ++seen_.switches;
      settle();
      return true;
    }

    // Under the cap the steering turns the heading toward zero, so |theta|
    // falls, and the cap lets go at the latest at v = 1 m/s. Each other end
    // is a closed form in v, except where the cap lets go of an unclamped
    // command: there 1.2 |theta| - atan(c / v^2), concave and falling in
    // time, crosses zero once.
    const double beta = -kCapShare * sign;
    double t_end = t_low_, v_end = 1.0;
    End end = End::kLowSpeed;
    const auto consider = [&](double v_event, End e) {
      if (v_event > v_end && v_event < v) {
        v_end = v_event;
        t_end = (v0_ - v_event) / amax_;
        end = e;
      }
    };
    if (saturated_) {
      consider(v * std::exp((std::copysign(kClampHeading, pose_.theta) -
                             pose_.theta) /
                            beta),
               End::kClamp);
      consider(std::sqrt(cap_budget_ / std::tan(kLaneHoldLimit)),
               End::kRelease);
    } else {
      if (landing()) consider(v_exit_, End::kRateExit);
      const auto cap_gap = [&](double tau) {
        const double u = speed(t_ + tau);
        return sign * kLaneHoldGain * -(pose_.theta + beta * std::log(u / v)) -
               limit(u);
      };
      const double tau_end = t_end - t_;
      const double g_end = cap_gap(tau_end);
      if (g_end <= 0.0) {
        t_end = t_ + first_crossing(cap_gap, tau_end, g_end);
        end = End::kRelease;
      }
    }
    end_capped(t_end, sign);
    switch (end) {
      case End::kLowSpeed:
        reach_low_speed();
        settle();
        break;
      case End::kRelease:
        release_cap();
        settle();
        break;
      case End::kClamp:
        saturated_ = false;
        settle();
        break;
      case End::kRateExit:
        mode_ = Steering::kSlew;
        phi_ = lane_hold(pose_.theta);
        slew_ = -sign;
        ++seen_.slide_exits;
        ++seen_.slews;
        break;
      case End::kMeet:
        break;
    }
    return true;
  }

  // A slew under the cap. The applied steering is sign(phi) atan(c / v^2),
  // so the heading is the closed form of capped_arc, and every end is a
  // closed form in time or the single crossing of an explicit function:
  //   - v = 1 m/s;
  //   - the cap lets go: |phi(tau)| - atan(c / v^2) is concave while |phi|
  //     is linear (the cap is convex in time below pi / 3 rad), so it
  //     crosses zero at most once, and before phi reaches zero;
  //   - the slew meets the command: between the command's clamp
  //     boundaries, which are closed forms, the gap is linear (clamped),
  //     concave, or convex with its minimum where v = v_exit_;
  //   - the steering reaches the far bound of +-0.55 rad, by which it has
  //     met the command.
  bool capped_slew() {
    const double v = speed(t_);
    const int sign = phi_ > 0.0 ? 1 : -1;
    const double beta = -kCapShare * sign;
    const auto steer_at = [&](double tau) { return phi_ + slew_ * rate_ * tau; };
    const auto theta_at = [&](double tau) {
      return pose_.theta + beta * std::log(speed(t_ + tau) / v);
    };

    double tau_end = t_low_ - t_;
    End end = End::kLowSpeed;
    const auto consider = [&](double tau, End e) {
      if (tau < tau_end) {
        tau_end = tau;
        end = e;
      }
    };
    consider((slew_ > 0 ? kLaneHoldLimit - phi_ : phi_ + kLaneHoldLimit) /
                 rate_,
             End::kMeet);
    if (slew_ != sign) consider(std::abs(phi_) / rate_, End::kRelease);
    // The command's clamp over this piece, and where it changes as the
    // heading moves toward `sign`. On the boundary, the clamp is the side
    // the heading moves to.
    const double over = kLaneHoldGain * std::abs(pose_.theta) - kLaneHoldLimit;
    const bool outward = (pose_.theta > 0.0) == (sign > 0);
    const bool clamped =
        std::abs(over) > kClampTolerance ? over > 0.0 : outward;
    if (!(clamped && outward)) {
      const double boundary = clamped
                                  ? std::copysign(kClampHeading, pose_.theta)
                                  : sign * kClampHeading;
      const double v_clamp = v * std::exp((boundary - pose_.theta) / beta);
      if (v_clamp < v) consider((v - v_clamp) / amax_, End::kClamp);
    }

    // The slew meets the command first, if at all, within meet_end.
    const auto gap = [&](double tau) {
      return slew_ * (lane_hold(theta_at(tau)) - steer_at(tau));
    };
    double meet_end = tau_end;
    bool may_meet = true;
    if (!clamped && slew_ * beta > 0.0) {
      // The command runs from the steering ever faster as v falls: the gap
      // is convex, falling only until v = v_exit_. A slew that starts on
      // the command was chosen because it already rises there.
      meet_end = std::min(tau_end, (v - v_exit_) / amax_);
      may_meet = meet_end > 0.0 && gap(0.0) > 0.0;
    }
    if (may_meet) {
      const double g_end = gap(meet_end);
      if (g_end <= 0.0) {
        tau_end = first_crossing(gap, meet_end, g_end);
        end = End::kMeet;
      }
    }
    // ... unless the cap lets go before.
    const auto cap_gap = [&](double tau) {
      return sign * steer_at(tau) - limit(speed(t_ + tau));
    };
    const double g_end = cap_gap(tau_end);
    if (g_end <= 0.0) {
      tau_end = first_crossing(cap_gap, tau_end, g_end);
      end = End::kRelease;
    }

    const double phi_end = steer_at(tau_end);
    end_capped(end == End::kLowSpeed ? t_low_ : t_ + tau_end, sign);
    phi_ = phi_end;
    switch (end) {
      case End::kLowSpeed:
        reach_low_speed();
        break;
      case End::kRelease:
        release_cap();
        break;
      case End::kMeet:
        meet();
        break;
      case End::kClamp:  // the command changes form; the slew goes on
      case End::kRateExit:
        break;
    }
    return true;
  }

  // A slew below the cap: one RK4 step, cut short at the slew's events.
  // The yaw rate v tan(phi) / L is explicit in time here, so RK4's
  // heading is Simpson's rule on it, and the meeting with the command is
  // found on that heading alone.
  bool rk4_slew() {
    const double v = speed(t_);
    double h = std::min(kStopStep, t_stop_ - t_);
    bool met = false, kink = false, to_low = false;
    // A slew toward a command inside +-0.55 rad meets it by the time the
    // steering reaches the far bound.
    const double room =
        slew_ > 0 ? kLaneHoldLimit - phi_ : phi_ + kLaneHoldLimit;
    if (room / rate_ <= h) {
      h = std::max(0.0, room / rate_);
      met = true;
    }
    if (!low_ && t_low_ - t_ <= h) {
      h = std::max(0.0, t_low_ - t_);
      to_low = true;
      met = false;
    }

    const auto steer_at = [&](double tau) { return phi_ + slew_ * rate_ * tau; };
    const auto yaw = [&](double tau) {
      return (v - amax_ * tau) * std::tan(steer_at(tau)) * inv_wheelbase_;
    };
    const double yaw0 = yaw(0.0);
    const auto heading = [&](double tau) {
      return pose_.theta +
             tau / 6.0 * (yaw0 + 4.0 * yaw(0.5 * tau) + yaw(tau));
    };
    const auto gap = [&](double tau) {
      return slew_ * (lane_hold(heading(tau)) - steer_at(tau));
    };
    const double g_end = gap(h);
    if (g_end <= 0.0) {
      if (g_end < 0.0) {
        const double s = first_crossing(gap, h, g_end);
        if (s < h) {
          h = s;
          to_low = false;
        }
      }
      met = true;
    }
    // While the steering is explicit in time, so is the cap: land on the
    // instant |phi| reaches atan(c / v^2). The gap rises while |phi| falls,
    // so a slew toward zero cannot meet the cap before phi = 0.
    const double from = slew_ * phi_ < 0.0 ? std::abs(phi_) / rate_ : 0.0;
    if (!low_ && from < h) {
      const auto cap_gap = [&](double tau) {
        return limit(speed(t_ + tau)) - std::abs(steer_at(tau));
      };
      const double c_end = cap_gap(h);
      if (c_end < 0.0) {
        const double s = land(cap_gap, from, cap_gap(from), h, c_end);
        if (s < h) met = to_low = false;
        h = s;
        kink = true;
      }
    }

    const double hh = 0.5 * h;
    const double v_half = v - amax_ * hh;
    const double v_end = v - amax_ * h;
    const double yaw_half = yaw(hh);
    const double th = pose_.theta;
    const double th2 = th + hh * yaw0;
    const double th3 = th + hh * yaw_half;
    const double th4 = th + h * yaw_half;
    const double w = h / 6.0;
    pose_.x += w * (v * std::cos(th) + 2.0 * v_half * std::cos(th2) +
                    2.0 * v_half * std::cos(th3) + v_end * std::cos(th4));
    pose_.y += w * (v * std::sin(th) + 2.0 * v_half * std::sin(th2) +
                    2.0 * v_half * std::sin(th3) + v_end * std::sin(th4));
    pose_.theta = heading(h);
    phi_ = steer_at(h);
    t_ = to_low ? t_low_ : t_ + h;
    ++seen_.rk4_steps;

    if (kink) {
      capped_ = true;
      ++seen_.cap_kinks;
      ++seen_.switches;
    }
    if (to_low) reach_low_speed();
    if (met) {
      ++seen_.switches;
      meet();
    }
    return t_ < t_stop_;
  }

  // Constants of the call.
  const double v0_, amax_, wheelbase_, inv_wheelbase_;
  const double cap_budget_;  // 0.7 amax L
  const double rate_;        // steering release rate, rad/s; 0 freezes it
  const double t_stop_, t_low_;  // when v = 0 and v = 1 m/s
  // Below this speed a command under the cap moves faster than the rate.
  const double v_exit_;

  // Where the stop is.
  double t_ = 0.0;
  StopPose pose_;
  Steering mode_ = Steering::kSlew;
  double phi_ = 0.0;  // the steering angle while it slews or is frozen
  int slew_ = 0;      // +1 / -1 while it slews
  bool low_;          // at or below 1 m/s
  bool capped_ = false;     // the friction cap binds the steering
  bool saturated_ = false;  // a slide's command sits on its +-0.55 rad clamp
  StopEvents seen_;
};

StoppingDistance integrate_stop(double amax, double v0, double theta0,
                                double phi0, double wheelbase, double rate,
                                StopEvents* events) {
  StoppingDistance out;
  // The inputs may be *believed* state reconstructed from corrupted ADS
  // variables (that is the whole point of fault injection), so they must
  // be sanitized first: a bit-flipped speed of 1e300 m/s would otherwise
  // make the stop astronomically long. Values are clamped to generous
  // physical envelopes -- the procedure P models a road vehicle, and any
  // clamped input is already far beyond every safety threshold it feeds.
  if (!std::isfinite(v0) || !std::isfinite(theta0) || !std::isfinite(phi0) ||
      !std::isfinite(amax))
    return out;
  constexpr double kMaxSpeed = 150.0;     // m/s, > any road vehicle
  constexpr double kMaxSteer = 1.0;       // rad, past full mechanical lock
  v0 = std::min(v0, kMaxSpeed);
  phi0 = std::clamp(phi0, -kMaxSteer, kMaxSteer);
  if (v0 <= 0.0 || amax <= 0.0) return out;

  Stop stop(amax, v0, theta0, phi0, wheelbase, rate > 0.0 ? rate : 0.0);
  while (stop.step()) {
  }
  // Components are expressed in the reference (lane) frame that theta0 is
  // measured against: a heading error at maneuver start therefore shows up
  // as lateral displacement, which is exactly the lane-violation hazard.
  out.longitudinal = stop.pose().x;
  out.lateral = stop.pose().y;
  // dv/dt = -amax is constant, so the stop time is exactly v0 / amax.
  out.stop_time = v0 / amax;
  if (events) *events = stop.events();
  return out;
}

}  // namespace

StopPose slide_to_stop(const StopPose& p, double v, double amax,
                       double wheelbase) {
  // With w = exp(-1.2 s / L), ds = -(L / 1.2) dw / w turns the remaining
  // path S = v^2 / (2 amax) into w in [exp(-1.2 S / L), 1], where
  //   x = S - (L / 1.2) int 2 sin^2(theta / 2) / w dw,
  //   y = (L / 1.2) int sin(theta) / w dw,
  // with theta(w) = asin(sin(1.2 theta_a) w) / 1.2. Both integrands are
  // smooth (analytic out to |w| = 1 / sin(0.55) ~ 1.9), so the 8-point
  // Gauss-Legendre rule is exact to rounding, and a straight stop is
  // exactly S.
  const double path = v * v / (2.0 * amax);
  const double sin_a = std::sin(kLaneHoldGain * p.theta);
  const double w_end = std::exp(-kLaneHoldGain * path / wheelbase);
  const double mid = 0.5 * (1.0 + w_end);
  const double half = 0.5 * (1.0 - w_end);
  double bend = 0.0, drift = 0.0;
  for (int i = 0; i < 4; ++i) {
    for (const double w :
         {mid - half * kGaussNode[i], mid + half * kGaussNode[i]}) {
      const double half_theta =
          std::asin(sin_a * w) / (2.0 * kLaneHoldGain);
      const double s = std::sin(half_theta);
      const double c = std::cos(half_theta);
      bend += kGaussWeight[i] * (2.0 * s * s) / w;
      drift += kGaussWeight[i] * (2.0 * s * c) / w;
    }
  }
  const double scale = half * wheelbase / kLaneHoldGain;
  return StopPose{p.x + (path - scale * bend), p.y + scale * drift,
                  std::asin(sin_a * w_end) / kLaneHoldGain};
}

// -ffp-contract=off does not stop GCC's SLP vectorizer from pairing the x
// and y sums below into a fused vfmsubadd on an FMA target, so that pass
// is off here and an x86-64-v3 build rounds as the default one does.
__attribute__((optimize("no-tree-slp-vectorize"))) StopPose capped_arc(
    const StopPose& p, double va, double vb, double amax, int sign) {
  // dtheta/dv = beta / v with beta = -0.7 sign, and dx = -v cos(theta) dv /
  // amax. F = v^2 (2 cos + beta sin) / (4 + beta^2) has dF/dv = v cos(theta)
  // and G = v^2 (2 sin - beta cos) / (4 + beta^2) has dG/dv = v sin(theta).
  const double beta = -kCapShare * sign;
  const double theta_b = p.theta + beta * std::log(vb / va);
  const double ca = std::cos(p.theta), sa = std::sin(p.theta);
  const double cb = std::cos(theta_b), sb = std::sin(theta_b);
  const double scale = 1.0 / ((4.0 + beta * beta) * amax);
  const double a2 = va * va, b2 = vb * vb;
  return StopPose{
      p.x + scale * (a2 * (2.0 * ca + beta * sa) - b2 * (2.0 * cb + beta * sb)),
      p.y + scale * (a2 * (2.0 * sa - beta * ca) - b2 * (2.0 * sb - beta * cb)),
      theta_b};
}

StopPose held_arc(const StopPose& p, double s, double phi, double wheelbase) {
  // The heading turns linearly, theta = theta_a + k s with k = tan(phi) /
  // L, so the chord is s sin(k s / 2) / (k s / 2) along theta_a + k s / 2.
  const double turn = std::tan(phi) / wheelbase * s;
  const double half = 0.5 * turn;
  const double chord = half == 0.0 ? s : s * (std::sin(half) / half);
  const double mid = p.theta + half;
  return StopPose{p.x + chord * std::cos(mid), p.y + chord * std::sin(mid),
                  p.theta + turn};
}

StoppingDistance stopping_distance(double amax, double v0, double theta0,
                                   double phi0, double wheelbase,
                                   double steering_release_rate,
                                   StopEvents* events) {
  // P is a share of a scene's cost and all of a prediction's, so its wall
  // time is observed on every call (two clock reads and one observe).
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
