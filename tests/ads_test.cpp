#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <iterator>
#include <limits>
#include <string>
#include <type_traits>
#include <vector>

#include "ads/ekf.h"
#include "ads/pid.h"
#include "ads/planner.h"
#include "ads/sensors.h"
#include "ads/tracker.h"
#include "ads/watchdog.h"
#include "sim/world.h"
#include "util/bits.h"
#include "util/matrix.h"
#include "util/rng.h"
#include "util/small_matrix.h"
#include "util/stats.h"

namespace drivefi::ads {
namespace {

// ---------- Sensors ----------

sim::WorldConfig world_with_lead(double gap, double lead_speed,
                                 int lead_lane = 1) {
  sim::WorldConfig config;
  config.ego_lane = 1;
  config.ego_speed = 30.0;
  sim::TvConfig tv;
  tv.name = "lead";
  tv.initial_gap = gap;
  tv.initial_lane = lead_lane;
  tv.initial_speed = lead_speed;
  tv.phases.push_back({0.0, lead_speed, 2.0, std::nullopt, 3.0});
  config.vehicles.push_back(tv);
  return config;
}

TEST(Sensors, GpsNearTruth) {
  sim::World world(world_with_lead(50.0, 28.0));
  util::Rng rng(1);
  GpsNoise noise;
  util::RunningStats err_x;
  for (int i = 0; i < 500; ++i) {
    const GpsMsg msg = sense_gps(world, noise, rng);
    err_x.add(msg.x - world.ego().x);
  }
  EXPECT_NEAR(err_x.mean(), 0.0, 0.1);
  EXPECT_NEAR(err_x.stddev(), noise.position_sigma, 0.05);
}

TEST(Sensors, ImuMeasuresYawRate) {
  sim::World world(world_with_lead(50.0, 28.0));
  world.mutable_ego().phi = 0.1;
  world.mutable_ego().v = 20.0;
  util::Rng rng(2);
  ImuNoise noise;
  noise.yaw_rate_sigma = 0.0;
  const ImuMsg msg = sense_imu(world, noise, rng);
  EXPECT_NEAR(msg.yaw_rate, 20.0 * std::tan(0.1) / 2.8, 1e-9);
}

// The object sensor's detections into a fresh message.
DetectionMsg sense(const sim::World& world, const ObjectSensorConfig& config,
                   util::Rng& rng) {
  DetectionMsg msg;
  sense_objects(world, config, rng, msg);
  return msg;
}

TEST(Sensors, ObjectsWithinRangeDetected) {
  sim::World world(world_with_lead(50.0, 28.0));
  util::Rng rng(3);
  ObjectSensorConfig config;
  config.dropout_probability = 0.0;
  const DetectionMsg msg = sense(world, config, rng);
  ASSERT_EQ(msg.detections.size(), 1u);
  EXPECT_NEAR(msg.detections[0].x, 50.0, 1.5);
}

TEST(Sensors, OutOfRangeInvisible) {
  sim::World world(world_with_lead(300.0, 28.0));
  util::Rng rng(4);
  ObjectSensorConfig config;
  config.range = 200.0;
  config.dropout_probability = 0.0;
  EXPECT_TRUE(sense(world, config, rng).detections.empty());
}

TEST(Sensors, OcclusionHidesVehicleBehindLead) {
  // Ego, lead at 40 m, hidden vehicle at 100 m, all same lane.
  sim::WorldConfig config = world_with_lead(40.0, 28.0);
  sim::TvConfig hidden;
  hidden.name = "hidden";
  hidden.initial_gap = 100.0;
  hidden.initial_lane = 1;
  hidden.initial_speed = 2.0;
  config.vehicles.push_back(hidden);

  sim::World world(config);
  util::Rng rng(5);
  ObjectSensorConfig sensor;
  sensor.dropout_probability = 0.0;
  const DetectionMsg msg = sense(world, sensor, rng);
  ASSERT_EQ(msg.detections.size(), 1u);  // only the lead
  EXPECT_NEAR(msg.detections[0].x, 40.0, 1.5);

  // Without occlusion modeling both are visible.
  sensor.model_occlusion = false;
  EXPECT_EQ(sense(world, sensor, rng).detections.size(), 2u);
}

TEST(Sensors, AdjacentLaneNotOccluding) {
  sim::WorldConfig config = world_with_lead(40.0, 28.0, /*lead_lane=*/2);
  sim::TvConfig far;
  far.name = "far";
  far.initial_gap = 100.0;
  far.initial_lane = 1;
  far.initial_speed = 20.0;
  config.vehicles.push_back(far);

  sim::World world(config);
  util::Rng rng(6);
  ObjectSensorConfig sensor;
  sensor.dropout_probability = 0.0;
  EXPECT_EQ(sense(world, sensor, rng).detections.size(), 2u);
}

// ---------- EKF ----------

TEST(Ekf, InitializesFromFirstGps) {
  LocalizationEkf ekf;
  EXPECT_FALSE(ekf.initialized());
  GpsMsg gps;
  gps.x = 10.0;
  gps.y = 3.7;
  gps.heading = 0.01;
  ekf.update_gps(gps);
  EXPECT_TRUE(ekf.initialized());
  EXPECT_NEAR(ekf.estimate(0.0).x, 10.0, 1e-9);
}

TEST(Ekf, TracksConstantVelocityTruth) {
  LocalizationEkf ekf;
  util::Rng rng(7);
  const double v = 25.0;
  double true_x = 0.0;
  ekf.initialize(0.0, 0.0, 0.0, v);

  const double dt = 1.0 / 60.0;
  util::RunningStats err;
  for (int i = 0; i < 1200; ++i) {  // 20 s
    true_x += v * dt;
    ImuMsg imu;
    imu.accel = rng.gaussian(0.0, 0.05);
    imu.yaw_rate = rng.gaussian(0.0, 0.002);
    imu.speed = v + rng.gaussian(0.0, 0.1);
    ekf.predict(imu, dt);
    ekf.update_speed(imu.speed);
    if (i % 6 == 0) {  // 10 Hz GPS
      GpsMsg gps;
      gps.x = true_x + rng.gaussian(0.0, 0.4);
      gps.y = rng.gaussian(0.0, 0.4);
      gps.heading = rng.gaussian(0.0, 0.01);
      ekf.update_gps(gps);
    }
    if (i > 300) err.add(ekf.estimate(0.0).x - true_x);
  }
  EXPECT_LT(std::abs(err.mean()), 0.3);
  EXPECT_LT(err.stddev(), 0.5);
}

TEST(Ekf, FusionBeatsRawGps) {
  // The fused position error must be smaller than the raw GPS sigma --
  // the quantitative content of the paper's "EKF resilience" claim.
  LocalizationEkf ekf;
  util::Rng rng(8);
  const double v = 30.0;
  double true_x = 0.0;
  ekf.initialize(0.0, 0.0, 0.0, v);
  const double dt = 1.0 / 60.0;
  util::RunningStats fused_err, raw_err;
  for (int i = 0; i < 3000; ++i) {
    true_x += v * dt;
    ImuMsg imu;
    imu.accel = rng.gaussian(0.0, 0.05);
    imu.yaw_rate = rng.gaussian(0.0, 0.002);
    imu.speed = v + rng.gaussian(0.0, 0.1);
    ekf.predict(imu, dt);
    ekf.update_speed(imu.speed);
    if (i % 6 == 0) {
      GpsMsg gps;
      gps.x = true_x + rng.gaussian(0.0, 0.4);
      gps.y = rng.gaussian(0.0, 0.4);
      gps.heading = rng.gaussian(0.0, 0.01);
      ekf.update_gps(gps);
      if (i > 600) raw_err.add(gps.x - true_x);
    }
    if (i > 600) fused_err.add(ekf.estimate(0.0).x - true_x);
  }
  EXPECT_LT(fused_err.stddev(), raw_err.stddev());
}

TEST(Ekf, GateRejectsWildGps) {
  LocalizationEkf ekf;
  ekf.initialize(100.0, 3.7, 0.0, 30.0);
  // Settle the covariance a bit.
  ImuMsg imu;
  imu.speed = 30.0;
  for (int i = 0; i < 60; ++i) {
    ekf.predict(imu, 1.0 / 60.0);
    ekf.update_speed(30.0);
  }
  GpsMsg wild;
  // Teleport far beyond the gate *relative to the filter's own estimate*
  // (the state has been propagating at 30 m/s, so an absolute coordinate
  // would not be an outlier).
  wild.x = ekf.estimate(0.0).x + 30.0;
  wild.y = 3.7;
  wild.heading = 0.0;
  EXPECT_FALSE(ekf.update_gps(wild));
  GpsMsg sane;
  sane.x = ekf.estimate(0.0).x + 0.2;
  sane.y = 3.7;
  sane.heading = 0.0;
  EXPECT_TRUE(ekf.update_gps(sane));
}

TEST(Ekf, NeesConsistency) {
  // Average NEES over a long run should be near the state dimension (4);
  // we accept a broad band as a sanity property.
  LocalizationEkf ekf;
  util::Rng rng(9);
  const double v = 20.0;
  double true_x = 0.0;
  ekf.initialize(0.0, 0.0, 0.0, v);
  const double dt = 1.0 / 60.0;
  util::RunningStats nees;
  for (int i = 0; i < 2400; ++i) {
    true_x += v * dt;
    ImuMsg imu;
    imu.accel = rng.gaussian(0.0, 0.05);
    imu.yaw_rate = rng.gaussian(0.0, 0.002);
    imu.speed = v + rng.gaussian(0.0, 0.1);
    ekf.predict(imu, dt);
    ekf.update_speed(imu.speed);
    if (i % 6 == 0) {
      GpsMsg gps;
      gps.x = true_x + rng.gaussian(0.0, 0.4);
      gps.y = rng.gaussian(0.0, 0.4);
      gps.heading = rng.gaussian(0.0, 0.01);
      ekf.update_gps(gps);
    }
    if (i > 600) nees.add(ekf.nees(true_x, 0.0, 0.0, v));
  }
  EXPECT_GT(nees.mean(), 0.3);
  EXPECT_LT(nees.mean(), 20.0);
}

// ---------- Tracker ----------

DetectionMsg detections_at(double t, std::vector<std::pair<double, double>> xy,
                           double speed = 25.0) {
  DetectionMsg msg;
  msg.t = t;
  for (auto [x, y] : xy) {
    Detection det;
    det.x = x;
    det.y = y;
    det.speed_along = speed;
    msg.detections.push_back(det);
  }
  return msg;
}

// One tracker frame; returns the confirmed tracks.
std::vector<TrackedObject> confirmed(ObjectTracker& tracker,
                                     const DetectionMsg& msg, double t) {
  std::vector<TrackedObject> tracks;
  tracker.update(msg, t, tracks);
  return tracks;
}

TEST(Tracker, ConfirmationDelay) {
  ObjectTracker tracker;  // min_hits = 3
  const double dt = 1.0 / 30.0;
  EXPECT_TRUE(
      confirmed(tracker, detections_at(0.0, {{50.0, 0.0}}), 0.0).empty());
  EXPECT_TRUE(
      confirmed(tracker, detections_at(dt, {{50.8, 0.0}}), dt).empty());
  const auto tracks =
      confirmed(tracker, detections_at(2 * dt, {{51.6, 0.0}}), 2 * dt);
  ASSERT_EQ(tracks.size(), 1u);  // confirmed on the 3rd hit
  EXPECT_NEAR(tracks[0].x, 51.6, 1.0);
}

TEST(Tracker, VelocityEstimateConverges) {
  ObjectTracker tracker;
  const double dt = 1.0 / 30.0;
  const double v = 20.0;
  std::vector<TrackedObject> tracks;
  for (int i = 0; i < 60; ++i) {
    const double t = i * dt;
    tracker.update(detections_at(t, {{40.0 + v * t, 0.0}}, v), t, tracks);
  }
  ASSERT_EQ(tracks.size(), 1u);
  EXPECT_NEAR(tracks[0].vx, v, 1.0);
}

TEST(Tracker, DropsAfterMisses) {
  ObjectTracker tracker;  // max_misses = 5
  const double dt = 1.0 / 30.0;
  for (int i = 0; i < 10; ++i) {
    const double t = i * dt;
    confirmed(tracker, detections_at(t, {{50.0, 0.0}}), t);
  }
  EXPECT_EQ(tracker.live_track_count(), 1u);
  for (int i = 10; i < 17; ++i) {
    const double t = i * dt;
    confirmed(tracker, detections_at(t, {}), t);
  }
  EXPECT_EQ(tracker.live_track_count(), 0u);
}

TEST(Tracker, TwoObjectsKeepDistinctIds) {
  ObjectTracker tracker;
  const double dt = 1.0 / 30.0;
  std::vector<TrackedObject> tracks;
  for (int i = 0; i < 10; ++i) {
    const double t = i * dt;
    tracker.update(
        detections_at(t, {{50.0 + 25.0 * t, 0.0}, {80.0 + 20.0 * t, 3.7}}), t,
        tracks);
  }
  ASSERT_EQ(tracks.size(), 2u);
  EXPECT_NE(tracks[0].id, tracks[1].id);
}

TEST(Tracker, AnnotateLeadPicksInPathNearest) {
  WorldModelMsg world;
  TrackedObject near_in_path;
  near_in_path.x = 140.0;
  near_in_path.y = 3.7;
  near_in_path.vx = 20.0;
  TrackedObject far_in_path;
  far_in_path.x = 200.0;
  far_in_path.y = 3.7;
  TrackedObject adjacent;
  adjacent.x = 110.0;
  adjacent.y = 7.4;
  world.objects = {far_in_path, adjacent, near_in_path};

  LocalizationMsg ego;
  ego.x = 100.0;
  ego.y = 3.7;
  ego.v = 30.0;
  annotate_lead(world, ego);
  EXPECT_NEAR(world.lead_gap, 40.0 - 2.4, 1e-9);
  EXPECT_NEAR(world.lead_rel_speed, -10.0, 1e-9);
}

TEST(Tracker, AnnotateLeadNoneWhenClear) {
  WorldModelMsg world;
  LocalizationMsg ego;
  annotate_lead(world, ego);
  EXPECT_LT(world.lead_gap, 0.0);
}

// ---------- Bit identity with the heap-backed arithmetic ----------
//
// The EKF and the tracker compute on util/small_matrix.h. Replay splices
// compare filter state bit for bit and campaign records are compared
// byte for byte, so that arithmetic must round exactly as the heap-backed
// util::Matrix filters with their partial-pivot LU did, on every value a
// bit flip can feed them. `ref` keeps that code as the reference; the
// tests below run it side by side with the filters and compare every
// state, covariance and output bit after every call.

static_assert(std::is_trivially_copyable_v<LocalizationEkf::Snapshot>);
static_assert(std::is_trivially_copyable_v<ObjectTracker::Track>);

namespace ref {

using util::Matrix;
using util::Vector;

class Lu {
 public:
  explicit Lu(const Matrix& a) : lu_(a), perm_(a.rows()) {
    const std::size_t n = a.rows();
    for (std::size_t i = 0; i < n; ++i) perm_[i] = i;
    for (std::size_t col = 0; col < n; ++col) {
      std::size_t pivot = col;
      double best = std::abs(lu_(col, col));
      for (std::size_t r = col + 1; r < n; ++r) {
        const double v = std::abs(lu_(r, col));
        if (v > best) {
          best = v;
          pivot = r;
        }
      }
      if (best < 1e-300) {
        singular_ = true;
        return;
      }
      if (pivot != col) {
        for (std::size_t c = 0; c < n; ++c)
          std::swap(lu_(pivot, c), lu_(col, c));
        std::swap(perm_[pivot], perm_[col]);
      }
      const double inv_pivot = 1.0 / lu_(col, col);
      for (std::size_t r = col + 1; r < n; ++r) {
        const double factor = lu_(r, col) * inv_pivot;
        lu_(r, col) = factor;
        for (std::size_t c = col + 1; c < n; ++c)
          lu_(r, c) -= factor * lu_(col, c);
      }
    }
  }

  bool singular() const { return singular_; }

  Vector solve(const Vector& b) const {
    const std::size_t n = lu_.rows();
    Vector y(n);
    for (std::size_t i = 0; i < n; ++i) {
      double v = b[perm_[i]];
      for (std::size_t k = 0; k < i; ++k) v -= lu_(i, k) * y[k];
      y[i] = v;
    }
    Vector x(n);
    for (std::size_t ii = n; ii-- > 0;) {
      double v = y[ii];
      for (std::size_t k = ii + 1; k < n; ++k) v -= lu_(ii, k) * x[k];
      x[ii] = v / lu_(ii, ii);
    }
    return x;
  }

  Matrix inverse() const {
    const Matrix b = Matrix::identity(lu_.rows());
    Matrix out(b.rows(), b.cols());
    for (std::size_t c = 0; c < b.cols(); ++c) {
      const Vector x = solve(b.col(c));
      for (std::size_t r = 0; r < b.rows(); ++r) out(r, c) = x[r];
    }
    return out;
  }

 private:
  Matrix lu_;
  std::vector<std::size_t> perm_;
  bool singular_ = false;
};

// The filters leave out the terms that multiply a zero of F or H only
// where that changes no bit: when P, F and F P, or P and K, are finite.
// Otherwise they run the dense products, as the reference does. So a
// step's path follows from its inputs, and each reference step counts the
// calls that took each one, so that the tests can show every one ran.
struct Paths {
  std::size_t structured = 0;
  std::size_t dense = 0;    // P, F or F P not finite: every product dense
  std::size_t dense_k = 0;  // P finite, K not: (I - K H) P dense

  void count(bool inputs_finite, bool k_finite = true) {
    ++(!inputs_finite ? dense : !k_finite ? dense_k : structured);
  }
  Paths& operator+=(const Paths& rhs) {
    structured += rhs.structured;
    dense += rhs.dense;
    dense_k += rhs.dense_k;
    return *this;
  }
};

bool finite(const Matrix& m) {
  for (std::size_t r = 0; r < m.rows(); ++r)
    for (std::size_t c = 0; c < m.cols(); ++c)
      if (!std::isfinite(m(r, c))) return false;
  return true;
}

double wrap_angle(double a) {
  if (!std::isfinite(a)) return a;
  a = std::fmod(a + M_PI, 2.0 * M_PI);
  if (a < 0.0) a += 2.0 * M_PI;
  return a - M_PI;
}

struct Ekf {
  EkfConfig config;
  bool initialized = false;
  Vector x = Vector(4);
  Matrix p = Matrix::identity(4);
  Paths predict_paths, speed_paths, gps_paths;

  void initialize(double x0, double y0, double theta, double v) {
    x[0] = x0;
    x[1] = y0;
    x[2] = theta;
    x[3] = v;
    p = Matrix::identity(4);
    initialized = true;
  }

  void predict(const ImuMsg& imu, double dt) {
    if (!initialized) return;
    const double theta = x[2];
    const double v = x[3];
    x[0] += v * std::cos(theta) * dt;
    x[1] += v * std::sin(theta) * dt;
    x[2] = wrap_angle(theta + imu.yaw_rate * dt);
    x[3] = std::max(0.0, v + imu.accel * dt);
    Matrix f = Matrix::identity(4);
    f(0, 2) = -v * std::sin(theta) * dt;
    f(0, 3) = std::cos(theta) * dt;
    f(1, 2) = v * std::cos(theta) * dt;
    f(1, 3) = std::sin(theta) * dt;
    Matrix q(4, 4);
    q(0, 0) = q(1, 1) =
        config.process_pos_sigma * config.process_pos_sigma * dt;
    q(2, 2) = config.process_heading_sigma * config.process_heading_sigma * dt;
    q(3, 3) = config.process_speed_sigma * config.process_speed_sigma * dt;
    predict_paths.count(finite(p) && finite(f) && finite(f * p));
    p = f * p * f.transposed() + q;
  }

  bool update_gps(const GpsMsg& gps) {
    if (!initialized) {
      initialize(gps.x, gps.y, gps.heading, 0.0);
      return true;
    }
    Matrix h(3, 4);
    h(0, 0) = 1.0;
    h(1, 1) = 1.0;
    h(2, 2) = 1.0;
    Matrix r(3, 3);
    r(0, 0) = r(1, 1) = config.gps_pos_sigma * config.gps_pos_sigma;
    r(2, 2) = config.gps_heading_sigma * config.gps_heading_sigma;
    Vector innovation{gps.x - x[0], gps.y - x[1],
                      wrap_angle(gps.heading - x[2])};
    const Matrix s = h * p * h.transposed() + r;
    const Lu s_lu(s);
    if (s_lu.singular()) return false;
    const Vector weighted = s_lu.solve(innovation);
    const double mahalanobis2 = innovation.dot(weighted);
    if (mahalanobis2 > config.gate * config.gate) return false;
    const Matrix k = p * h.transposed() * s_lu.inverse();
    gps_paths.count(finite(p), finite(k));
    const Vector dx = k * innovation;
    x += dx;
    x[2] = wrap_angle(x[2]);
    x[3] = std::max(0.0, x[3]);
    p = (Matrix::identity(4) - k * h) * p;
    return true;
  }

  bool update_speed(double speed) {
    if (!initialized) return false;
    Matrix h(1, 4);
    h(0, 3) = 1.0;
    const double r = config.odom_speed_sigma * config.odom_speed_sigma;
    const double s = p(3, 3) + r;
    const double innovation = speed - x[3];
    if (innovation * innovation / s > config.gate * config.gate) return false;
    const Matrix k = (1.0 / s) * (p * h.transposed());
    speed_paths.count(finite(p), finite(k));
    for (std::size_t i = 0; i < 4; ++i) x[i] += k(i, 0) * innovation;
    x[3] = std::max(0.0, x[3]);
    p = (Matrix::identity(4) - k * h) * p;
    return true;
  }

  double nees(double true_x, double true_y, double true_theta,
              double true_v) const {
    Vector err{x[0] - true_x, x[1] - true_y, wrap_angle(x[2] - true_theta),
               x[3] - true_v};
    const Lu p_lu(p);
    if (p_lu.singular()) return 0.0;
    return err.dot(p_lu.solve(err));
  }
};

struct Track {
  Vector state = Vector(4);
  Matrix cov;
  Paths predict_paths, correct_paths;
};

void predict(Track& track, double dt, const TrackerConfig& config) {
  track.state[0] += track.state[2] * dt;
  track.state[1] += track.state[3] * dt;
  Matrix f = Matrix::identity(4);
  f(0, 2) = dt;
  f(1, 3) = dt;
  Matrix q(4, 4);
  const double s = config.process_sigma * config.process_sigma;
  q(0, 0) = q(1, 1) = 0.25 * dt * dt * dt * dt * s;
  q(0, 2) = q(2, 0) = 0.5 * dt * dt * dt * s;
  q(1, 3) = q(3, 1) = 0.5 * dt * dt * dt * s;
  q(2, 2) = q(3, 3) = dt * dt * s;
  track.predict_paths.count(finite(track.cov) && finite(f) &&
                            finite(f * track.cov));
  track.cov = f * track.cov * f.transposed() + q;
}

void correct(Track& track, const Detection& det, const TrackerConfig& config) {
  Matrix h(3, 4);
  h(0, 0) = 1.0;
  h(1, 1) = 1.0;
  h(2, 2) = 1.0;
  Matrix r(3, 3);
  r(0, 0) = r(1, 1) = config.measurement_sigma * config.measurement_sigma;
  r(2, 2) = 4.0 * config.measurement_sigma * config.measurement_sigma;
  Vector innovation{det.x - track.state[0], det.y - track.state[1],
                    det.speed_along - track.state[2]};
  const Matrix s = h * track.cov * h.transposed() + r;
  const Lu s_lu(s);
  if (s_lu.singular()) return;
  const Matrix k = track.cov * h.transposed() * s_lu.inverse();
  track.correct_paths.count(finite(track.cov), finite(k));
  const Vector dx = k * innovation;
  track.state += dx;
  track.cov = (Matrix::identity(4) - k * h) * track.cov;
}

}  // namespace ref

// Bit for bit, except that a NaN matches any NaN. IEEE 754 leaves open
// which NaN an operation on two NaNs returns: x86 returns its first
// operand's, and the optimizer may swap the operands of + and *, so a
// NaN's sign and payload follow code generation, not the arithmetic (at
// -O0 and -O1 these sequences match in every NaN bit too). A state that
// holds a NaN never splices, because golden states hold none, and no
// filter NaN reaches a record.
bool same(double a, double b) {
  return util::bits_equal(a, b) || (std::isnan(a) && std::isnan(b));
}

bool same_bits(const util::Vector& a, const util::Vec<4>& b) {
  if (a.size() != 4) return false;
  for (std::size_t i = 0; i < 4; ++i)
    if (!same(a[i], b[i])) return false;
  return true;
}

bool same_bits(const util::Matrix& a, const util::Mat<4, 4>& b) {
  if (a.rows() != 4 || a.cols() != 4) return false;
  for (std::size_t r = 0; r < 4; ++r)
    for (std::size_t c = 0; c < 4; ++c)
      if (!same(a(r, c), b(r, c))) return false;
  return true;
}

util::Matrix to_matrix(const util::Mat<4, 4>& m) {
  util::Matrix out(4, 4);
  for (std::size_t r = 0; r < 4; ++r)
    for (std::size_t c = 0; c < 4; ++c) out(r, c) = m(r, c);
  return out;
}

// Ordinary values most of the time; otherwise one of the values a bit
// flip produces that rounding alone never does.
double feed(util::Rng& rng, double typical) {
  static constexpr double kSpecial[] = {
      0.0,
      -0.0,
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::quiet_NaN(),
      -std::numeric_limits<double>::quiet_NaN(),
      1e300,
      -1e300,
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      1e-310,
  };
  if (!rng.bernoulli(0.06)) return typical;
  return kSpecial[rng.uniform_index(std::size(kSpecial))];
}

// A covariance for restore(): ordinary and positive definite (its zeros
// -0.0, as flipped sign bits leave them), one with bit-flip values in it,
// the zero matrix, a subnormal diagonal (singular only by the LU's 1e-300
// pivot threshold), a small diagonal whose (0, 3) pair has its exponent's
// top bit flipped (finite, but every gain K overflows), or one that makes
// the first three rows of H P H^T + R exactly zero (a singular innovation
// covariance) given R's diagonal.
util::Mat<4, 4> crafted_covariance(util::Rng& rng, double r00, double r11,
                                   double r22) {
  util::Mat<4, 4> p;
  switch (rng.uniform_index(6)) {
    case 0:
      for (double& v : p.a) v = -0.0;
      for (std::size_t i = 0; i < 4; ++i) p(i, i) = rng.uniform(0.01, 4.0);
      p(0, 2) = p(2, 0) = rng.uniform(-0.005, 0.005);
      break;
    case 1:
      for (double& v : p.a) v = feed(rng, rng.uniform(-1.0, 1.0));
      break;
    case 2:
      break;
    case 3:
      for (std::size_t i = 0; i < 4; ++i) p(i, i) = 1e-310;
      break;
    case 4:
      for (std::size_t i = 0; i < 4; ++i) p(i, i) = rng.uniform(0.01, 0.2);
      p(0, 3) = p(3, 0) = std::ldexp(rng.uniform(1.0, 2.0), 1023);
      break;
    default:
      p(0, 0) = -r00;
      p(1, 1) = -r11;
      p(2, 2) = -r22;
      p(3, 3) = 1.0;
      break;
  }
  return p;
}

TEST(FilterBits, EkfMatchesHeapBackedArithmetic) {
  std::size_t gps_accepted = 0, gps_singular = 0, speed_accepted = 0;
  ref::Paths predict_paths, speed_paths, gps_paths;
  for (std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    util::Rng rng(seed);
    LocalizationEkf ekf;
    ref::Ekf expected;
    const EkfConfig& cfg = expected.config;
    for (int step = 0; step < 3000; ++step) {
      const LocalizationMsg est = ekf.estimate(0.0);
      const std::uint64_t op = rng.uniform_index(21);
      const char* call = "";
      if (op < 9) {
        ImuMsg imu;
        imu.accel = feed(rng, rng.gaussian(0.0, 0.5));
        imu.yaw_rate = feed(rng, rng.gaussian(0.0, 0.05));
        const double dt = feed(rng, 1.0 / 60.0);
        ekf.predict(imu, dt);
        expected.predict(imu, dt);
        call = "predict";
      } else if (op < 13) {
        const double speed = feed(rng, est.v + rng.gaussian(0.0, 0.2));
        const bool accepted = ekf.update_speed(speed);
        EXPECT_EQ(accepted, expected.update_speed(speed));
        speed_accepted += accepted;
        call = "update_speed";
      } else if (op < 17) {
        GpsMsg gps;
        gps.x = feed(rng, est.x + rng.gaussian(0.0, 0.4));
        gps.y = feed(rng, est.y + rng.gaussian(0.0, 0.4));
        gps.heading = feed(rng, est.theta + rng.gaussian(0.0, 0.01));
        const bool accepted = ekf.update_gps(gps);
        EXPECT_EQ(accepted, expected.update_gps(gps));
        gps_accepted += accepted;
        call = "update_gps";
      } else if (op < 18) {
        const double true_x = feed(rng, est.x + rng.gaussian(0.0, 0.3));
        const double true_y = feed(rng, est.y + rng.gaussian(0.0, 0.3));
        const double true_theta = feed(rng, est.theta);
        const double true_v = feed(rng, est.v);
        EXPECT_TRUE(same(ekf.nees(true_x, true_y, true_theta, true_v),
                         expected.nees(true_x, true_y, true_theta, true_v)));
        call = "nees";
      } else if (op < 19) {
        const double x0 = feed(rng, rng.uniform(0.0, 500.0));
        const double y0 = feed(rng, 3.7);
        const double theta = feed(rng, rng.gaussian(0.0, 0.02));
        const double v = feed(rng, rng.uniform(0.0, 35.0));
        ekf.initialize(x0, y0, theta, v);
        expected.initialize(x0, y0, theta, v);
        call = "initialize";
      } else {
        LocalizationEkf::Snapshot snap = ekf.snapshot();
        snap.p = crafted_covariance(
            rng, cfg.gps_pos_sigma * cfg.gps_pos_sigma,
            cfg.gps_pos_sigma * cfg.gps_pos_sigma,
            cfg.gps_heading_sigma * cfg.gps_heading_sigma);
        ekf.restore(snap);
        expected.p = to_matrix(snap.p);
        if (op == 20) {
          // The estimate's own speed passes the gate, so K is computed.
          const bool accepted = ekf.update_speed(est.v);
          EXPECT_EQ(accepted, expected.update_speed(est.v));
          call = "restore, update_speed";
        } else {
          EXPECT_TRUE(same(ekf.nees(est.x, est.y, est.theta, est.v),
                           expected.nees(est.x, est.y, est.theta, est.v)));
          const bool singular = util::bits_equal(
              snap.p(0, 0), -(cfg.gps_pos_sigma * cfg.gps_pos_sigma));
          GpsMsg gps;
          gps.x = est.x;
          gps.y = est.y;
          gps.heading = est.theta;
          const bool accepted = ekf.update_gps(gps);
          EXPECT_EQ(accepted, expected.update_gps(gps));
          if (singular && ekf.initialized()) {
            EXPECT_FALSE(accepted);
            ++gps_singular;
          }
          call = "restore, nees, update_gps";
        }
      }
      const LocalizationEkf::Snapshot got = ekf.snapshot();
      ASSERT_EQ(got.initialized, expected.initialized) << call;
      ASSERT_TRUE(same_bits(expected.x, got.x))
          << "seed " << seed << " step " << step << " after " << call;
      ASSERT_TRUE(same_bits(expected.p, got.p))
          << "seed " << seed << " step " << step << " after " << call;
      const LocalizationMsg out = ekf.estimate(0.0);
      ASSERT_TRUE(same(out.x, expected.x[0]) && same(out.y, expected.x[1]) &&
                  same(out.theta, expected.x[2]) && same(out.v, expected.x[3]));
    }
    predict_paths += expected.predict_paths;
    speed_paths += expected.speed_paths;
    gps_paths += expected.gps_paths;
  }
  // The sequences reached the paths they are meant to cover.
  EXPECT_GT(gps_accepted, 1000u);
  EXPECT_GT(speed_accepted, 1000u);
  EXPECT_GT(gps_singular, 50u);
  EXPECT_GT(predict_paths.structured, 900u);
  EXPECT_GT(predict_paths.dense, 1500u);
  EXPECT_GT(speed_paths.structured, 700u);
  EXPECT_GT(speed_paths.dense, 600u);
  EXPECT_GT(speed_paths.dense_k, 40u);
  EXPECT_GT(gps_paths.structured, 600u);
  EXPECT_GT(gps_paths.dense, 600u);
  EXPECT_GT(gps_paths.dense_k, 40u);
}

TEST(FilterBits, TrackerMatchesHeapBackedArithmetic) {
  const TrackerConfig config;
  const double r_pos = config.measurement_sigma * config.measurement_sigma;
  std::size_t corrected = 0, singular = 0;
  ref::Paths predict_paths, correct_paths;
  for (std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    util::Rng rng(seed);
    ObjectTracker tracker(config);
    ObjectTracker::Track track;
    track.id = 1;
    ref::Track expected;
    for (int frame = 0; frame < 3000; ++frame) {
      if (frame % 40 == 0) {
        track.state = {{feed(rng, rng.uniform(20.0, 120.0)),
                        feed(rng, rng.uniform(-4.0, 8.0)),
                        feed(rng, rng.uniform(0.0, 35.0)), feed(rng, 0.0)}};
        track.cov = util::Mat<4, 4>::identity();
        track.cov(2, 2) = track.cov(3, 3) = feed(rng, 16.0);
      }
      double dt = feed(rng, rng.bernoulli(0.1) ? 0.0 : 1.0 / 30.0);
      const bool craft = rng.bernoulli(0.05);
      if (craft) {
        track.cov = crafted_covariance(rng, r_pos, r_pos, 4.0 * r_pos);
        dt = 0.0;  // no predict: correct() sees the crafted covariance
      }
      expected.state = util::Vector(4);
      for (std::size_t i = 0; i < 4; ++i) expected.state[i] = track.state[i];
      expected.cov = to_matrix(track.cov);
      track.hits = config.min_hits;  // published
      track.misses = 0;              // kept
      const double last_time = 1.0;
      const double t = last_time + dt;
      tracker.restore({{track}, 2, last_time});

      Detection det;
      det.x = feed(rng, track.state[0] + track.state[2] * dt +
                            rng.gaussian(0.0, 0.5));
      det.y = feed(rng, track.state[1] + rng.gaussian(0.0, 0.5));
      det.speed_along = feed(rng, track.state[2] + rng.gaussian(0.0, 0.5));
      DetectionMsg msg;
      msg.t = t;
      msg.detections.push_back(det);
      std::vector<TrackedObject> published;
      tracker.update(msg, t, published);

      // One track and one detection: predict, then correct if associated.
      const double frame_dt = t - last_time;
      if (frame_dt > 0.0) ref::predict(expected, frame_dt, config);
      if (std::hypot(det.x - expected.state[0], det.y - expected.state[1]) <
          config.association_gate) {
        // The crafted singular innovation covariance skips the update.
        singular += craft && util::bits_equal(expected.cov(0, 0), -r_pos);
        ref::correct(expected, det, config);
        ++corrected;
      }

      const ObjectTracker::Snapshot snap = tracker.snapshot();
      ASSERT_FALSE(snap.tracks.empty());
      ASSERT_EQ(snap.tracks[0].id, 1);
      track = snap.tracks[0];
      ASSERT_TRUE(same_bits(expected.state, track.state))
          << "seed " << seed << " frame " << frame;
      ASSERT_TRUE(same_bits(expected.cov, track.cov))
          << "seed " << seed << " frame " << frame;
      ASSERT_FALSE(published.empty());
      ASSERT_EQ(published[0].id, 1);
      ASSERT_TRUE(same(published[0].x, expected.state[0]) &&
                  same(published[0].y, expected.state[1]) &&
                  same(published[0].vx, expected.state[2]) &&
                  same(published[0].vy, expected.state[3]));
    }
    predict_paths += expected.predict_paths;
    correct_paths += expected.correct_paths;
  }
  EXPECT_GT(corrected, 3000u);
  EXPECT_GT(singular, 20u);
  EXPECT_GT(predict_paths.structured, 3500u);
  EXPECT_GT(predict_paths.dense, 1000u);
  EXPECT_GT(correct_paths.structured, 1900u);
  EXPECT_GT(correct_paths.dense, 25u);
  EXPECT_GT(correct_paths.dense_k, 20u);
}

// ---------- Planner ----------

TEST(Planner, CruisesAtSetSpeedOnOpenRoad) {
  PlannerConfig config;
  LocalizationMsg ego;
  ego.v = config.cruise_speed;
  ego.y = 3.7;
  WorldModelMsg world;  // no lead
  world.lead_gap = -1.0;
  const PlanMsg plan_msg = plan(ego, world, 3.7, config, 0.0);
  EXPECT_NEAR(plan_msg.target_accel, 0.0, 0.1);
  EXPECT_NEAR(plan_msg.target_steer, 0.0, 1e-9);
}

TEST(Planner, AcceleratesWhenBelowCruise) {
  PlannerConfig config;
  LocalizationMsg ego;
  ego.v = 20.0;
  ego.y = 3.7;
  WorldModelMsg world;
  world.lead_gap = -1.0;
  EXPECT_GT(plan(ego, world, 3.7, config, 0.0).target_accel, 1.0);
}

TEST(Planner, BrakesForCloseLead) {
  PlannerConfig config;
  LocalizationMsg ego;
  ego.v = 30.0;
  ego.y = 3.7;
  WorldModelMsg world;
  world.lead_gap = 20.0;  // far below desired ~59 m
  world.lead_rel_speed = -5.0;
  EXPECT_LT(plan(ego, world, 3.7, config, 0.0).target_accel, -2.0);
}

TEST(Planner, EmergencyBrakeUnderFraction) {
  PlannerConfig config;
  LocalizationMsg ego;
  ego.v = 30.0;
  WorldModelMsg world;
  world.lead_gap = 10.0;
  world.lead_rel_speed = 0.0;
  // Inside the emergency fraction the planner requests the full physical
  // braking capability, beyond the comfort limit.
  EXPECT_DOUBLE_EQ(plan(ego, world, 3.7, config, 0.0).target_accel,
                   -config.emergency_decel);
}

TEST(Planner, BrakingDistanceTermEngagesOnFastApproach) {
  // 23 m/s closing at 100 m: the time-headway policy alone barely reacts
  // (the gap still exceeds the desired gap), but the required-deceleration
  // term must already brake firmly -- the Tesla-reveal geometry.
  PlannerConfig config;
  LocalizationMsg ego;
  ego.v = 33.0;
  WorldModelMsg world;
  world.lead_gap = 100.0;
  world.lead_rel_speed = -23.0;
  const double accel = plan(ego, world, 3.7, config, 0.0).target_accel;
  // required = 23^2 / (2 * 95) = 2.78; with margin 1.2 => ~3.3.
  EXPECT_LT(accel, -2.5);
  // An opening gap at the same distance must not trigger it (ego below
  // cruise speed so the cruise term does not brake either).
  ego.v = 28.0;
  world.lead_rel_speed = 3.0;
  EXPECT_GT(plan(ego, world, 3.7, config, 0.0).target_accel, -1.0);
}

TEST(Planner, SteersBackToLaneCenter) {
  PlannerConfig config;
  LocalizationMsg ego;
  ego.v = 30.0;
  ego.y = 3.0;  // right of center (3.7)
  WorldModelMsg world;
  world.lead_gap = -1.0;
  EXPECT_GT(plan(ego, world, 3.7, config, 0.0).target_steer, 0.0);
}

TEST(Planner, HeadingErrorCorrected) {
  PlannerConfig config;
  LocalizationMsg ego;
  ego.v = 30.0;
  ego.y = 3.7;
  ego.theta = 0.1;  // veering left
  WorldModelMsg world;
  world.lead_gap = -1.0;
  EXPECT_LT(plan(ego, world, 3.7, config, 0.0).target_steer, 0.0);
}

// ---------- PID ----------

TEST(Pid, ConvergesToTargetAccelPedal) {
  PidController pid;
  PlanMsg p;
  p.target_accel = 1.0;
  p.target_speed = 30.0;
  ControlMsg msg;
  double accel = 0.0;
  for (int i = 0; i < 200; ++i) {
    msg = pid.control(p, accel, 25.0, 1.0 / 30.0, i / 30.0);
    accel = msg.throttle * 4.5 - msg.brake * 8.0;  // crude plant
  }
  EXPECT_NEAR(accel, 1.0, 0.25);
  EXPECT_GT(msg.throttle, 0.0);
  EXPECT_DOUBLE_EQ(msg.brake, 0.0);
}

TEST(Pid, BrakesOnNegativeTarget) {
  PidController pid;
  PlanMsg p;
  p.target_accel = -3.0;
  p.target_speed = 10.0;
  ControlMsg msg;
  for (int i = 0; i < 60; ++i)
    msg = pid.control(p, 0.0, 20.0, 1.0 / 30.0, i / 30.0);
  EXPECT_GT(msg.brake, 0.2);
  EXPECT_DOUBLE_EQ(msg.throttle, 0.0);
}

TEST(Pid, SlewLimitsStepResponse) {
  PidConfig config;
  PidController pid(config);
  PlanMsg p;
  p.target_accel = 2.5;
  p.target_speed = 30.0;
  const double dt = 1.0 / 30.0;
  const ControlMsg first = pid.control(p, 0.0, 20.0, dt, 0.0);
  // One step can move the pedal at most pedal_slew * dt from zero.
  EXPECT_LE(first.throttle, config.pedal_slew * dt + 1e-12);
}

TEST(Pid, SteeringSlewLimited) {
  PidConfig config;
  PidController pid(config);
  PlanMsg p;
  p.target_steer = 0.3;
  p.target_speed = 30.0;
  const double dt = 1.0 / 30.0;
  const ControlMsg first = pid.control(p, 0.0, 30.0, dt, 0.0);
  EXPECT_LE(std::abs(first.steering), config.steer_slew * dt + 1e-12);
}

TEST(Pid, ResetClearsState) {
  PidController pid;
  PlanMsg p;
  p.target_accel = 2.0;
  p.target_speed = 30.0;
  for (int i = 0; i < 30; ++i) pid.control(p, 0.0, 20.0, 1.0 / 30.0, i / 30.0);
  pid.reset();
  EXPECT_DOUBLE_EQ(pid.last().throttle, 0.0);
}

// ---------- Watchdog ----------

TEST(Watchdog, StaysQuietWhileControlIsFresh) {
  Watchdog dog;
  for (int i = 0; i < 100; ++i)
    EXPECT_FALSE(dog.monitor(0.033, 0.0, 1.0 / 30.0, i / 30.0).has_value());
  EXPECT_FALSE(dog.engaged());
}

TEST(Watchdog, EngagesOnStaleControlAndLatches) {
  Watchdog dog;
  const auto first = dog.monitor(0.5, 0.1, 1.0 / 30.0, 10.0);
  ASSERT_TRUE(first.has_value());
  EXPECT_TRUE(dog.engaged());
  EXPECT_DOUBLE_EQ(dog.engaged_at(), 10.0);
  EXPECT_GT(first->brake, 0.0);
  EXPECT_DOUBLE_EQ(first->throttle, 0.0);

  // Latching: a revived control path does not take actuation back.
  const auto later = dog.monitor(0.0, 0.0, 1.0 / 30.0, 10.1);
  EXPECT_TRUE(later.has_value());
}

TEST(Watchdog, ReleasesSteeringGradually) {
  WatchdogConfig config;
  config.steer_release_rate = 0.6;
  Watchdog dog(config);
  const double dt = 1.0 / 30.0;
  auto msg = dog.monitor(1.0, 0.3, dt, 0.0);
  ASSERT_TRUE(msg.has_value());
  // First step moves at most steer_release_rate * dt from the held value.
  EXPECT_NEAR(msg->steering, 0.3 - 0.6 * dt, 1e-12);
  double prev = msg->steering;
  for (int i = 1; i < 60; ++i) {
    msg = dog.monitor(1.0, 99.0 /* ignored once engaged */, dt, i * dt);
    EXPECT_LE(std::abs(msg->steering), std::abs(prev));
    prev = msg->steering;
  }
  EXPECT_DOUBLE_EQ(prev, 0.0);  // fully released within 2 s
}

TEST(Watchdog, DisabledNeverEngages) {
  WatchdogConfig config;
  config.enabled = false;
  Watchdog dog(config);
  EXPECT_FALSE(dog.monitor(100.0, 0.0, 1.0 / 30.0, 5.0).has_value());
  EXPECT_FALSE(dog.engaged());
}

TEST(Watchdog, ResetRearms) {
  Watchdog dog;
  dog.monitor(1.0, 0.0, 1.0 / 30.0, 1.0);
  ASSERT_TRUE(dog.engaged());
  dog.reset();
  EXPECT_FALSE(dog.engaged());
  EXPECT_FALSE(dog.monitor(0.0, 0.0, 1.0 / 30.0, 2.0).has_value());
}

}  // namespace
}  // namespace drivefi::ads
