#include "ads/pipeline.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <type_traits>
#include <variant>

#include "util/bits.h"

namespace drivefi::ads {

using kinematics::ObstacleView;
using kinematics::SafetyPotential;

namespace {

bool finite(double v) { return std::isfinite(v); }

// Pseudo dynamic-instruction budgets per module tick; gives the hardware
// injector's instruction-count axis realistic relative weight (perception
// dominates, as on a real ADS).
constexpr std::uint64_t kInstrImu = 2'000;
constexpr std::uint64_t kInstrGps = 1'000;
constexpr std::uint64_t kInstrPerception = 120'000;
constexpr std::uint64_t kInstrPlanner = 30'000;
constexpr std::uint64_t kInstrControl = 8'000;

}  // namespace

const std::vector<std::string>& scene_variable_names() {
  static const std::vector<std::string> names = {
      "true_v",  "true_y_off", "true_theta", "lead_gap", "lead_rel_speed",
      "v",       "y_off",      "theta",      "u_accel",  "u_steer",
      "throttle", "brake",     "steer"};
  return names;
}

std::array<double, kSceneVariableCount> scene_variable_values(
    const SceneRecord& r) {
  return {r.true_v,  r.true_y_off, r.true_theta, r.lead_gap, r.lead_rel_speed,
          r.v,       r.y_off,      r.theta,      r.u_accel,  r.u_steer,
          r.throttle, r.brake,     r.steer};
}

AdsPipeline::AdsPipeline(sim::World& world, const PipelineConfig& config)
    : world_(world),
      config_(config),
      object_sensor_(config.object_sensor),
      rng_(config.seed),
      fault_rng_(config.fault_seed != 0 ? config.fault_seed
                                        : config.seed ^ 0xFA17B175DEADBEEFULL),
      scheduler_(config.base_hz),
      ekf_(config.ekf),
      tracker_(config.tracker),
      pid_(config.pid),
      watchdog_(config.watchdog) {
  build_modules();
  // Register i is target i, so the hardware injector flips bits in the
  // same live variables the value faults write.
  for (std::size_t i = 0; i < kFaultTargets.size(); ++i)
    arch_.bind({hw::Protection::kNone, [this, i] { return target_value(i); },
                [this, i](double v) { set_target_value(i, v); }});
}

void AdsPipeline::arm_value_fault(const ValueFault& fault) {
  // Stuck-at semantics for value faults: re-assert armed corruptions after
  // every module firing, so a producer republishing inside the hold window
  // cannot scrub the fault before its consumer reads it. A run with no
  // value fault armed has nothing to re-assert and installs no hook.
  if (value_faults_.empty())
    scheduler_.set_post_module_hook(
        [this](double t) { apply_value_faults(t); });
  value_faults_.push_back(fault);
}

void AdsPipeline::build_modules() {
  // Registration order = execution order within a tick; mirrors the
  // sensor -> perception -> planning -> control dataflow.
  scheduler_.add_module("imu", config_.imu_hz, [this](double t) {
    ImuMsg msg = sense_imu(world_, config_.imu_noise, rng_);
    imu_.publish(msg, t);
    arch_.retire_instructions(kInstrImu);
  });

  scheduler_.add_module("gps", config_.gps_hz, [this](double t) {
    GpsMsg msg = sense_gps(world_, config_.gps_noise, rng_);
    gps_.publish(msg, t);
    arch_.retire_instructions(kInstrGps);
  });

  scheduler_.add_module("localization", config_.imu_hz, [this](double t) {
    if (!imu_.has_message()) return;
    const ImuMsg& imu = imu_.latest();
    if (!finite(imu.accel) || !finite(imu.yaw_rate) || !finite(imu.speed)) {
      hang("localization");
      return;
    }
    if (config_.use_ekf) {
      if (!ekf_.initialized() && gps_.has_message()) {
        const GpsMsg& gps = gps_.latest();
        if (finite(gps.x) && finite(gps.y) && finite(gps.heading))
          ekf_.initialize(gps.x, gps.y, gps.heading, imu.speed);
      }
      if (!ekf_.initialized()) return;
      ekf_.predict(imu, 1.0 / config_.imu_hz);
      ekf_.update_speed(imu.speed);
      if (gps_.has_message() && gps_.age(t) < 1.5 / config_.gps_hz) {
        const GpsMsg& gps = gps_.latest();
        if (finite(gps.x) && finite(gps.y) && finite(gps.heading))
          ekf_.update_gps(gps);
      }
      LocalizationMsg msg = ekf_.estimate(t);
      localization_.publish(msg, t);
    } else {
      // Ablation: raw passthrough, no fusion or gating.
      if (!gps_.has_message()) return;
      const GpsMsg& gps = gps_.latest();
      LocalizationMsg msg;
      msg.t = t;
      msg.x = gps.x;
      msg.y = gps.y;
      msg.theta = gps.heading;
      msg.v = imu.speed;
      localization_.publish(msg, t);
    }
  });

  scheduler_.add_module("perception", config_.perception_hz, [this](double t) {
    sense_objects(world_, object_sensor_, rng_, detections_spare_);
    detections_.publish(detections_spare_, t);

    if (!localization_.has_message()) return;
    const LocalizationMsg& loc = localization_.latest();
    if (!finite(loc.x) || !finite(loc.y) || !finite(loc.v)) {
      hang("perception");
      return;
    }
    WorldModelMsg& wm = world_model_spare_;
    wm.t = t;
    tracker_.update(detections_.latest(), t, wm.objects);
    annotate_lead(wm, loc);
    world_model_.publish(wm, t);
    arch_.retire_instructions(kInstrPerception);
  });

  scheduler_.add_module("planner", config_.planner_hz, [this](double t) {
    if (!localization_.has_message() || !world_model_.has_message()) return;
    const LocalizationMsg& loc = localization_.latest();
    const WorldModelMsg& wm = world_model_.latest();
    if (!finite(loc.v) || !finite(loc.y) || !finite(wm.lead_gap) ||
        !finite(wm.lead_rel_speed)) {
      hang("planner");
      return;
    }
    const double lane_center = world_.road().lane_center(
        std::clamp(static_cast<int>(std::lround(loc.y / world_.road().lane_width)),
                   0, world_.road().lanes - 1));
    PlanMsg msg = plan(loc, wm, lane_center, config_.planner, t);
    plan_.publish(msg, t);
    arch_.retire_instructions(kInstrPlanner);
  });

  scheduler_.add_module("control", config_.control_hz, [this](double t) {
    if (!plan_.has_message() || !imu_.has_message()) return;
    const PlanMsg& p = plan_.latest();
    if (!finite(p.target_accel) || !finite(p.target_steer)) {
      hang("control");
      return;
    }
    if (config_.use_pid) {
      ControlMsg msg = pid_.control(p, imu_.latest().accel,
                                    imu_.latest().speed,
                                    1.0 / config_.control_hz, t);
      control_.publish(msg, t);
    } else {
      // Ablation: bang-bang conversion of the raw plan, no smoothing.
      ControlMsg msg;
      msg.t = t;
      if (p.target_accel >= 0.0)
        msg.throttle = std::clamp(p.target_accel / 4.5, 0.0, 1.0);
      else
        msg.brake = std::clamp(-p.target_accel / 8.0, 0.0, 1.0);
      msg.steering = p.target_steer;
      control_.publish(msg, t);
    }
    arch_.retire_instructions(kInstrControl);
    last_primary_control_time_ = t;
  });

  scheduler_.add_module("watchdog", config_.control_hz, [this](double t) {
    // Staleness of the *primary* control module's output. The watchdog's
    // own overrides also land on the control channel, so the channel age
    // cannot be used -- it would mask the very hang being detected.
    const double age =
        last_primary_control_time_ < 0.0 ? t : t - last_primary_control_time_;
    const double last_steer =
        control_.has_message() ? control_.latest().steering : 0.0;
    auto override_msg =
        watchdog_.monitor(age, last_steer, 1.0 / config_.control_hz, t);
    if (override_msg) control_.publish(*override_msg, t);
  });

  scheduler_.add_module("scene", config_.scene_hz,
                        [this](double t) { record_scene(t); });
}

template <typename Msg, typename Self>
auto& AdsPipeline::channel(Self& self) {
  if constexpr (std::is_same_v<Msg, GpsMsg>) {
    return self.gps_;
  } else if constexpr (std::is_same_v<Msg, ImuMsg>) {
    return self.imu_;
  } else if constexpr (std::is_same_v<Msg, LocalizationMsg>) {
    return self.localization_;
  } else if constexpr (std::is_same_v<Msg, WorldModelMsg>) {
    return self.world_model_;
  } else if constexpr (std::is_same_v<Msg, PlanMsg>) {
    return self.plan_;
  } else {
    static_assert(std::is_same_v<Msg, ControlMsg>);
    return self.control_;
  }
}

double AdsPipeline::target_value(std::size_t target) const {
  return std::visit(
      [this]<typename Owner>(double Owner::*field) {
        if constexpr (std::is_same_v<Owner, ObjectSensorConfig>) {
          return object_sensor_.*field;
        } else {
          const auto& ch = channel<Owner>(*this);
          return ch.has_message() ? ch.latest().*field : Owner{}.*field;
        }
      },
      kFaultTargets[target].field);
}

void AdsPipeline::set_target_value(std::size_t target, double value) {
  std::visit(
      [this, value]<typename Owner>(double Owner::*field) {
        if constexpr (std::is_same_v<Owner, ObjectSensorConfig>) {
          object_sensor_.*field = value;
        } else {
          auto& ch = channel<Owner>(*this);
          if (ch.has_message()) ch.mutable_latest().*field = value;
        }
      },
      kFaultTargets[target].field);
}

void AdsPipeline::apply_value_faults(double t) {
  // Release before asserting, so a fault still held on the same target
  // keeps it. step() calls this with the next tick's time, so a config
  // target is released before the first module firing past its hold.
  std::erase_if(value_faults_, [&](const ValueFault& fault) {
    if (!(t > fault.start_time + fault.hold_duration)) return false;
    if (const auto* field = std::get_if<double ObjectSensorConfig::*>(
            &kFaultTargets[fault.target].field))
      object_sensor_.**field = config_.object_sensor.**field;
    return true;
  });
  for (const auto& fault : value_faults_)
    if (!(t < fault.start_time)) set_target_value(fault.target, fault.value);
}

void AdsPipeline::apply_bit_faults() {
  bit_fault_done_.resize(bit_faults_.size(), false);
  for (std::size_t i = 0; i < bit_faults_.size(); ++i) {
    if (bit_fault_done_[i]) continue;
    if (arch_.instructions_retired() < bit_faults_[i].instruction_index)
      continue;
    bit_fault_done_[i] = true;
    arch_.inject(bit_faults_[i].target, bit_faults_[i].bits, fault_rng_);
  }
}

void AdsPipeline::hang(const std::string& module) {
  hung_modules_.insert(module);
  scheduler_.set_enabled(module, false);
}

void AdsPipeline::step() {
  scheduler_.step();
  if (!value_faults_.empty()) apply_value_faults(scheduler_.now());
  if (!bit_faults_.empty()) apply_bit_faults();

  // Vehicle interface: act on the latest control command (stale commands
  // persist if the control module hangs -- the hazardous failure mode).
  kinematics::Actuation act;
  if (control_.has_message()) {
    const ControlMsg& msg = control_.latest();
    if (finite(msg.throttle)) act.throttle = msg.throttle;
    if (finite(msg.brake)) act.brake = msg.brake;
    if (finite(msg.steering)) act.steering = msg.steering;
  }
  world_.step(act, scheduler_.dt());
}

void AdsPipeline::run_for(double seconds) {
  const auto ticks =
      static_cast<std::uint64_t>(std::llround(seconds * config_.base_hz));
  for (std::uint64_t i = 0; i < ticks; ++i) step();
}

void AdsPipeline::run_until(double seconds) {
  const auto end_tick =
      static_cast<std::uint64_t>(std::llround(seconds * config_.base_hz));
  while (scheduler_.tick() < end_tick) step();
}

std::size_t PipelineSnapshot::approx_size_bytes() const {
  std::size_t bytes = sizeof(*this);
  bytes += scheduler.enabled.capacity() * sizeof(std::uint8_t);
  bytes += world.vehicles.capacity() * sizeof(world.vehicles[0]);
  if (detections.latest)
    bytes += detections.latest->detections.capacity() *
             sizeof(detections.latest->detections[0]);
  if (world_model.latest)
    bytes += world_model.latest->objects.capacity() *
             sizeof(world_model.latest->objects[0]);
  bytes += tracker.tracks.capacity() * sizeof(tracker.tracks[0]);
  for (const std::string& name : hung_modules)
    bytes += sizeof(std::string) + name.capacity();
  return bytes;
}

PipelineSnapshot AdsPipeline::snapshot() const {
  PipelineSnapshot snap;
  snap.scene_index = scenes_.empty() ? 0 : scenes_.size() - 1;
  snap.t = scheduler_.now();
  snap.scheduler = scheduler_.snapshot();
  snap.world = world_.snapshot();
  snap.rng = rng_.state();
  snap.arch = arch_.snapshot();
  snap.gps = gps_.snapshot();
  snap.imu = imu_.snapshot();
  snap.detections = detections_.snapshot();
  snap.localization = localization_.snapshot();
  snap.world_model = world_model_.snapshot();
  snap.plan = plan_.snapshot();
  snap.control = control_.snapshot();
  snap.ekf = ekf_.snapshot();
  snap.tracker = tracker_.snapshot();
  snap.pid = pid_.snapshot();
  snap.watchdog = watchdog_.snapshot();
  snap.object_sensor = object_sensor_;
  snap.hung_modules = hung_modules_;
  snap.last_primary_control_time = last_primary_control_time_;
  return snap;
}

void AdsPipeline::restore(const PipelineSnapshot& snap) {
  scheduler_.restore(snap.scheduler);
  world_.restore(snap.world);
  rng_.set_state(snap.rng);
  arch_.restore(snap.arch);
  gps_.restore(snap.gps);
  imu_.restore(snap.imu);
  detections_.restore(snap.detections);
  localization_.restore(snap.localization);
  world_model_.restore(snap.world_model);
  plan_.restore(snap.plan);
  control_.restore(snap.control);
  ekf_.restore(snap.ekf);
  tracker_.restore(snap.tracker);
  pid_.restore(snap.pid);
  watchdog_.restore(snap.watchdog);
  object_sensor_ = snap.object_sensor;
  hung_modules_ = snap.hung_modules;
  last_primary_control_time_ = snap.last_primary_control_time;
}

namespace {

// Bit-exact channel-vs-snapshot comparison via the per-message bits_equal
// overloads; no copies, short-circuits on the cheap fields first.
template <typename T>
bool channel_matches(const runtime::Channel<T>& channel,
                     const typename runtime::Channel<T>::Snapshot& snap) {
  if (channel.sequence() != snap.sequence) return false;
  if (!util::bits_equal(channel.last_publish_time(), snap.last_publish_time))
    return false;
  if (channel.has_message() != snap.latest.has_value()) return false;
  return !channel.has_message() || bits_equal(channel.latest(), *snap.latest);
}

}  // namespace

bool AdsPipeline::state_matches(const PipelineSnapshot& snap) const {
  // Cheap scalars first, then the world (diverged runs differ there almost
  // always), then module filters and the bulky channels.
  return scheduler_.state_equals(snap.scheduler) &&
         util::bits_equal(last_primary_control_time_,
                          snap.last_primary_control_time) &&
         arch_.state_equals(snap.arch) && rng_.state_equals(snap.rng) &&
         hung_modules_ == snap.hung_modules &&
         bits_equal(object_sensor_, snap.object_sensor) &&
         world_.state_equals(snap.world) && pid_.state_equals(snap.pid) &&
         watchdog_.state_equals(snap.watchdog) &&
         ekf_.state_equals(snap.ekf) && tracker_.state_equals(snap.tracker) &&
         channel_matches(gps_, snap.gps) && channel_matches(imu_, snap.imu) &&
         channel_matches(detections_, snap.detections) &&
         channel_matches(localization_, snap.localization) &&
         channel_matches(world_model_, snap.world_model) &&
         channel_matches(plan_, snap.plan) &&
         channel_matches(control_, snap.control);
}

bool AdsPipeline::faults_quiescent() const {
  if (!bit_faults_.empty()) {
    // bit_fault_done_ is lazily sized by apply_bit_faults; a smaller
    // vector means some fault has not even been considered yet.
    if (bit_fault_done_.size() < bit_faults_.size()) return false;
    if (!std::all_of(bit_fault_done_.begin(), bit_fault_done_.end(),
                     [](bool done) { return done; }))
      return false;
  }
  return value_faults_.empty();
}

void AdsPipeline::preload_scene_prefix(const std::vector<SceneRecord>& golden,
                                       std::size_t count) {
  assert(count <= golden.size());
  scenes_.assign(golden.begin(),
                 golden.begin() + static_cast<std::ptrdiff_t>(
                                      std::min(count, golden.size())));
}

void AdsPipeline::splice_golden_tail(const std::vector<SceneRecord>& golden,
                                     std::size_t from) {
  if (from >= golden.size()) return;
  scenes_.insert(scenes_.end(),
                 golden.begin() + static_cast<std::ptrdiff_t>(from),
                 golden.end());
}

SafetyPotential AdsPipeline::believed_safety_potential() const {
  if (!localization_.has_message() || !world_model_.has_message()) return {};
  const LocalizationMsg& loc = localization_.latest();

  kinematics::VehicleState believed_ev;
  believed_ev.x = loc.x;
  believed_ev.y = loc.y;
  believed_ev.theta = loc.theta;
  believed_ev.v = loc.v;
  believed_ev.phi = world_.ego().phi;  // steering is directly measurable

  std::vector<ObstacleView> views;
  for (const auto& obj : world_model_.latest().objects) {
    ObstacleView view;
    view.x = obj.x;
    view.y = obj.y;
    view.theta = std::atan2(obj.vy, std::max(std::abs(obj.vx), 1e-6));
    view.v = std::hypot(obj.vx, obj.vy);
    view.length = obj.length;
    view.width = obj.width;
    views.push_back(view);
  }
  const double lane_center = world_.road().lane_center(
      std::clamp(static_cast<int>(std::lround(loc.y / world_.road().lane_width)),
                 0, world_.road().lanes - 1));
  return kinematics::compute_safety_potential(believed_ev, world_.ego_params(),
                                              views, lane_center);
}

void AdsPipeline::record_scene(double t) {
  SceneRecord rec;
  rec.t = t;

  if (world_model_.has_message()) {
    rec.lead_gap = world_model_.latest().lead_gap;
    rec.lead_rel_speed = world_model_.latest().lead_rel_speed;
  }
  if (localization_.has_message()) {
    const LocalizationMsg& loc = localization_.latest();
    rec.v = loc.v;
    const double lane_center = world_.road().lane_center(
        std::clamp(static_cast<int>(std::lround(loc.y / world_.road().lane_width)),
                   0, world_.road().lanes - 1));
    rec.y_off = loc.y - lane_center;
    rec.theta = loc.theta;
  }
  if (plan_.has_message()) {
    rec.u_accel = plan_.latest().target_accel;
    rec.u_steer = plan_.latest().target_steer;
  }
  if (control_.has_message()) {
    rec.throttle = control_.latest().throttle;
    rec.brake = control_.latest().brake;
    rec.steer = control_.latest().steering;
  }

  const kinematics::SafetyEnvelope true_env = world_.true_safety_envelope();
  const SafetyPotential true_sp = kinematics::safety_potential(
      true_env,
      kinematics::stopping_distance(world_.ego(), world_.ego_params()));
  rec.true_delta_lon = true_sp.longitudinal;
  rec.true_delta_lat = true_sp.lateral;
  rec.true_dsafe_lon = true_env.d_safe_lon;
  rec.true_dsafe_lat = true_env.d_safe_lat;
  rec.true_v = world_.ego().v;
  rec.true_y_off = world_.ego().y - world_.ego_lane_center_y();
  rec.true_theta = world_.ego().theta;

  rec.collided = world_.status().collided;
  rec.off_road = world_.status().off_road;
  rec.any_module_hung = any_module_hung();
  scenes_.push_back(rec);
}

}  // namespace drivefi::ads
