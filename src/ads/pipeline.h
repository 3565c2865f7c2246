// The assembled ADS: sensors -> localization (EKF) -> perception/tracking
// (world model W_t) -> planner (U_{A,t}) -> PID control (A_t) -> vehicle,
// wired over typed channels and a deterministic rate scheduler, with every
// module-output scalar registered as a fault target. This is the
// reproduction's stand-in for DriveAV / Apollo 3.0.
#pragma once

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "ads/ekf.h"
#include "ads/messages.h"
#include "ads/pid.h"
#include "ads/planner.h"
#include "ads/sensors.h"
#include "ads/tracker.h"
#include "ads/watchdog.h"
#include "hw/arch_state.h"
#include "kinematics/safety.h"
#include "runtime/channel.h"
#include "runtime/fault_registry.h"
#include "runtime/scheduler.h"
#include "sim/world.h"
#include "util/rng.h"

namespace drivefi::ads {

struct PipelineConfig {
  double base_hz = 120.0;
  double imu_hz = 60.0;
  double gps_hz = 10.0;
  double perception_hz = 30.0;
  double planner_hz = 30.0;
  double control_hz = 30.0;
  double scene_hz = 7.5;  // paper: period of the slowest sensor

  bool use_ekf = true;  // E8 ablation: raw sensor passthrough when false
  bool use_pid = true;  // E8 ablation: raw planner commands when false
  // Safing watchdog (backup system for hangs). Off by default so the
  // hang-outcome statistics match the paper's primary stack, which counts
  // hangs as failures the *backup* would recover (§I bullet 3); the E8
  // ablation turns it on to quantify that recovery.
  WatchdogConfig watchdog{.enabled = false};

  GpsNoise gps_noise;
  ImuNoise imu_noise;
  ObjectSensorConfig object_sensor;
  EkfConfig ekf;
  TrackerConfig tracker;
  PlannerConfig planner;
  PidConfig pid;

  std::uint64_t seed = 42;
  // Seed of the fault-injection stream (bit positions). 0 derives it from
  // `seed`; campaigns set it per run so injections stay order-independent
  // while the sensor-noise stream remains identical to the golden twin.
  std::uint64_t fault_seed = 0;
};

// One scene (camera frame) worth of state: the BN variables plus the
// ground-truth safety potential. Recorded at scene_hz. Each record costs
// one run of procedure P (kinematics::stopping_distance); the ADS's
// believed potential would cost a second, so it is not recorded but
// computed on demand by AdsPipeline::believed_safety_potential().
struct SceneRecord {
  double t = 0.0;
  // BN variables (believed values, i.e. what the ADS itself sees).
  double lead_gap = -1.0;
  double lead_rel_speed = 0.0;
  double v = 0.0;
  double y_off = 0.0;  // lateral offset from lane center
  double theta = 0.0;
  double u_accel = 0.0;
  double u_steer = 0.0;
  double throttle = 0.0;
  double brake = 0.0;
  double steer = 0.0;
  // Safety (truth).
  double true_delta_lon = 0.0;
  double true_delta_lat = 0.0;
  double true_dsafe_lon = 0.0;  // ground-truth envelope, pre-dstop
  double true_dsafe_lat = 0.0;
  double true_v = 0.0;          // ground-truth ego speed
  double true_y_off = 0.0;      // ground-truth offset from lane center
  double true_theta = 0.0;
  bool collided = false;
  bool off_road = false;
  bool any_module_hung = false;

  bool operator==(const SceneRecord&) const = default;
};

// Names of the BN variables in SceneRecord, in a fixed order used by the
// trace/Dataset bridge in core.
const std::vector<std::string>& scene_variable_names();
std::vector<double> scene_variable_values(const SceneRecord& record);

// A value-corruption fault (fault model (b) and Bayesian-selected faults):
// write `value` into the registry target during [start, start + hold].
struct ValueFault {
  std::string target;
  double value = 0.0;
  double start_time = 0.0;
  double hold_duration = 0.05;  // ~one producer period by default
};

// A hardware fault (fault model (a)): flip `bits` random bits of the
// register bound to `target` once, when the dynamic instruction count
// first reaches `instruction_index`.
struct BitFault {
  std::string target;
  unsigned bits = 1;
  std::uint64_t instruction_index = 0;
};

// Complete simulation state of a pipeline + its world at one base tick:
// every module's state, every channel, the scheduler, the sensor-noise RNG
// stream, the architectural instruction counter, and the world. Golden
// runs record these at a configurable scene stride; forked replays restore
// the nearest checkpoint at-or-before the injection instead of
// re-simulating the prefix, and splice the golden tail once the faulty
// state reconverges bit-exactly.
//
// Deliberately NOT captured: the armed fault lists and the fault-injection
// RNG stream (they are the injected run's identity, not simulated state --
// a golden run never consumes them), and the scene log (it is the run's
// output, handled separately via preload_scene_prefix/splice_golden_tail).
struct PipelineSnapshot {
  std::size_t scene_index = 0;  // scene recorded during the captured tick
  double t = 0.0;               // scheduler time AFTER the captured tick
  runtime::Scheduler::Snapshot scheduler;
  sim::World::Snapshot world;
  util::RngState rng;  // sensor-noise stream
  hw::ArchState::Snapshot arch;
  runtime::Channel<GpsMsg>::Snapshot gps;
  runtime::Channel<ImuMsg>::Snapshot imu;
  runtime::Channel<DetectionMsg>::Snapshot detections;
  runtime::Channel<LocalizationMsg>::Snapshot localization;
  runtime::Channel<WorldModelMsg>::Snapshot world_model;
  runtime::Channel<PlanMsg>::Snapshot plan;
  runtime::Channel<ControlMsg>::Snapshot control;
  LocalizationEkf::Snapshot ekf;
  ObjectTracker::Snapshot tracker;
  PidController::Snapshot pid;
  Watchdog::Snapshot watchdog;
  // "perception.range" is a registered fault target that writes live
  // config, so the object-sensor config is runtime state.
  ObjectSensorConfig object_sensor;
  std::set<std::string> hung_modules;
  double last_primary_control_time = -1.0;

  /// Approximate resident size (struct plus heap-allocated containers);
  /// used by memory accounting in the replay-tree bench and obs counters,
  /// and read by perfbench as `ads.snapshot_bytes` and
  /// `golden.checkpoint_bytes`. The filters' state and covariances are
  /// fixed-size arrays, so the EKF's counts inline in sizeof and each
  /// track's in the tracks' capacity. While the filters kept them in
  /// uncounted heap matrices, both metrics read ~15% lower even though
  /// memory in use was higher.
  std::size_t approx_size_bytes() const;

  bool operator==(const PipelineSnapshot&) const = default;
};

class AdsPipeline {
 public:
  AdsPipeline(sim::World& world, const PipelineConfig& config);

  // Advance one base tick: scheduler fires due modules, armed faults are
  // applied, then the world integrates the current actuation.
  void step();
  void run_for(double seconds);
  // Step until the scheduler reaches `seconds` of absolute simulation time
  // (no-op if already past); the resume half of checkpoint/restore.
  void run_until(double seconds);
  double now() const { return scheduler_.now(); }
  std::uint64_t tick() const { return scheduler_.tick(); }

  // --- Checkpointing (fork-from-golden replay) ---

  // Captures / restores the complete simulation state. restore() requires
  // a pipeline built over the same scenario and configuration; armed
  // faults, the fault RNG stream, and the scene log are left untouched.
  PipelineSnapshot snapshot() const;
  void restore(const PipelineSnapshot& snap);
  // Allocation-free bit-exact comparison of the live state against a
  // checkpoint; true means the two states share their entire future (the
  // golden-tail splice criterion).
  bool state_matches(const PipelineSnapshot& snap) const;
  // True when no armed fault can fire or assert again: every bit fault has
  // been injected and every value fault's hold window lies in the past.
  // Only then can a state match against golden imply an identical tail.
  bool faults_quiescent() const;

  // --- Scene-log storage (allocation-free replay loops) ---

  // Pre-sizes the scene log (compute the expected count from duration and
  // scene_hz); the replay hot loop never reallocates after this.
  void reserve_scenes(std::size_t expected) { scenes_.reserve(expected); }
  // Recycles a scratch buffer as the scene log: contents are cleared,
  // capacity is kept (per-thread reuse across campaign runs).
  void adopt_scene_log(std::vector<SceneRecord>&& storage) {
    scenes_ = std::move(storage);
    scenes_.clear();
  }
  std::vector<SceneRecord> release_scenes() { return std::move(scenes_); }
  // Forked replays inherit the golden prefix they skipped: the first
  // `count` golden records become this run's log up to the checkpoint.
  void preload_scene_prefix(const std::vector<SceneRecord>& golden,
                            std::size_t count);
  // Splices the golden tail (records [from, end)) into the log in place of
  // simulating it; only valid right after state_matches() succeeded.
  void splice_golden_tail(const std::vector<SceneRecord>& golden,
                          std::size_t from);

  // Fault interface.
  runtime::FaultRegistry& fault_registry() { return registry_; }
  hw::ArchState& arch_state() { return arch_; }
  void arm_value_fault(const ValueFault& fault) { value_faults_.push_back(fault); }
  void arm_bit_fault(const BitFault& fault) { bit_faults_.push_back(fault); }

  // Module health (hang/crash modeling: a module consuming a non-finite
  // value is disabled for the rest of the run).
  const std::set<std::string>& hung_modules() const { return hung_modules_; }
  bool any_module_hung() const { return !hung_modules_.empty(); }

  // Whether the safing watchdog has taken over actuation (stays true for
  // the rest of the run once engaged).
  bool watchdog_engaged() const { return watchdog_.engaged(); }

  // Scene log (one record per scene frame).
  const std::vector<SceneRecord>& scenes() const { return scenes_; }

  // Believed safety potential, from the ADS's own world model at the
  // current tick. Runs procedure P, so it is computed on demand only (the
  // scene log records the true potential alone).
  kinematics::SafetyPotential believed_safety_potential() const;

  const runtime::Channel<ControlMsg>& control_channel() const { return control_; }
  const runtime::Channel<LocalizationMsg>& localization_channel() const {
    return localization_;
  }
  const runtime::Channel<WorldModelMsg>& world_model_channel() const {
    return world_model_;
  }
  const PipelineConfig& config() const { return config_; }

 private:
  void build_modules();
  void register_fault_targets();
  void apply_value_faults(double t);
  void apply_bit_faults();
  void hang(const std::string& module);
  void record_scene(double t);

  sim::World& world_;
  PipelineConfig config_;
  util::Rng rng_;
  // Separate stream for fault-injection randomness (bit positions). The
  // sensor-noise stream must stay untouched by injections so an injected
  // run is the exact counterfactual of its golden twin: same noise, same
  // world, only the fault differs.
  util::Rng fault_rng_;

  runtime::Scheduler scheduler_;
  runtime::FaultRegistry registry_;
  hw::ArchState arch_;

  runtime::Channel<GpsMsg> gps_{"gps"};
  runtime::Channel<ImuMsg> imu_{"imu"};
  runtime::Channel<DetectionMsg> detections_{"detections"};
  runtime::Channel<LocalizationMsg> localization_{"localization"};
  runtime::Channel<WorldModelMsg> world_model_{"world_model"};
  runtime::Channel<PlanMsg> plan_{"plan"};
  runtime::Channel<ControlMsg> control_{"control"};

  LocalizationEkf ekf_;
  ObjectTracker tracker_;
  PidController pid_;
  Watchdog watchdog_;

  std::vector<ValueFault> value_faults_;
  std::vector<BitFault> bit_faults_;
  std::vector<bool> bit_fault_done_;

  std::set<std::string> hung_modules_;
  std::vector<SceneRecord> scenes_;
  // Last publish time of the primary control module (not the watchdog).
  double last_primary_control_time_ = -1.0;
};

}  // namespace drivefi::ads
