// The fault targets: the ADS variables the paper's fault models corrupt,
// one row each. This table is the one list of them. The pipeline reads and
// writes target i through row i and binds hw::ArchState register i to it;
// the fault catalog, the random fault models and the Bayesian selector
// read the same rows. Faults carry a row index, and a target's name is
// printed only where text is made (run descriptions, reports, the replay
// hash of a Bayesian campaign).
//
// The rows' order and count are part of every campaign record: catalog
// position i, the random models' target draws and the bit-flip register
// index all count rows.
#pragma once

#include <array>
#include <cstddef>
#include <string_view>
#include <variant>

#include "ads/messages.h"
#include "ads/sensors.h"

namespace drivefi::ads {

// Where a target's value lives: a member of a channel's latest message,
// whose class picks the channel, or a member of the live object-sensor
// config, the one configuration value a fault can write.
using TargetField =
    std::variant<double GpsMsg::*, double ImuMsg::*, double LocalizationMsg::*,
                 double WorldModelMsg::*, double PlanMsg::*,
                 double ControlMsg::*, double ObjectSensorConfig::*>;

struct FaultTargetRow {
  std::string_view name;
  double min_value;  // the value fault model's two extremes
  double max_value;
  TargetField field;
  // The BN variable (one of scene_variable_names()) the selector scores a
  // fault on this target through, empty when the BN has none. The BN reads
  // the fault's value minus bn_offset: localization.y is a world
  // coordinate, its BN variable an offset from lane 1's centre.
  std::string_view bn_variable;
  double bn_offset;
};

inline constexpr auto kFaultTargets = std::to_array<FaultTargetRow>({
    // Sensor outputs (I_t, M_t).
    {"gps.x", 0.0, 2000.0, &GpsMsg::x, "", 0.0},
    {"gps.y", -5.0, 12.0, &GpsMsg::y, "", 0.0},
    {"gps.heading", -0.6, 0.6, &GpsMsg::heading, "theta", 0.0},
    {"imu.speed", 0.0, 45.0, &ImuMsg::speed, "v", 0.0},
    {"imu.accel", -10.0, 10.0, &ImuMsg::accel, "", 0.0},
    {"imu.yaw_rate", -1.0, 1.0, &ImuMsg::yaw_rate, "", 0.0},
    // Localization outputs.
    {"localization.x", 0.0, 2000.0, &LocalizationMsg::x, "", 0.0},
    {"localization.y", -5.0, 12.0, &LocalizationMsg::y, "y_off", 3.7},
    {"localization.theta", -0.6, 0.6, &LocalizationMsg::theta, "theta", 0.0},
    {"localization.v", 0.0, 45.0, &LocalizationMsg::v, "v", 0.0},
    // Perception / world model (W_t).
    {"perception.range", 15.0, 250.0, &ObjectSensorConfig::range, "", 0.0},
    {"world_model.lead_gap", 0.0, 250.0, &WorldModelMsg::lead_gap, "lead_gap",
     0.0},
    {"world_model.lead_rel_speed", -40.0, 40.0, &WorldModelMsg::lead_rel_speed,
     "lead_rel_speed", 0.0},
    // Planner outputs (U_{A,t}).
    {"plan.target_accel", -6.0, 2.5, &PlanMsg::target_accel, "u_accel", 0.0},
    {"plan.target_steer", -0.3, 0.3, &PlanMsg::target_steer, "u_steer", 0.0},
    {"plan.target_speed", 0.0, 45.0, &PlanMsg::target_speed, "", 0.0},
    // Control outputs (A_t).
    {"control.throttle", 0.0, 1.0, &ControlMsg::throttle, "throttle", 0.0},
    {"control.brake", 0.0, 1.0, &ControlMsg::brake, "brake", 0.0},
    {"control.steering", -0.55, 0.55, &ControlMsg::steering, "steer", 0.0},
});

// The row of the target called `name`, for code that names a target in
// source; throws std::out_of_range on an unknown name.
std::size_t target_index(std::string_view name);

}  // namespace drivefi::ads
