// Multi-object tracker: per-track constant-velocity Kalman filters with
// greedy nearest-neighbor association, confirmation hysteresis (a track
// must be seen min_hits times before it is published) and miss-based
// deletion. The confirmation delay is the mechanism behind the paper's
// Example 2: a newly revealed object takes several frames to enter the
// world model W_t.
#pragma once

#include <vector>

#include "ads/messages.h"
#include "util/small_matrix.h"

namespace drivefi::ads {

struct TrackerConfig {
  double association_gate = 6.0;   // m, max match distance
  int min_hits = 3;                // frames before a track is confirmed
  int max_misses = 5;              // frames before a track is dropped
  double process_sigma = 0.8;     // m/s^2-ish plant noise
  double measurement_sigma = 0.5;  // m
  double initial_speed_sigma = 4.0;

  bool operator==(const TrackerConfig&) const = default;
};

class ObjectTracker {
 public:
  struct Track {
    int id = 0;
    util::Vec<4> state;  // [x, y, vx, vy]
    util::Mat<4, 4> cov;
    int hits = 0;
    int misses = 0;
    double length = 4.8;
    double width = 1.9;
    double last_update = 0.0;

    bool operator==(const Track&) const = default;
  };

  // Complete tracker state: live tracks (tentative and confirmed), the id
  // allocator, and the last frame time.
  struct Snapshot {
    std::vector<Track> tracks;
    int next_id = 1;
    double last_time = -1.0;

    bool operator==(const Snapshot&) const = default;
  };

  explicit ObjectTracker(const TrackerConfig& config = {});

  Snapshot snapshot() const { return {tracks_, next_id_, last_time_}; }
  void restore(const Snapshot& snap) {
    tracks_ = snap.tracks;
    next_id_ = snap.next_id;
    last_time_ = snap.last_time;
  }
  // Bit-exact comparison against a snapshot (util/bits.h semantics).
  bool state_equals(const Snapshot& snap) const;

  // One tracker frame: predict all tracks to `t`, associate detections,
  // update/spawn/prune. Replaces `confirmed` with the confirmed tracks,
  // keeping its capacity.
  void update(const DetectionMsg& detections, double t,
              std::vector<TrackedObject>& confirmed);

  void reset();
  std::size_t live_track_count() const { return tracks_.size(); }

 private:
  void predict(Track& track, double dt) const;
  void correct(Track& track, const Detection& det) const;

  TrackerConfig config_;
  std::vector<Track> tracks_;
  int next_id_ = 1;
  double last_time_ = -1.0;
  // update()'s association scratch, kept so that a frame allocates none.
  // Not state: snapshot() and state_equals() leave it out.
  std::vector<bool> det_used_;
  std::vector<bool> track_matched_;
};

// Derives the in-path lead-object scalars (lead_gap, lead_rel_speed) that
// the planner and the BN consume. `ego` is the localization estimate.
void annotate_lead(WorldModelMsg& world, const LocalizationMsg& ego,
                   double corridor_half_width = 1.6);

}  // namespace drivefi::ads
