#include "ads/tracker.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/bits.h"

namespace drivefi::ads {

using Mat4 = util::Mat<4, 4>;

ObjectTracker::ObjectTracker(const TrackerConfig& config) : config_(config) {}

void ObjectTracker::reset() {
  tracks_.clear();
  next_id_ = 1;
  last_time_ = -1.0;
}

bool ObjectTracker::state_equals(const Snapshot& snap) const {
  using util::bits_equal;
  if (next_id_ != snap.next_id || !bits_equal(last_time_, snap.last_time) ||
      tracks_.size() != snap.tracks.size())
    return false;
  for (std::size_t i = 0; i < tracks_.size(); ++i) {
    const Track& a = tracks_[i];
    const Track& b = snap.tracks[i];
    if (a.id != b.id || a.hits != b.hits || a.misses != b.misses ||
        !bits_equal(a.length, b.length) || !bits_equal(a.width, b.width) ||
        !bits_equal(a.last_update, b.last_update) ||
        !bits_equal(a.state, b.state) || !bits_equal(a.cov, b.cov))
      return false;
  }
  return true;
}

void ObjectTracker::predict(Track& track, double dt) const {
  track.state[0] += track.state[2] * dt;
  track.state[1] += track.state[3] * dt;

  Mat4 f = Mat4::identity();
  f(0, 2) = dt;
  f(1, 3) = dt;
  Mat4 q;
  const double s = config_.process_sigma * config_.process_sigma;
  q(0, 0) = q(1, 1) = 0.25 * dt * dt * dt * dt * s;
  q(0, 2) = q(2, 0) = 0.5 * dt * dt * dt * s;
  q(1, 3) = q(3, 1) = 0.5 * dt * dt * dt * s;
  q(2, 2) = q(3, 3) = dt * dt * s;
  track.cov = f * track.cov * f.transposed() + q;
}

void ObjectTracker::correct(Track& track, const Detection& det) const {
  // Measurement: position (x, y) and speed along +x.
  util::Mat<3, 4> h;
  h(0, 0) = 1.0;
  h(1, 1) = 1.0;
  h(2, 2) = 1.0;

  util::Mat<3, 3> r;
  r(0, 0) = r(1, 1) = config_.measurement_sigma * config_.measurement_sigma;
  r(2, 2) = 4.0 * config_.measurement_sigma * config_.measurement_sigma;

  const util::Vec<3> innovation{{det.x - track.state[0],
                                 det.y - track.state[1],
                                 det.speed_along - track.state[2]}};
  const util::Mat<3, 3> s = h * track.cov * h.transposed() + r;
  const util::Lu s_lu(s);
  if (s_lu.singular()) return;
  const util::Mat<4, 3> k = track.cov * h.transposed() * s_lu.inverse();
  track.state += k * innovation;
  track.cov = (Mat4::identity() - k * h) * track.cov;
  track.length = det.length;
  track.width = det.width;
}

std::vector<TrackedObject> ObjectTracker::update(const DetectionMsg& detections,
                                                 double t) {
  const double dt = last_time_ >= 0.0 ? t - last_time_ : 0.0;
  last_time_ = t;

  for (auto& track : tracks_)
    if (dt > 0.0) predict(track, dt);

  // Greedy nearest-neighbor association.
  std::vector<bool> det_used(detections.detections.size(), false);
  std::vector<bool> track_matched(tracks_.size(), false);
  for (std::size_t ti = 0; ti < tracks_.size(); ++ti) {
    double best = config_.association_gate;
    std::size_t best_di = SIZE_MAX;
    for (std::size_t di = 0; di < detections.detections.size(); ++di) {
      if (det_used[di]) continue;
      const auto& det = detections.detections[di];
      const double d = std::hypot(det.x - tracks_[ti].state[0],
                                  det.y - tracks_[ti].state[1]);
      if (d < best) {
        best = d;
        best_di = di;
      }
    }
    if (best_di != SIZE_MAX) {
      det_used[best_di] = true;
      track_matched[ti] = true;
      correct(tracks_[ti], detections.detections[best_di]);
      tracks_[ti].hits += 1;
      tracks_[ti].misses = 0;
      tracks_[ti].last_update = t;
    }
  }

  // Unmatched tracks accumulate misses; stale tracks die.
  for (std::size_t ti = 0; ti < tracks_.size(); ++ti)
    if (!track_matched[ti]) tracks_[ti].misses += 1;
  tracks_.erase(std::remove_if(tracks_.begin(), tracks_.end(),
                               [&](const Track& tr) {
                                 return tr.misses > config_.max_misses;
                               }),
                tracks_.end());

  // Unmatched detections spawn tentative tracks.
  for (std::size_t di = 0; di < detections.detections.size(); ++di) {
    if (det_used[di]) continue;
    const auto& det = detections.detections[di];
    Track track;
    track.id = next_id_++;
    track.state[0] = det.x;
    track.state[1] = det.y;
    track.state[2] = det.speed_along;
    track.state[3] = 0.0;
    track.cov = Mat4::identity();
    track.cov(2, 2) = track.cov(3, 3) =
        config_.initial_speed_sigma * config_.initial_speed_sigma;
    track.hits = 1;
    track.length = det.length;
    track.width = det.width;
    track.last_update = t;
    tracks_.push_back(std::move(track));
  }

  // Publish confirmed tracks only.
  std::vector<TrackedObject> out;
  for (const auto& track : tracks_) {
    if (track.hits < config_.min_hits) continue;
    TrackedObject obj;
    obj.id = track.id;
    obj.x = track.state[0];
    obj.y = track.state[1];
    obj.vx = track.state[2];
    obj.vy = track.state[3];
    obj.length = track.length;
    obj.width = track.width;
    obj.age_frames = track.hits;
    out.push_back(obj);
  }
  return out;
}

void annotate_lead(WorldModelMsg& world, const LocalizationMsg& ego,
                   double corridor_half_width) {
  world.lead_gap = -1.0;
  world.lead_rel_speed = 0.0;
  double best_gap = std::numeric_limits<double>::max();
  for (const auto& obj : world.objects) {
    const double dx = obj.x - ego.x;
    const double dy = obj.y - ego.y;
    // In-path: ahead of the ego and laterally within the corridor.
    if (dx <= 0.0 || std::abs(dy) > corridor_half_width + obj.width / 2.0)
      continue;
    const double gap = dx - obj.length / 2.0;
    if (gap < best_gap) {
      best_gap = gap;
      world.lead_gap = std::max(0.0, gap);
      world.lead_rel_speed = obj.vx - ego.v;
    }
  }
}

}  // namespace drivefi::ads
