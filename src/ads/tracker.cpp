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

  // F is the identity but for dt at (0, 2) and (1, 3), so F P adds dt
  // times rows 2 and 3 to rows 0 and 1, and (F P) F^T does the same to
  // columns. Every entry of F P sums an entry of P, and dt multiplies P's,
  // so F P is finite only if P and dt are. Then the terms left out,
  // x * 0.0, change no bit (see util::all_finite).
  Mat4& p = track.cov;
  Mat4 fp;
  for (std::size_t c = 0; c < 4; ++c) {
    fp(0, c) = 0.0 + p(0, c) + dt * p(2, c);
    fp(1, c) = 0.0 + p(1, c) + dt * p(3, c);
    fp(2, c) = 0.0 + p(2, c);
    fp(3, c) = 0.0 + p(3, c);
  }
  if (!util::all_finite(fp)) {
    p = f * p * f.transposed() + q;
    return;
  }
  for (std::size_t r = 0; r < 4; ++r) {
    p(r, 0) = 0.0 + fp(r, 0) + fp(r, 2) * dt;
    p(r, 1) = 0.0 + fp(r, 1) + fp(r, 3) * dt;
    p(r, 2) = 0.0 + fp(r, 2);
    p(r, 3) = 0.0 + fp(r, 3);
  }
  p += q;
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
  // The products that leave out H's zeros need a finite P, and the
  // covariance's a finite K too; otherwise the dense products run.
  Mat4& p = track.cov;
  const bool finite_p = util::all_finite(p);
  const util::Mat<3, 3> s = finite_p ? util::leading_block<3>(p) + r
                                     : h * p * h.transposed() + r;
  const util::Lu s_lu(s);
  if (s_lu.singular()) return;
  const util::Mat<4, 3> k =
      (finite_p ? util::leading_columns<3>(p) : p * h.transposed()) *
      s_lu.inverse();
  track.state += k * innovation;
  p = finite_p && util::all_finite(k) ? util::identity_minus_kh_times(k, p)
                                      : (Mat4::identity() - k * h) * p;
  track.length = det.length;
  track.width = det.width;
}

void ObjectTracker::update(const DetectionMsg& detections, double t,
                           std::vector<TrackedObject>& confirmed) {
  const double dt = last_time_ >= 0.0 ? t - last_time_ : 0.0;
  last_time_ = t;

  for (auto& track : tracks_)
    if (dt > 0.0) predict(track, dt);

  // Greedy nearest-neighbor association.
  det_used_.assign(detections.detections.size(), false);
  track_matched_.assign(tracks_.size(), false);
  for (std::size_t ti = 0; ti < tracks_.size(); ++ti) {
    double best = config_.association_gate;
    std::size_t best_di = SIZE_MAX;
    for (std::size_t di = 0; di < detections.detections.size(); ++di) {
      if (det_used_[di]) continue;
      const auto& det = detections.detections[di];
      const double d = std::hypot(det.x - tracks_[ti].state[0],
                                  det.y - tracks_[ti].state[1]);
      if (d < best) {
        best = d;
        best_di = di;
      }
    }
    if (best_di != SIZE_MAX) {
      det_used_[best_di] = true;
      track_matched_[ti] = true;
      correct(tracks_[ti], detections.detections[best_di]);
      tracks_[ti].hits += 1;
      tracks_[ti].misses = 0;
      tracks_[ti].last_update = t;
    }
  }

  // Unmatched tracks accumulate misses; stale tracks die.
  for (std::size_t ti = 0; ti < tracks_.size(); ++ti)
    if (!track_matched_[ti]) tracks_[ti].misses += 1;
  tracks_.erase(std::remove_if(tracks_.begin(), tracks_.end(),
                               [&](const Track& tr) {
                                 return tr.misses > config_.max_misses;
                               }),
                tracks_.end());

  // Unmatched detections spawn tentative tracks.
  for (std::size_t di = 0; di < detections.detections.size(); ++di) {
    if (det_used_[di]) continue;
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
  confirmed.clear();
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
    confirmed.push_back(obj);
  }
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
