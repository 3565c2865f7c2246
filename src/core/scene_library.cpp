#include "core/scene_library.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <map>
#include <sstream>

#include "util/rng.h"
#include "util/stats.h"

namespace drivefi::core {

namespace {

// Clustering operates on these four dimensions, z-normalized.
constexpr std::size_t kDims = 4;

std::array<double, kDims> raw_point(const SituationFeatures& f) {
  return {f.ego_speed, f.lead_gap, f.closing_speed, f.time_to_collision};
}

double sq_dist(const std::array<double, kDims>& a,
               const std::array<double, kDims>& b) {
  double d = 0.0;
  for (std::size_t i = 0; i < kDims; ++i) d += (a[i] - b[i]) * (a[i] - b[i]);
  return d;
}

}  // namespace

std::vector<SituationFeatures> extract_features(
    const std::vector<SelectedFault>& faults,
    const std::vector<GoldenTrace>& traces, const SceneLibraryConfig& config) {
  std::vector<SituationFeatures> out;
  out.reserve(faults.size());
  for (const auto& sf : faults) {
    const std::size_t scenario = sf.fault.scenario_index;
    if (scenario >= traces.size()) continue;
    const auto& scenes = traces[scenario].scenes;
    const std::size_t k = sf.fault.scene_index;
    if (k >= scenes.size()) continue;
    const auto& scene = scenes[k];

    SituationFeatures f;
    f.scenario_index = scenario;
    f.scene_index = k;
    f.ego_speed = scene.true_v;
    f.lead_gap = scene.lead_gap >= 0.0 ? scene.lead_gap : 250.0;
    // lead_rel_speed is lead minus ego; positive closing means approaching.
    f.closing_speed = std::max(0.0, -scene.lead_rel_speed);
    f.time_to_collision = (f.closing_speed > 0.1 && scene.lead_gap >= 0.0)
                              ? std::min(config.ttc_cap,
                                         f.lead_gap / f.closing_speed)
                              : config.ttc_cap;
    f.delta_lon = sf.golden_delta_lon;
    f.fault_target = ads::kFaultTargets[sf.fault.target].name;
    out.push_back(std::move(f));
  }
  return out;
}

SceneLibrary::SceneLibrary(std::vector<SituationFeatures> features,
                           const SceneLibraryConfig& config) {
  const std::size_t n = features.size();
  assignments_.assign(n, 0);
  if (n == 0) return;

  // z-normalize each dimension so speed (tens of m/s) does not drown TTC.
  std::array<util::RunningStats, kDims> stats;
  for (const auto& f : features) {
    const auto p = raw_point(f);
    for (std::size_t d = 0; d < kDims; ++d) stats[d].add(p[d]);
  }
  std::array<double, kDims> scale;
  for (std::size_t d = 0; d < kDims; ++d)
    scale[d] = stats[d].stddev() > 1e-9 ? 1.0 / stats[d].stddev() : 0.0;

  std::vector<std::array<double, kDims>> points(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto p = raw_point(features[i]);
    for (std::size_t d = 0; d < kDims; ++d)
      points[i][d] = (p[d] - stats[d].mean()) * scale[d];
  }

  const std::size_t k = std::max<std::size_t>(1, std::min(config.clusters, n));

  // k-means++ seeding with a deterministic RNG.
  util::Rng rng(config.seed);
  std::vector<std::array<double, kDims>> centroids;
  centroids.push_back(points[rng.uniform_index(n)]);
  std::vector<double> d2(n, 0.0);
  while (centroids.size() < k) {
    double total = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      double best = std::numeric_limits<double>::max();
      for (const auto& c : centroids) best = std::min(best, sq_dist(points[i], c));
      d2[i] = best;
      total += best;
    }
    if (total <= 0.0) break;  // fewer distinct points than clusters
    double r = rng.uniform() * total;
    std::size_t pick = n - 1;
    for (std::size_t i = 0; i < n; ++i) {
      r -= d2[i];
      if (r <= 0.0) {
        pick = i;
        break;
      }
    }
    centroids.push_back(points[pick]);
  }

  // Lloyd iterations.
  const std::size_t kk = centroids.size();
  for (std::size_t iter = 0; iter < config.max_iterations; ++iter) {
    bool changed = false;
    for (std::size_t i = 0; i < n; ++i) {
      std::size_t best = 0;
      double best_d = std::numeric_limits<double>::max();
      for (std::size_t c = 0; c < kk; ++c) {
        const double d = sq_dist(points[i], centroids[c]);
        if (d < best_d) {
          best_d = d;
          best = c;
        }
      }
      if (assignments_[i] != best) {
        assignments_[i] = best;
        changed = true;
      }
    }
    if (!changed && iter > 0) break;
    std::vector<std::array<double, kDims>> sums(
        kk, std::array<double, kDims>{0, 0, 0, 0});
    std::vector<std::size_t> counts(kk, 0);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t d = 0; d < kDims; ++d)
        sums[assignments_[i]][d] += points[i][d];
      ++counts[assignments_[i]];
    }
    for (std::size_t c = 0; c < kk; ++c)
      if (counts[c] > 0)
        for (std::size_t d = 0; d < kDims; ++d)
          centroids[c][d] = sums[c][d] / static_cast<double>(counts[c]);
  }

  // Summarize clusters in raw (unnormalized) units.
  situations_.resize(kk);
  std::vector<std::map<std::string, std::size_t>> targets(kk);
  for (std::size_t c = 0; c < kk; ++c) {
    auto& s = situations_[c];
    s.speed_min = s.gap_min = s.ttc_min = std::numeric_limits<double>::max();
    s.speed_max = s.gap_max = s.ttc_max = std::numeric_limits<double>::lowest();
  }
  std::vector<util::RunningStats> speed(kk), gap(kk), closing(kk), ttc(kk),
      delta(kk);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t c = assignments_[i];
    const auto& f = features[i];
    auto& s = situations_[c];
    ++s.support;
    speed[c].add(f.ego_speed);
    gap[c].add(f.lead_gap);
    closing[c].add(f.closing_speed);
    ttc[c].add(f.time_to_collision);
    delta[c].add(f.delta_lon);
    s.speed_min = std::min(s.speed_min, f.ego_speed);
    s.speed_max = std::max(s.speed_max, f.ego_speed);
    s.gap_min = std::min(s.gap_min, f.lead_gap);
    s.gap_max = std::max(s.gap_max, f.lead_gap);
    s.ttc_min = std::min(s.ttc_min, f.time_to_collision);
    s.ttc_max = std::max(s.ttc_max, f.time_to_collision);
    ++targets[c][f.fault_target];
  }

  for (std::size_t c = 0; c < kk; ++c) {
    auto& s = situations_[c];
    if (s.support == 0) {
      s.label = "(empty)";
      continue;
    }
    s.centroid.ego_speed = speed[c].mean();
    s.centroid.lead_gap = gap[c].mean();
    s.centroid.closing_speed = closing[c].mean();
    s.centroid.time_to_collision = ttc[c].mean();
    s.centroid.delta_lon = delta[c].mean();
    s.target_histogram.assign(targets[c].begin(), targets[c].end());
    std::sort(s.target_histogram.begin(), s.target_histogram.end(),
              [](const auto& a, const auto& b) { return a.second > b.second; });

    std::ostringstream label;
    if (s.centroid.lead_gap < 30.0)
      label << "close-follow";
    else if (s.centroid.time_to_collision < 10.0)
      label << "closing-fast";
    else
      label << "open-headway";
    label << " @ " << static_cast<int>(std::lround(s.centroid.ego_speed))
          << " m/s";
    s.label = label.str();
  }

  // Support-sorted, empty clusters dropped; remap assignments.
  std::vector<std::size_t> order(kk);
  for (std::size_t c = 0; c < kk; ++c) order[c] = c;
  std::sort(order.begin(), order.end(), [this](std::size_t a, std::size_t b) {
    return situations_[a].support > situations_[b].support;
  });
  std::vector<std::size_t> rank(kk);
  std::vector<Situation> sorted;
  for (std::size_t r = 0; r < kk; ++r) {
    rank[order[r]] = sorted.size();
    if (situations_[order[r]].support > 0)
      sorted.push_back(std::move(situations_[order[r]]));
  }
  situations_ = std::move(sorted);
  for (auto& a : assignments_) a = rank[a];
}

util::Table SceneLibrary::to_table() const {
  util::Table table({"situation", "support", "speed [m/s]", "gap [m]",
                     "TTC [s]", "mean delta_lon [m]", "top fault target"});
  for (const auto& s : situations_) {
    std::ostringstream speed_range, gap_range, ttc_range;
    speed_range << util::Table::fmt(s.speed_min, 1) << ".."
                << util::Table::fmt(s.speed_max, 1);
    gap_range << util::Table::fmt(s.gap_min, 1) << ".."
              << util::Table::fmt(s.gap_max, 1);
    ttc_range << util::Table::fmt(s.ttc_min, 1) << ".."
              << util::Table::fmt(s.ttc_max, 1);
    table.add_row({s.label, util::Table::fmt_int(static_cast<long long>(s.support)),
                   speed_range.str(), gap_range.str(), ttc_range.str(),
                   util::Table::fmt(s.centroid.delta_lon, 2),
                   s.target_histogram.empty() ? "-"
                                              : s.target_histogram[0].first});
  }
  return table;
}

}  // namespace drivefi::core
