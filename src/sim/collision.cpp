#include "sim/collision.h"

#include <cmath>

namespace drivefi::sim {

namespace {

struct Vec2 {
  double x, y;
};

// Projection radius of box `b` onto unit axis `axis`.
double projection_radius(const Obb& b, const Vec2& axis) {
  const double c = std::cos(b.heading);
  const double s = std::sin(b.heading);
  const Vec2 ex{c, s};         // body x axis
  const Vec2 ey{-s, c};        // body y axis
  return b.half_length * std::abs(axis.x * ex.x + axis.y * ex.y) +
         b.half_width * std::abs(axis.x * ey.x + axis.y * ey.y);
}

}  // namespace

bool obb_overlap(const Obb& a, const Obb& b) {
  const Vec2 d{b.cx - a.cx, b.cy - a.cy};
  const double axes[4][2] = {
      {std::cos(a.heading), std::sin(a.heading)},
      {-std::sin(a.heading), std::cos(a.heading)},
      {std::cos(b.heading), std::sin(b.heading)},
      {-std::sin(b.heading), std::cos(b.heading)},
  };
  for (const auto& ax : axes) {
    const Vec2 axis{ax[0], ax[1]};
    const double dist = std::abs(d.x * axis.x + d.y * axis.y);
    if (dist > projection_radius(a, axis) + projection_radius(b, axis))
      return false;  // separating axis found
  }
  return true;
}

bool obb_may_overlap(const Obb& a, const Obb& b) {
  // Each box lies inside its circumcircle, so boxes whose circles are
  // disjoint are separated by at least the circles' gap, and one of the
  // four SAT axes shows at least 1/sqrt(2) of it (the axis nearest the
  // direction between the closest points). The margins keep that gap far
  // above the SAT's rounding. A NaN or infinity can make the SAT report an
  // overlap, so any non-finite input goes to it.
  const double dx = b.cx - a.cx;
  const double dy = b.cy - a.cy;
  if (!std::isfinite(dx) || !std::isfinite(dy) || !std::isfinite(a.heading) ||
      !std::isfinite(b.heading))
    return true;
  const double reach =
      (1.0 + 1e-3) *
          (std::sqrt(a.half_length * a.half_length +
                     a.half_width * a.half_width) +
           std::sqrt(b.half_length * b.half_length +
                     b.half_width * b.half_width)) +
      1e-6;
  return !(dx * dx + dy * dy > reach * reach);
}

}  // namespace drivefi::sim
