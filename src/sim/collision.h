// Oriented-bounding-box collision test (separating axis theorem) for
// vehicle bodies, exact for the rectangles we model, and a broad phase
// that rules out far-apart pairs without the SAT's trigonometry.
#pragma once

namespace drivefi::sim {

struct Obb {
  double cx = 0.0;      // center, world frame
  double cy = 0.0;
  double heading = 0.0; // rad
  double half_length = 2.4;
  double half_width = 0.95;
};

bool obb_overlap(const Obb& a, const Obb& b);

// Broad phase for obb_overlap: false only when obb_overlap is false too,
// because every input is finite and the centers lie farther apart than
// (1 + 1e-3) times the sum of the boxes' circumradii plus 1e-6 m.
bool obb_may_overlap(const Obb& a, const Obb& b);

}  // namespace drivefi::sim
