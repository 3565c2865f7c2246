/// \file
/// Execution layer of the shared-prefix replay tree, the engine every
/// campaign runs on: takes a ReplayPlan (core/replay_plan.h), materializes
/// each group's trunk -- the golden pipeline states at every divergence
/// scene, re-created once per group by restoring golden checkpoints and
/// simulating only the gaps -- and forks the per-fault tails from those
/// in-memory snapshots. Group and tail tasks share the executor's one
/// TaskQueue: tails within a group parallelize as soon as their trunk is
/// materialized, groups parallelize freely, and records are delivered to
/// the consumer in ascending order_pos (campaign output) order through an
/// OrderedEmitter.
///
/// Memory bound: live trunk snapshots across all in-flight groups are
/// capped by ExperimentOptions::max_live_snapshots. A group that wants more
/// than the remaining budget drops its shallowest divergence snapshots at
/// admission; the affected tails restore their stride-aligned golden
/// checkpoint instead (slower, bit-identical). A group's snapshots are
/// freed -- and its budget returned -- when its last tail completes. A
/// budget of 0 grants no trunk snapshots at all: every tail restores its
/// golden checkpoint (the flat fork), and with checkpoint_stride 0 as well
/// every run simulates its whole scenario (full replay).
///
/// Determinism: scheduling, budget pressure, and snapshot eviction change
/// only where a tail forks and where its reconvergence is detected, never
/// the simulated trajectory; output records are byte-identical to full
/// replay at every thread count, group size, stride, and budget (enforced
/// by tests/determinism_test.cpp and tests/replay_tree_test.cpp).
#pragma once

#include <functional>

#include "core/campaign_stats.h"
#include "core/replay_plan.h"

namespace drivefi::core {

class Experiment;

/// Executes the plan on `experiment`'s executor threads and snapshot
/// budget. consume(record) runs single-threaded and sees records in
/// strictly ascending order_pos order. The first exception from a replay
/// or the consumer cancels outstanding work and is rethrown here.
void run_replay_plan(const Experiment& experiment, const ReplayPlan& plan,
                     const std::function<void(InjectionRecord&&)>& consume);

}  // namespace drivefi::core
