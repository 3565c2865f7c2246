/// \file
/// Planning layer of the shared-prefix replay tree. A campaign's RunSpecs
/// are grouped by scenario (every fault injected into the same scenario
/// shares the fault-free prefix up to its injection point), each fault is
/// mapped to its divergence scene -- the latest golden scene boundary
/// strictly before the injection fires -- and the groups come out as an
/// executable ReplayPlan: one trunk walk per group materializes an
/// in-memory snapshot at every divergence scene, and each per-fault tail
/// forks from its divergence snapshot instead of from the (stride-aligned,
/// possibly much earlier) golden checkpoint.
///
/// Planning is pure bookkeeping over the precomputed golden traces: no
/// simulation happens here, and the plan for a given (model, index list,
/// experiment) is deterministic -- the tree executor's output order and
/// content never depend on it beyond cost.
#pragma once

#include <cstddef>
#include <vector>

#include "core/fault_model.h"
#include "core/trace.h"

namespace drivefi::core {

class Experiment;

/// One campaign run as the tree executes it: the spec, its position in the
/// ordered output sequence, and the trunk scene it forks from
/// (GoldenTrace::kNoScene = no trunk snapshot applies; the node restores
/// its stride-aligned golden checkpoint, if any).
struct ReplayNode {
  RunSpec spec;
  std::size_t order_pos = 0;
  std::size_t fork_scene = GoldenTrace::kNoScene;
};

/// All replays that share one scenario's golden prefix. `capture_scenes`
/// is the sorted, deduplicated set of divergence scenes the trunk walk
/// must snapshot; nodes are in run order (ascending order_pos), so a
/// group's records stream out as its tails finish.
struct ReplayGroup {
  std::size_t scenario_index = 0;
  std::vector<std::size_t> capture_scenes;
  std::vector<ReplayNode> nodes;
};

/// An executable batched-replay campaign: groups in ascending scenario
/// order. Output order is recovered from ReplayNode::order_pos, never from
/// group layout.
struct ReplayPlan {
  std::vector<ReplayGroup> groups;
  std::size_t total_nodes = 0;
  /// Sum of capture_scenes sizes: how many live snapshots the plan wants
  /// when nothing is capped (the default --max-live-snapshots budget).
  std::size_t snapshot_demand = 0;
};

/// Builds the plan for executing `ordered_indices` (ascending run indices;
/// order_pos i corresponds to ordered_indices[i]) of `model`. Groups with
/// fewer than two nodes get no trunk: a trunk that serves a single tail
/// cannot amortize anything, so its node forks from the golden checkpoint
/// directly.
ReplayPlan build_replay_plan(const FaultModel& model,
                             const std::vector<std::size_t>& ordered_indices,
                             const Experiment& experiment);

}  // namespace drivefi::core
