#include "core/replay_tree.h"

#include <algorithm>
#include <atomic>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "core/executor.h"
#include "core/experiment.h"
#include "obs/metrics.h"

namespace drivefi::core {

namespace {

// Global live-snapshot budget shared by every in-flight group. Admission
// control only affects WHICH snapshots exist, i.e. where tails fork and
// where reconvergence is detected -- cost, never content -- so a relaxed
// best-effort counter is safe. The default cap, SIZE_MAX, clamps to a
// count that never runs out.
class SnapshotBudget {
 public:
  explicit SnapshotBudget(std::size_t cap)
      : available_(static_cast<long long>(std::min<std::size_t>(
            cap, std::numeric_limits<long long>::max()))) {}

  bool try_acquire() {
    if (available_.fetch_sub(1, std::memory_order_relaxed) > 0) return true;
    available_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }

  void release(std::size_t count) {
    available_.fetch_add(static_cast<long long>(count),
                         std::memory_order_relaxed);
  }

 private:
  std::atomic<long long> available_;
};

// One group's materialized trunk, shared by its tail tasks. Snapshots stay
// resident until the group's last tail completes: tails splice against ANY
// of the group's snapshots, so early per-snapshot eviction would race with
// a sibling's splice scan.
struct GroupRuntime {
  const ReplayGroup* group = nullptr;
  SnapshotBudget* budget = nullptr;
  std::vector<std::size_t> granted_scenes;       // sorted ascending
  std::vector<ads::PipelineSnapshot> snapshots;  // parallel to granted_scenes
  SpliceCandidates candidates;
  std::atomic<std::size_t> remaining{0};

  const ads::PipelineSnapshot* fork_for(std::size_t scene) const {
    const auto it = std::lower_bound(granted_scenes.begin(),
                                     granted_scenes.end(), scene);
    if (it == granted_scenes.end() || *it != scene) return nullptr;
    return &snapshots[static_cast<std::size_t>(it - granted_scenes.begin())];
  }

  void node_done() {
    if (remaining.fetch_sub(1) == 1) {
      budget->release(granted_scenes.size());
      snapshots.clear();
      snapshots.shrink_to_fit();
      candidates.clear();
    }
  }
};

// Admission + trunk walk for one group. Budget over-demand drops the
// SHALLOWEST divergence scenes first: a deep snapshot saves the most
// re-simulation for its tails, and a dropped shallow tail falls back to a
// nearby golden checkpoint anyway.
void prepare_group(const Experiment& experiment, GroupRuntime& rt) {
  static obs::Counter& groups_metric =
      obs::metrics().counter("replay_tree.groups");
  static obs::Counter& evictions_metric =
      obs::metrics().counter("replay_tree.snapshot_evictions");
  static obs::Histogram& depth_hist =
      obs::metrics().histogram("replay_tree.group_depth");
  groups_metric.add();
  depth_hist.observe(static_cast<double>(rt.group->capture_scenes.size()));

  rt.granted_scenes.reserve(rt.group->capture_scenes.size());
  for (auto it = rt.group->capture_scenes.rbegin();
       it != rt.group->capture_scenes.rend(); ++it) {
    if (rt.budget->try_acquire())
      rt.granted_scenes.push_back(*it);
    else
      evictions_metric.add();
  }
  std::sort(rt.granted_scenes.begin(), rt.granted_scenes.end());

  if (!rt.granted_scenes.empty()) {
    rt.snapshots =
        experiment.materialize_trunk(rt.group->scenario_index,
                                     rt.granted_scenes);
    rt.candidates.reserve(rt.snapshots.size());
    for (std::size_t k = 0; k < rt.snapshots.size(); ++k)
      rt.candidates.emplace_back(rt.granted_scenes[k], &rt.snapshots[k]);
  }
}

InjectionRecord execute_node(const Experiment& experiment,
                             const GroupRuntime& rt, const ReplayNode& node) {
  static obs::Counter& fallback_metric =
      obs::metrics().counter("replay_tree.fallback_tails");
  static obs::Counter& reuse_metric =
      obs::metrics().counter("replay_tree.prefix_scenes_reused");

  const ads::PipelineSnapshot* fork = nullptr;
  if (node.fork_scene != GoldenTrace::kNoScene) {
    fork = rt.fork_for(node.fork_scene);
    if (fork == nullptr) {
      // Divergence snapshot dropped at admission: restore the golden
      // checkpoint instead.
      fallback_metric.add();
    } else {
      // How many prefix scenes the trunk saved this tail over the
      // stride-aligned checkpoint it would otherwise restore.
      const GoldenTrace& golden =
          experiment.goldens().at(rt.group->scenario_index);
      const ads::PipelineSnapshot* aligned =
          node.spec.kind == RunSpec::Kind::kValue
              ? golden.checkpoint_before_time(node.spec.fault.inject_time)
              : golden.checkpoint_before_instruction(
                    node.spec.instruction_index);
      reuse_metric.add(aligned != nullptr
                           ? node.fork_scene - aligned->scene_index
                           : node.fork_scene + 1);
    }
  }
  return experiment.execute(node.spec, fork,
                            rt.candidates.empty() ? nullptr : &rt.candidates);
}

}  // namespace

void run_replay_plan(const Experiment& experiment, const ReplayPlan& plan,
                     const std::function<void(InjectionRecord&&)>& consume) {
  if (plan.total_nodes == 0) return;
  OrderedEmitter<InjectionRecord> emitter(plan.total_nodes, consume);
  SnapshotBudget budget(experiment.options().max_live_snapshots);

  // Group (trunk) tasks seed the back of the queue; each materialized group
  // pushes its tails at the FRONT, in run order (depth-first: drain a
  // group's tails, freeing its snapshots, before starting another trunk).
  TaskQueue queue;
  for (const ReplayGroup& group : plan.groups) {
    auto rt = std::make_shared<GroupRuntime>();
    rt->group = &group;
    rt->budget = &budget;
    rt->remaining.store(group.nodes.size(), std::memory_order_relaxed);
    queue.push_back([&experiment, rt, &emitter, &queue] {
      if (emitter.cancelled()) return;
      try {
        prepare_group(experiment, *rt);
      } catch (...) {
        emitter.fail(std::current_exception());
        queue.cancel();
        return;
      }
      std::vector<std::function<void()>> tails;
      tails.reserve(rt->group->nodes.size());
      for (const ReplayNode& node : rt->group->nodes) {
        tails.push_back([&experiment, rt, &emitter, &queue, &node] {
          if (!emitter.cancelled()) {
            try {
              emitter.deposit(node.order_pos,
                              execute_node(experiment, *rt, node));
            } catch (...) {
              emitter.fail(std::current_exception());
              queue.cancel();
            }
          }
          rt->node_done();
        });
      }
      queue.push_front(std::move(tails));
    });
  }

  queue.run(static_cast<unsigned>(std::min<std::size_t>(
      resolve_thread_count(experiment.options().executor.threads),
      plan.total_nodes)));
  emitter.finish();
}

}  // namespace drivefi::core
