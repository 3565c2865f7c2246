#include "core/replay_plan.h"

#include <algorithm>
#include <map>
#include <utility>

#include "core/experiment.h"

namespace drivefi::core {

ReplayPlan build_replay_plan(const FaultModel& model,
                             const std::vector<std::size_t>& ordered_indices,
                             const Experiment& experiment) {
  ReplayPlan plan;
  plan.total_nodes = ordered_indices.size();

  // std::map keeps groups in ascending scenario order -- the plan must be
  // a pure function of (model, indices, experiment).
  std::map<std::size_t, ReplayGroup> by_scenario;
  for (std::size_t pos = 0; pos < ordered_indices.size(); ++pos) {
    ReplayNode node;
    node.spec = model.spec(ordered_indices[pos], experiment);
    node.order_pos = pos;
    const bool is_value = node.spec.kind == RunSpec::Kind::kValue;
    const std::size_t scenario = is_value ? node.spec.fault.scenario_index
                                          : node.spec.scenario_index;
    const GoldenTrace& golden = experiment.goldens().at(scenario);
    node.fork_scene =
        is_value
            ? golden.last_scene_before_time(node.spec.fault.inject_time)
            : golden.last_scene_before_instruction(node.spec.instruction_index);

    ReplayGroup& group = by_scenario[scenario];
    group.scenario_index = scenario;
    group.nodes.push_back(std::move(node));
  }

  plan.groups.reserve(by_scenario.size());
  for (auto& [scenario, group] : by_scenario) {
    (void)scenario;
    // A trunk that serves a single tail amortizes nothing; the node
    // restores its golden checkpoint directly.
    if (group.nodes.size() < 2)
      for (ReplayNode& node : group.nodes)
        node.fork_scene = GoldenTrace::kNoScene;

    // Tails stay in run order (nodes were appended by ascending order_pos),
    // so the ordered emitter can release each record as soon as it is done;
    // the trunk walk wants its capture scenes sorted and unique.
    for (const ReplayNode& node : group.nodes)
      if (node.fork_scene != GoldenTrace::kNoScene)
        group.capture_scenes.push_back(node.fork_scene);
    std::sort(group.capture_scenes.begin(), group.capture_scenes.end());
    group.capture_scenes.erase(
        std::unique(group.capture_scenes.begin(), group.capture_scenes.end()),
        group.capture_scenes.end());

    plan.snapshot_demand += group.capture_scenes.size();
    plan.groups.push_back(std::move(group));
  }
  return plan;
}

}  // namespace drivefi::core
