// Shared-prefix replay tree (core/replay_plan.h + core/replay_tree.h):
// plan construction is a pure function of (model, indices, goldens) that
// keeps each group's tails in run order; trunk snapshots are bit-exact
// golden states (checked module by module against an independent golden
// replay); the live-snapshot budget degrades cost, never content; and a
// fleet worker killed mid-subtree leaves a campaign that still merges
// byte-identical to the single-process run.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <numeric>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "coord/coordinator.h"
#include "coord/worker.h"
#include "core/experiment.h"
#include "core/fault_model.h"
#include "core/jsonl.h"
#include "core/manifest.h"
#include "core/replay_plan.h"
#include "core/result_sink.h"
#include "core/result_store.h"
#include "obs/metrics.h"

namespace drivefi::core {
namespace {

ads::PipelineConfig test_pipeline_config() {
  ads::PipelineConfig config;
  config.seed = 11;
  return config;
}

std::vector<sim::Scenario> small_suite(std::size_t count) {
  const auto all = sim::base_suite();
  return {all.begin(), all.begin() + static_cast<std::ptrdiff_t>(count)};
}

Experiment make_experiment(std::size_t scenario_count,
                           ExperimentOptions options = {}) {
  return Experiment(small_suite(scenario_count), test_pipeline_config(), {},
                    options);
}

std::vector<std::size_t> iota_indices(std::size_t n) {
  std::vector<std::size_t> indices(n);
  std::iota(indices.begin(), indices.end(), std::size_t{0});
  return indices;
}

std::size_t scenario_of(const RunSpec& spec) {
  return spec.kind == RunSpec::Kind::kValue ? spec.fault.scenario_index
                                            : spec.scenario_index;
}

TEST(ReplayPlan, GroupsByScenarioAndKeepsRunOrder) {
  const Experiment experiment = make_experiment(4);
  const RandomValueModel model(24, 555);
  const ReplayPlan plan =
      build_replay_plan(model, iota_indices(model.run_count()), experiment);

  EXPECT_EQ(plan.total_nodes, model.run_count());
  std::size_t nodes_seen = 0;
  std::set<std::size_t> order_pos_seen;
  std::size_t prev_scenario = GoldenTrace::kNoScene;
  std::size_t demand = 0;
  bool divergence_out_of_order = false;
  for (const ReplayGroup& group : plan.groups) {
    // Ascending, unique scenarios.
    if (prev_scenario != GoldenTrace::kNoScene) {
      EXPECT_GT(group.scenario_index, prev_scenario);
    }
    prev_scenario = group.scenario_index;
    ASSERT_FALSE(group.nodes.empty());

    const GoldenTrace& golden = experiment.goldens().at(group.scenario_index);
    std::set<std::size_t> fork_scenes;
    for (std::size_t k = 0; k < group.nodes.size(); ++k) {
      const ReplayNode& node = group.nodes[k];
      ++nodes_seen;
      order_pos_seen.insert(node.order_pos);
      EXPECT_EQ(scenario_of(node.spec), group.scenario_index);
      // Tails in run order, so the ordered emitter can release each
      // group's records as they finish instead of holding them back until
      // its lowest run index is done.
      if (k > 0) {
        EXPECT_GT(node.order_pos, group.nodes[k - 1].order_pos);
        divergence_out_of_order |=
            node.fork_scene < group.nodes[k - 1].fork_scene;
      }

      if (node.fork_scene == GoldenTrace::kNoScene) continue;
      fork_scenes.insert(node.fork_scene);
      // The divergence scene ends strictly before the injection, and is the
      // LAST scene that does -- the deepest safe fork point.
      EXPECT_LT(golden.scene_end_times.at(node.fork_scene),
                node.spec.fault.inject_time);
      if (node.fork_scene + 1 < golden.scene_end_times.size()) {
        EXPECT_GE(golden.scene_end_times.at(node.fork_scene + 1),
                  node.spec.fault.inject_time);
      }
    }
    // The trunk walk still gets its capture scenes sorted and unique.
    EXPECT_EQ(std::vector<std::size_t>(fork_scenes.begin(), fork_scenes.end()),
              group.capture_scenes);
    demand += group.capture_scenes.size();
  }
  EXPECT_EQ(nodes_seen, plan.total_nodes);
  EXPECT_EQ(order_pos_seen.size(), plan.total_nodes);  // a permutation
  EXPECT_EQ(demand, plan.snapshot_demand);
  // Random injection times: run order is not divergence order, so the
  // check above really tests that the plan does not sort by divergence.
  EXPECT_TRUE(divergence_out_of_order);
}

TEST(ReplayPlan, SingleNodeGroupsDegradeToFlatFork) {
  // A trunk serving one tail amortizes nothing: a group with a single node
  // must carry no capture scenes and mark its node kNoScene (it restores
  // its golden checkpoint directly).
  const Experiment experiment = make_experiment(4);
  const RandomValueModel model(24, 555);

  // Pick every index of the most-populated scenario plus exactly one index
  // of some other scenario.
  std::map<std::size_t, std::vector<std::size_t>> by_scenario;
  for (std::size_t i = 0; i < model.run_count(); ++i)
    by_scenario[scenario_of(model.spec(i, experiment))].push_back(i);
  ASSERT_GE(by_scenario.size(), 2u);
  const auto big = std::max_element(
      by_scenario.begin(), by_scenario.end(),
      [](const auto& a, const auto& b) {
        return a.second.size() < b.second.size();
      });
  ASSERT_GE(big->second.size(), 2u);
  const auto lone = std::find_if(by_scenario.begin(), by_scenario.end(),
                                 [&](const auto& e) { return e.first != big->first; });

  std::vector<std::size_t> indices = big->second;
  indices.push_back(lone->second.front());
  const ReplayPlan plan = build_replay_plan(model, indices, experiment);

  ASSERT_EQ(plan.groups.size(), 2u);
  for (const ReplayGroup& group : plan.groups) {
    if (group.scenario_index == big->first) {
      EXPECT_FALSE(group.capture_scenes.empty());
      continue;
    }
    ASSERT_EQ(group.nodes.size(), 1u);
    EXPECT_EQ(group.nodes[0].fork_scene, GoldenTrace::kNoScene);
    EXPECT_TRUE(group.capture_scenes.empty());
  }
}

TEST(ReplayTree, TrunkSnapshotsBitEqualIndependentGoldenReplay) {
  // The trunk walk (restore a sparse golden checkpoint, simulate the gap,
  // snapshot at each divergence scene) must reproduce the golden state
  // BIT-EXACTLY. Independent source of truth: a second engine with
  // checkpoint_stride 1, whose golden run snapshots every scene directly.
  ExperimentOptions sparse_options;
  sparse_options.checkpoint_stride = 4;
  const Experiment sparse = make_experiment(1, sparse_options);

  ExperimentOptions dense_options;
  dense_options.checkpoint_stride = 1;
  const Experiment dense = make_experiment(1, dense_options);
  const auto& dense_checkpoints = dense.goldens()[0].checkpoints;

  // Off-stride scenes (gap simulation), an on-stride scene (pure restore),
  // and scene 0 (restore of the initial checkpoint).
  const std::vector<std::size_t> scenes = {0, 3, 5, 8, 13};
  const std::vector<ads::PipelineSnapshot> trunk =
      sparse.materialize_trunk(0, scenes);
  ASSERT_EQ(trunk.size(), scenes.size());

  for (std::size_t k = 0; k < scenes.size(); ++k) {
    ASSERT_LT(scenes[k], dense_checkpoints.size());
    const ads::PipelineSnapshot& got = trunk[k];
    const ads::PipelineSnapshot& want = dense_checkpoints[scenes[k]];
    // Every module snapshot individually, for a pinpointed failure...
    EXPECT_EQ(got.scene_index, want.scene_index) << "scene " << scenes[k];
    EXPECT_EQ(got.t, want.t) << "scene " << scenes[k];
    EXPECT_EQ(got.scheduler, want.scheduler) << "scene " << scenes[k];
    EXPECT_EQ(got.world, want.world) << "scene " << scenes[k];
    EXPECT_EQ(got.rng, want.rng) << "scene " << scenes[k];
    EXPECT_EQ(got.arch, want.arch) << "scene " << scenes[k];
    EXPECT_EQ(got.gps, want.gps) << "scene " << scenes[k];
    EXPECT_EQ(got.imu, want.imu) << "scene " << scenes[k];
    EXPECT_EQ(got.detections, want.detections) << "scene " << scenes[k];
    EXPECT_EQ(got.localization, want.localization) << "scene " << scenes[k];
    EXPECT_EQ(got.world_model, want.world_model) << "scene " << scenes[k];
    EXPECT_EQ(got.plan, want.plan) << "scene " << scenes[k];
    EXPECT_EQ(got.control, want.control) << "scene " << scenes[k];
    EXPECT_EQ(got.ekf, want.ekf) << "scene " << scenes[k];
    EXPECT_EQ(got.tracker, want.tracker) << "scene " << scenes[k];
    EXPECT_EQ(got.pid, want.pid) << "scene " << scenes[k];
    EXPECT_EQ(got.watchdog, want.watchdog) << "scene " << scenes[k];
    EXPECT_EQ(got.object_sensor, want.object_sensor) << "scene " << scenes[k];
    EXPECT_EQ(got.hung_modules, want.hung_modules) << "scene " << scenes[k];
    EXPECT_EQ(got.last_primary_control_time, want.last_primary_control_time)
        << "scene " << scenes[k];
    // ... and the whole state, in case a member is ever added without
    // updating the list above.
    EXPECT_EQ(got, want) << "trunk snapshot diverged at scene " << scenes[k];
  }
}

TEST(ReplayTree, ForkAtDivergenceRecordEqualsFlatForkRecord) {
  // A tail forked from a trunk divergence snapshot (with the trunk's
  // snapshots as extra splice candidates) must produce the same record as
  // a replay forking from the stride-aligned golden checkpoint.
  const Experiment experiment = make_experiment(2);
  const RandomValueModel model(12, 555);
  const ReplayPlan plan =
      build_replay_plan(model, iota_indices(model.run_count()), experiment);

  for (const ReplayGroup& group : plan.groups) {
    if (group.capture_scenes.empty()) continue;
    const std::vector<ads::PipelineSnapshot> trunk =
        experiment.materialize_trunk(group.scenario_index,
                                     group.capture_scenes);
    SpliceCandidates candidates;
    for (std::size_t k = 0; k < trunk.size(); ++k)
      candidates.emplace_back(group.capture_scenes[k], &trunk[k]);

    for (const ReplayNode& node : group.nodes) {
      const InjectionRecord flat = experiment.execute(node.spec);
      const ads::PipelineSnapshot* fork = nullptr;
      if (node.fork_scene != GoldenTrace::kNoScene) {
        const auto it =
            std::lower_bound(group.capture_scenes.begin(),
                             group.capture_scenes.end(), node.fork_scene);
        fork = &trunk[static_cast<std::size_t>(
            it - group.capture_scenes.begin())];
      }
      const InjectionRecord tree =
          experiment.execute(node.spec, fork, &candidates);
      EXPECT_EQ(flat.run_index, tree.run_index);
      EXPECT_EQ(flat.description, tree.description);
      EXPECT_EQ(flat.scenario_index, tree.scenario_index);
      EXPECT_EQ(flat.scene_index, tree.scene_index);
      EXPECT_EQ(flat.outcome, tree.outcome);
      EXPECT_EQ(flat.min_delta_lon, tree.min_delta_lon);
      EXPECT_EQ(flat.max_actuation_divergence, tree.max_actuation_divergence);
    }
  }
}

std::pair<std::string, std::string> run_campaign(const Experiment& experiment,
                                                 const FaultModel& model) {
  std::ostringstream out;
  JsonlSink sink(out);
  std::vector<ResultSink*> sinks = {&sink};
  const CampaignStats stats = experiment.run(model, sinks);
  return {campaign_fingerprint(stats), scrub_wall_seconds(out.str())};
}

TEST(ReplayTree, SnapshotBudgetEvictionFallsBackBitEqual) {
  // Starve the live-snapshot budget down to one snapshot: most tails fall
  // back to the golden-checkpoint restore. Slower -- never different. The
  // eviction is observable in the obs counter, the output is not.
  const RandomValueModel model(16, 555);
  ExperimentOptions uncapped_options;
  uncapped_options.executor.threads = 2;
  const Experiment uncapped = make_experiment(3, uncapped_options);
  const auto base = run_campaign(uncapped, model);

  ExperimentOptions capped_options;
  capped_options.executor.threads = 2;
  capped_options.max_live_snapshots = 1;
  const Experiment capped = make_experiment(3, capped_options);

  obs::Counter& evictions =
      obs::metrics().counter("replay_tree.snapshot_evictions");
  obs::Counter& fallbacks = obs::metrics().counter("replay_tree.fallback_tails");
  const std::uint64_t evictions_before = evictions.value();
  const std::uint64_t fallbacks_before = fallbacks.value();
  const auto capped_result = run_campaign(capped, model);
  EXPECT_GT(evictions.value(), evictions_before)
      << "a 1-snapshot budget over 3 scenario groups must evict";
  EXPECT_GT(fallbacks.value(), fallbacks_before);

  EXPECT_EQ(base.first, capped_result.first)
      << "stats diverged under snapshot-budget pressure";
  EXPECT_EQ(base.second, capped_result.second)
      << "JSONL diverged under snapshot-budget pressure";
}

TEST(ReplayTree, FleetWorkerKilledMidSubtreeMergesBitIdentical) {
  // A lease maps to a replay-tree subtree (run_indices builds a plan over
  // the leased indices). Kill a worker after two records -- mid-subtree --
  // and let a second worker re-execute the reclaimed lease: the merged
  // campaign must stay byte-identical to the single-process run.
  namespace fs = std::filesystem;
  ExperimentOptions options;
  options.executor.threads = 2;
  const Experiment experiment = make_experiment(3, options);
  const RandomValueModel model(15, 2024);

  const auto base = run_campaign(experiment, model);

  const CampaignManifest manifest = make_manifest(experiment, model, "test");
  const std::string master_path =
      (fs::path(::testing::TempDir()) / "drivefi_tree_fleet_master.jsonl")
          .string();
  ShardResultStore master(master_path, manifest, StoreOpenMode::kOverwrite);

  coord::CoordinatorConfig coord_config;
  // Leases span several runs (and scenarios), so a killed worker dies with
  // a partially executed subtree.
  coord_config.lease_runs = 6;
  coord_config.heartbeat_timeout = 1.0;
  coord_config.tick_seconds = 0.02;
  coord_config.print_progress = false;
  coord::Coordinator coordinator(manifest, master, coord_config);

  coord::FleetStats fleet;
  std::thread coordinator_thread([&] { fleet = coordinator.serve(); });

  const auto worker_config = [&](const char* name) {
    coord::WorkerConfig config;
    config.port = coordinator.port();
    config.name = name;
    config.store_path =
        (fs::path(::testing::TempDir()) /
         ("drivefi_tree_fleet_" + std::string(name) + ".jsonl"))
            .string();
    return config;
  };

  {
    coord::WorkerConfig config = worker_config("killed");
    config.abort_after_records = 2;
    coord::WorkerClient killed(experiment, model, "test", config);
    const coord::WorkerStats stats = killed.run();
    EXPECT_TRUE(stats.aborted);
    EXPECT_EQ(stats.runs_executed, 2u);
  }
  {
    coord::WorkerClient survivor(experiment, model, "test",
                                 worker_config("survivor"));
    survivor.run();
  }
  coordinator_thread.join();

  EXPECT_EQ(master.completed().size(), model.run_count());
  const MergedCampaign merged = merge_shards({master_path});
  EXPECT_EQ(base.first, campaign_fingerprint(merged.stats))
      << "fleet campaign stats diverged from the single-process tree run";
  std::ostringstream merged_out;
  write_merged_jsonl(merged, merged_out);
  EXPECT_EQ(base.second, scrub_wall_seconds(merged_out.str()))
      << "fleet campaign JSONL diverged from the single-process tree run";
}

}  // namespace
}  // namespace drivefi::core
