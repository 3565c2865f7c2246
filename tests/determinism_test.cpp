// Determinism regression tests for the Experiment engine: the same
// (campaign seed, fault model, scenario suite) must produce byte-identical
// CampaignStats records at 1 thread and at N threads, and across two
// consecutive runs. Per-run seeds derive from (campaign_seed, run_index)
// via splitmix64, and the executor delivers records in run-index order, so
// nothing about scheduling may leak into the results.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "coord/coordinator.h"
#include "coord/protocol.h"
#include "coord/worker.h"
#include "core/bayes_model.h"
#include "core/experiment.h"
#include "core/fault_model.h"
#include "core/jsonl.h"
#include "core/manifest.h"
#include "core/progress.h"
#include "core/result_sink.h"
#include "core/result_store.h"
#include "core/selector.h"
#include "core/trace.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "util/rng.h"

namespace drivefi::core {
namespace {

ads::PipelineConfig test_pipeline_config() {
  ads::PipelineConfig config;
  config.seed = 11;
  return config;
}

std::vector<sim::Scenario> one_scenario_suite() {
  return {sim::base_suite()[1]};
}

// Everything except wall_seconds, with exact double bit patterns; shared
// with the bench-side divergence gates (core/campaign_stats.h).
std::string fingerprint(const CampaignStats& stats) {
  return campaign_fingerprint(stats);
}

Experiment make_experiment(unsigned threads) {
  ExperimentOptions options;
  options.executor.threads = threads;
  return Experiment(one_scenario_suite(), test_pipeline_config(), {}, options);
}

TEST(Determinism, DerivedRunSeedsAreOrderFree) {
  // The per-run seed depends only on (campaign_seed, run_index).
  EXPECT_EQ(util::derive_run_seed(42, 3), util::derive_run_seed(42, 3));
  EXPECT_NE(util::derive_run_seed(42, 3), util::derive_run_seed(42, 4));
  EXPECT_NE(util::derive_run_seed(42, 3), util::derive_run_seed(43, 3));
}

TEST(Determinism, ValueCampaignIdenticalAcrossThreadCounts) {
  const Experiment single = make_experiment(1);
  const Experiment pooled = make_experiment(4);
  const RandomValueModel model(6, 2024);

  const std::string base = fingerprint(single.run(model));
  EXPECT_EQ(base, fingerprint(pooled.run(model)))
      << "4-thread campaign diverged from the single-threaded run";
  // And across two consecutive runs of the same engine.
  EXPECT_EQ(base, fingerprint(single.run(model)));
  EXPECT_EQ(base, fingerprint(pooled.run(model)));
}

TEST(Determinism, BitflipCampaignIdenticalAcrossThreadCounts) {
  const Experiment single = make_experiment(1);
  const Experiment pooled = make_experiment(3);
  const BitFlipModel model(6, 99, /*bits=*/2);

  const std::string base = fingerprint(single.run(model));
  EXPECT_EQ(base, fingerprint(pooled.run(model)));
  EXPECT_EQ(base, fingerprint(pooled.run(model)));
}

// Serializes a SelectionResult except wall_seconds, with exact bit
// patterns for every double (predictions included).
std::string selection_fingerprint(const SelectionResult& result) {
  std::ostringstream out;
  out << std::hexfloat;
  out << "total=" << result.candidates_total
      << " evaluated=" << result.candidates_evaluated
      << " unmapped=" << result.skipped_unmapped
      << " no_window=" << result.skipped_no_window
      << " no_lead=" << result.skipped_no_lead
      << " golden_unsafe=" << result.skipped_golden_unsafe
      << " inferences=" << result.inference_calls << "\n";
  for (const auto& sf : result.critical) {
    out << sf.fault.scenario_index << "|" << sf.fault.scene_index << "|"
        << sf.fault.target << "|" << static_cast<int>(sf.fault.extreme) << "|"
        << sf.fault.value << "|" << sf.fault.inject_time << "|"
        << sf.prediction.delta_lon << "|" << sf.prediction.delta_lat << "|"
        << sf.prediction.predicted_v << "|" << sf.prediction.predicted_y
        << "|" << sf.prediction.predicted_theta << "|" << sf.golden_delta_lon
        << "|" << sf.golden_delta_lat << "\n";
  }
  return out.str();
}

TEST(Determinism, BayesianSelectionIdenticalAcrossThreadCounts) {
  // The parallel catalog sweep is a first-class campaign: its
  // SelectionResult (F_crit order, counters, every predicted double) must
  // be bit-identical at 1, 2, and 8 threads, and across repeated runs.
  const Experiment experiment = make_experiment(1);
  const SafetyPredictor predictor(experiment.goldens());
  const BayesianFaultSelector selector(predictor);
  const auto catalog = build_catalog(experiment.scenarios(),
                                     default_target_ranges(), 7.5);

  std::string base;
  for (unsigned threads : {1u, 2u, 8u}) {
    SelectionOptions options;
    options.executor.threads = threads;
    const SelectionResult result =
        selector.select_critical_faults(catalog, experiment.goldens(), options);
    EXPECT_GT(result.candidates_evaluated, 0u);
    const std::string fp = selection_fingerprint(result);
    if (threads == 1) {
      base = fp;
      // And stable across consecutive runs of the same configuration.
      EXPECT_EQ(base, selection_fingerprint(selector.select_critical_faults(
                          catalog, experiment.goldens(), options)));
    } else {
      EXPECT_EQ(base, fp)
          << threads << "-thread selection diverged from single-threaded";
    }
  }

  // An awkward chunk size (not dividing the catalog, smaller than a
  // thread's share) must not change the result either.
  SelectionOptions odd;
  odd.executor.threads = 3;
  odd.chunk = 17;
  EXPECT_EQ(base, selection_fingerprint(selector.select_critical_faults(
                      catalog, experiment.goldens(), odd)));
}

TEST(Determinism, EveryEngineSettingMatchesTheFullReplayOracle) {
  // The replay engine's contract: golden checkpoints, trunk snapshots,
  // fork-at-divergence, golden-tail splicing, snapshot-budget pressure and
  // scheduling change COST only. The oracle is the engine with both memory
  // knobs at zero on one thread, where every run simulates its whole
  // scenario. Fingerprints AND canonical JSONL must be byte-equal to it at
  // every checkpoint stride, snapshot budget (0 = every tail restores its
  // golden checkpoint, uncapped = every divergence snapshot resident) and
  // thread count, for randomized value faults (random injection times) and
  // bit flips (random instruction indices), over a multi-scenario suite
  // (several groups, so trunks and tails genuinely interleave).
  const auto all = sim::base_suite();
  const std::vector<sim::Scenario> suite(all.begin(), all.begin() + 3);
  const RandomValueModel values(18, 2024);
  const BitFlipModel bitflips(12, 99, /*bits=*/2);
  const std::uint64_t runs = values.run_count() + bitflips.run_count();
  const std::size_t uncapped = ExperimentOptions{}.max_live_snapshots;

  const auto engine = [&](std::size_t stride, std::size_t budget,
                          unsigned threads) {
    ExperimentOptions options;
    options.executor.threads = threads;
    options.checkpoint_stride = stride;
    options.max_live_snapshots = budget;
    return Experiment(suite, test_pipeline_config(), {}, options);
  };
  const auto campaign = [](const Experiment& experiment,
                           const FaultModel& model) {
    std::ostringstream out;
    JsonlSink sink(out);
    std::vector<ResultSink*> sinks = {&sink};
    const CampaignStats stats = experiment.run(model, sinks);
    return std::pair<std::string, std::string>(
        fingerprint(stats), scrub_wall_seconds(out.str()));
  };

  obs::Counter& full = obs::metrics().counter("experiment.replays_full");
  obs::Counter& forked = obs::metrics().counter("experiment.replays_forked");
  const std::uint64_t full_before = full.value();
  const std::uint64_t forked_before = forked.value();
  const Experiment oracle = engine(0, 0, 1);
  const auto value_base = campaign(oracle, values);
  const auto bit_base = campaign(oracle, bitflips);
  EXPECT_FALSE(value_base.second.empty());
  EXPECT_EQ(full.value() - full_before, runs)
      << "the oracle must simulate every run in full";
  EXPECT_EQ(forked.value(), forked_before);

  for (const std::size_t stride : {std::size_t{1}, std::size_t{4},
                                   std::size_t{16}}) {
    for (const std::size_t budget : {std::size_t{0}, uncapped}) {
      for (const unsigned threads : {1u, 2u, 8u}) {
        const Experiment experiment = engine(stride, budget, threads);
        const std::uint64_t forked_start = forked.value();
        const auto value = campaign(experiment, values);
        const auto bit = campaign(experiment, bitflips);
        const std::string where =
            "stride " + std::to_string(stride) + ", budget " +
            (budget == 0 ? "0" : "uncapped") + ", " +
            std::to_string(threads) + " threads";
        EXPECT_EQ(value_base.first, value.first)
            << "value campaign stats diverged at " << where;
        EXPECT_EQ(value_base.second, value.second)
            << "value campaign JSONL diverged at " << where;
        EXPECT_EQ(bit_base.first, bit.first)
            << "bit-flip campaign stats diverged at " << where;
        EXPECT_EQ(bit_base.second, bit.second)
            << "bit-flip campaign JSONL diverged at " << where;
        EXPECT_EQ(forked.value() - forked_start, runs)
            << "every run forks when golden checkpoints exist (" << where
            << ")";
      }
    }
  }
}

// Runs the model through `shard_count` durable stores under `dir`,
// returning the shard file paths (every shard executed in this process --
// multi-machine fan-out is the same loop with different hostnames).
std::vector<std::string> run_all_shards(const Experiment& experiment,
                                        const FaultModel& model,
                                        std::size_t shard_count,
                                        const std::string& tag) {
  namespace fs = std::filesystem;
  std::vector<std::string> paths;
  for (std::size_t i = 0; i < shard_count; ++i) {
    CampaignManifest manifest = make_manifest(experiment, model, "test");
    manifest.shard_index = i;
    manifest.shard_count = shard_count;
    const std::string path =
        (fs::path(::testing::TempDir()) /
         ("drivefi_determinism_" + tag + "_" + std::to_string(shard_count) +
          "_" + std::to_string(i) + ".jsonl"))
            .string();
    ShardResultStore store(path, manifest, StoreOpenMode::kOverwrite);
    experiment.run_shard(model, store);
    paths.push_back(path);
  }
  return paths;
}

TEST(Determinism, ShardedCampaignMergesBitIdenticalToSingleProcess) {
  // The sharding contract: splitting a campaign into N residue-class
  // shards, persisting each through a durable store, and merging must be
  // invisible -- CampaignStats fingerprints AND the canonical JSONL are
  // byte-equal to the uninterrupted single-process run, at every shard
  // count (1 = the trivial sharding, 2, 8 > thread count interleavings).
  const Experiment experiment = make_experiment(4);
  const RandomValueModel model(10, 2024);

  const std::string base_fp = fingerprint(experiment.run(model));
  std::ostringstream base_out;
  {
    JsonlSink sink(base_out);
    std::vector<ResultSink*> sinks = {&sink};
    experiment.run(model, sinks);
  }
  const std::string base_jsonl = scrub_wall_seconds(base_out.str());

  for (const std::size_t shard_count :
       {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    const auto paths =
        run_all_shards(experiment, model, shard_count, "shard");
    const MergedCampaign merged = merge_shards(paths);
    EXPECT_EQ(base_fp, fingerprint(merged.stats))
        << "stats diverged at " << shard_count << " shards";
    std::ostringstream merged_out;
    write_merged_jsonl(merged, merged_out);
    EXPECT_EQ(base_jsonl, scrub_wall_seconds(merged_out.str()))
        << "JSONL diverged at " << shard_count << " shards";
  }
}

TEST(Determinism, BinaryStoreExportsByteIdenticalJsonl) {
  // Format is provenance, not compatibility: the SAME campaign persisted
  // through (a) the JSONL store, (b) the binary store, and (c) a
  // mixed-format shard pair -- with a kill-mid-append torn tail and a
  // binary resume thrown in -- must export byte-identical canonical JSONL
  // and byte-identical fingerprints. If the binary container ever leaked
  // into the records (a rounded double, a lost NaN bit, a reordered
  // field), this is the test that catches it.
  namespace fs = std::filesystem;
  const Experiment experiment = make_experiment(4);
  const RandomValueModel model(10, 2024);

  const auto merged_artifacts = [](const std::vector<std::string>& paths) {
    const MergedCampaign merged = merge_shards(paths);
    std::ostringstream out;
    write_merged_jsonl(merged, out);
    return std::make_pair(fingerprint(merged.stats),
                          scrub_wall_seconds(out.str()));
  };

  // (a) Baseline: one JSONL store.
  CampaignManifest manifest = make_manifest(experiment, model, "test");
  const std::string jsonl_path =
      (fs::path(::testing::TempDir()) / "drivefi_binfmt_base.jsonl").string();
  {
    ShardResultStore store(jsonl_path, manifest, StoreOpenMode::kOverwrite);
    experiment.run_shard(model, store);
  }
  const auto base = merged_artifacts({jsonl_path});

  // (b) The same campaign through one binary store.
  const std::string bin_path =
      (fs::path(::testing::TempDir()) / "drivefi_binfmt_base.bin").string();
  {
    const auto store = open_shard_store(bin_path, manifest,
                                        StoreFormat::kBinary,
                                        StoreOpenMode::kOverwrite);
    experiment.run_shard(model, *store);
  }
  EXPECT_EQ(base, merged_artifacts({bin_path}))
      << "binary store diverged from the JSONL baseline";

  // (c) Mixed-format shard pair; the binary shard is killed mid-append
  // (torn trailing frame) and resumed.
  CampaignManifest manifest0 = manifest;
  manifest0.shard_index = 0;
  manifest0.shard_count = 2;
  const std::string path0 =
      (fs::path(::testing::TempDir()) / "drivefi_binfmt_s0.jsonl").string();
  {
    ShardResultStore store(path0, manifest0, StoreOpenMode::kOverwrite);
    experiment.run_shard(model, store);
  }
  CampaignManifest manifest1 = manifest0;
  manifest1.shard_index = 1;
  const std::string path1 =
      (fs::path(::testing::TempDir()) / "drivefi_binfmt_s1.bin").string();
  {
    const auto store = open_shard_store(path1, manifest1,
                                        StoreFormat::kBinary,
                                        StoreOpenMode::kOverwrite);
    store->append(experiment.execute(model.spec(1, experiment)));
    store->append(experiment.execute(model.spec(3, experiment)));
  }
  {
    // SIGKILL stand-in: strip the clean-close footer (its offset is the
    // last 8 bytes of the trailer, per the normative layout), then dangle
    // a torn half-frame -- a valid kind byte whose size claims more
    // payload than the file holds -- exactly what a crash mid-append
    // leaves behind.
    std::uint64_t index_offset = 0;
    {
      std::ifstream in(path1, std::ios::binary);
      in.seekg(-8, std::ios::end);
      for (int i = 0; i < 8; ++i)
        index_offset |= static_cast<std::uint64_t>(
                            static_cast<std::uint8_t>(in.get()))
                        << (8 * i);
    }
    fs::resize_file(path1, index_offset);
    std::ofstream torn(path1, std::ios::binary | std::ios::app);
    torn << 'R' << '\x40' << "only-part-of-a-frame";
  }
  {
    const auto store = open_shard_store(path1, manifest1,
                                        StoreFormat::kBinary,
                                        StoreOpenMode::kResume);
    EXPECT_EQ(store->completed(), (std::set<std::size_t>{1, 3}));
    const CampaignStats resumed = experiment.run_shard(model, *store);
    EXPECT_EQ(resumed.total(), 3u);  // {5, 7, 9} were missing
  }
  EXPECT_EQ(base, merged_artifacts({path0, path1}))
      << "mixed-format kill/resume campaign diverged from the baseline";
}

TEST(Determinism, KillThenResumeBitIdenticalToUninterrupted) {
  // Mid-campaign kill: shard 1 of 2 executes part of its work, the process
  // dies mid-append (torn trailing line), and a --resume run finishes only
  // the missing indices. The merged campaign must be byte-equal to the
  // uninterrupted single-process run.
  namespace fs = std::filesystem;
  const Experiment experiment = make_experiment(2);
  const BitFlipModel model(9, 99, /*bits=*/2);

  const std::string base_fp = fingerprint(experiment.run(model));

  // Shard 0/2 runs to completion in one sitting.
  CampaignManifest manifest0 = make_manifest(experiment, model, "test");
  manifest0.shard_index = 0;
  manifest0.shard_count = 2;
  const std::string path0 =
      (fs::path(::testing::TempDir()) / "drivefi_kill_s0.jsonl").string();
  {
    ShardResultStore store(path0, manifest0, StoreOpenMode::kOverwrite);
    experiment.run_shard(model, store);
  }

  // Shard 1/2 "crashes" after two runs, mid-append of a third.
  CampaignManifest manifest1 = manifest0;
  manifest1.shard_index = 1;
  const std::string path1 =
      (fs::path(::testing::TempDir()) / "drivefi_kill_s1.jsonl").string();
  {
    ShardResultStore store(path1, manifest1, StoreOpenMode::kOverwrite);
    store.append(experiment.execute(model.spec(1, experiment)));
    store.append(experiment.execute(model.spec(3, experiment)));
  }
  {
    std::ofstream torn(path1, std::ios::binary | std::ios::app);
    torn << "{\"type\":\"run\",\"run_index\":5,\"descripti";
  }

  // Resume executes exactly the missing indices {5, 7} of shard 1.
  {
    ShardResultStore store(path1, manifest1, StoreOpenMode::kResume);
    EXPECT_EQ(store.completed(), (std::set<std::size_t>{1, 3}));
    const CampaignStats resumed = experiment.run_shard(model, store);
    EXPECT_EQ(resumed.total(), 2u);
  }

  const MergedCampaign merged = merge_shards({path0, path1});
  EXPECT_EQ(base_fp, fingerprint(merged.stats))
      << "kill/resume campaign diverged from the uninterrupted run";
}

TEST(Determinism, FleetCampaignWithKilledWorkerBitIdenticalToSingleProcess) {
  // The fleet contract: a coordinator + workers campaign -- including a
  // worker that dies abruptly mid-lease, forcing its work to be reclaimed
  // and re-executed elsewhere -- merges byte-identical to the uninterrupted
  // single-process run. Records may arrive out of order, duplicated, or
  // from a re-granted lease; none of it may show in the output.
  namespace fs = std::filesystem;
  const Experiment experiment = make_experiment(2);
  const RandomValueModel model(14, 2024);

  const std::string base_fp = fingerprint(experiment.run(model));
  std::ostringstream base_out;
  {
    JsonlSink sink(base_out);
    std::vector<ResultSink*> sinks = {&sink};
    experiment.run(model, sinks);
  }
  const std::string base_jsonl = scrub_wall_seconds(base_out.str());

  const CampaignManifest manifest = make_manifest(experiment, model, "test");
  const std::string master_path =
      (fs::path(::testing::TempDir()) / "drivefi_fleet_master.jsonl").string();
  ShardResultStore master(master_path, manifest, StoreOpenMode::kOverwrite);

  coord::CoordinatorConfig coord_config;
  coord_config.lease_runs = 3;
  coord_config.heartbeat_timeout = 1.0;
  coord_config.tick_seconds = 0.02;
  coord_config.print_progress = false;
  coord::Coordinator coordinator(manifest, master, coord_config);

  coord::FleetStats fleet;
  std::thread coordinator_thread(
      [&] { fleet = coordinator.serve(); });

  const auto worker_config = [&](const char* name) {
    coord::WorkerConfig config;
    config.port = coordinator.port();
    config.name = name;
    config.store_path =
        (fs::path(::testing::TempDir()) / ("drivefi_fleet_" + std::string(name) + ".jsonl"))
            .string();
    return config;
  };

  // Worker A vanishes (socket slammed shut, no goodbye) after streaming
  // two records of its first lease -- the in-process stand-in for SIGKILL,
  // which scripts/fleet_e2e.sh exercises for real across processes.
  {
    coord::WorkerConfig config = worker_config("wA");
    config.abort_after_records = 2;
    coord::WorkerClient killed(experiment, model, "test", config);
    const coord::WorkerStats stats = killed.run();
    EXPECT_TRUE(stats.aborted);
    EXPECT_EQ(stats.runs_executed, 2u);
  }

  // Workers B and C finish the campaign, re-executing the reclaimed work.
  coord::WorkerStats stats_b, stats_c;
  std::thread worker_b([&] {
    coord::WorkerClient worker(experiment, model, "test", worker_config("wB"));
    stats_b = worker.run();
  });
  std::thread worker_c([&] {
    coord::WorkerClient worker(experiment, model, "test", worker_config("wC"));
    stats_c = worker.run();
  });
  worker_b.join();
  worker_c.join();
  coordinator_thread.join();

  EXPECT_EQ(master.completed().size(), model.run_count());
  EXPECT_EQ(fleet.runs_completed, model.run_count());  // store began empty
  EXPECT_EQ(fleet.workers_seen, 3u);
  EXPECT_GE(stats_b.runs_executed + stats_c.runs_executed,
            model.run_count() - 2);

  const MergedCampaign merged = merge_shards({master_path});
  EXPECT_EQ(base_fp, fingerprint(merged.stats))
      << "fleet campaign stats diverged from the single-process run";
  std::ostringstream merged_out;
  write_merged_jsonl(merged, merged_out);
  EXPECT_EQ(base_jsonl, scrub_wall_seconds(merged_out.str()))
      << "fleet campaign JSONL diverged from the single-process run";
}

TEST(Determinism, FleetRefusesAMismatchedWorker) {
  // The compatibility half of the contract: a worker built for a different
  // campaign (different seed here) is refused at hello and executes
  // nothing; the coordinator keeps serving.
  const Experiment experiment = make_experiment(1);
  const RandomValueModel model(4, 2024);
  const RandomValueModel wrong_model(4, 9999);

  namespace fs = std::filesystem;
  const CampaignManifest manifest = make_manifest(experiment, model, "test");
  const std::string master_path =
      (fs::path(::testing::TempDir()) / "drivefi_fleet_refuse.jsonl").string();
  ShardResultStore master(master_path, manifest, StoreOpenMode::kOverwrite);

  coord::CoordinatorConfig coord_config;
  coord_config.lease_runs = 2;
  coord_config.tick_seconds = 0.02;
  coord_config.print_progress = false;
  coord::Coordinator coordinator(manifest, master, coord_config);
  std::thread coordinator_thread([&] { coordinator.serve(); });

  {
    coord::WorkerConfig config;
    config.port = coordinator.port();
    config.name = "imposter";
    config.store_path =
        (fs::path(::testing::TempDir()) / "drivefi_fleet_imposter.jsonl")
            .string();
    coord::WorkerClient imposter(experiment, wrong_model, "test", config);
    EXPECT_THROW(imposter.run(), std::runtime_error);
  }

  coord::WorkerConfig config;
  config.port = coordinator.port();
  config.name = "honest";
  config.store_path =
      (fs::path(::testing::TempDir()) / "drivefi_fleet_honest.jsonl").string();
  coord::WorkerClient honest(experiment, model, "test", config);
  const coord::WorkerStats stats = honest.run();
  coordinator_thread.join();
  EXPECT_EQ(stats.runs_executed, model.run_count());
  EXPECT_EQ(master.completed().size(), model.run_count());
}

TEST(Determinism, GoldenSuiteIdenticalAcrossThreadCounts) {
  // Golden precompute runs one scenario per executor task: the traces must
  // come back in scenario order, equal at every thread count.
  std::vector<sim::Scenario> suite = sim::base_suite();
  for (sim::Scenario& s : suite) s.duration = std::min(s.duration, 8.0);
  const std::vector<GoldenTrace> serial =
      run_golden_suite(suite, test_pipeline_config(), 4, {.threads = 1});
  ASSERT_EQ(serial.size(), suite.size());
  for (unsigned threads : {2u, 8u}) {
    const std::vector<GoldenTrace> pooled = run_golden_suite(
        suite, test_pipeline_config(), 4, {.threads = threads});
    ASSERT_EQ(pooled.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      SCOPED_TRACE(suite[i].name + " at " + std::to_string(threads) +
                   " threads");
      EXPECT_EQ(pooled[i].scenario_index, i);
      EXPECT_EQ(pooled[i].scenario_name, suite[i].name);
      EXPECT_TRUE(pooled[i].scenes == serial[i].scenes);
      EXPECT_TRUE(pooled[i].checkpoints == serial[i].checkpoints);
      EXPECT_EQ(pooled[i].scene_end_times, serial[i].scene_end_times);
      EXPECT_EQ(pooled[i].scene_instructions, serial[i].scene_instructions);
    }
  }
}

TEST(Determinism, ObservabilityIsInert) {
  // The telemetry contract: tracing and metrics are pure observation. An
  // engine built and run with a live trace session, a metrics snapshot
  // sink, and a freshly reset registry must be byte-identical --
  // fingerprint, scrubbed JSONL, and manifest compatibility hash -- to
  // the same engine and campaign with observability off. Building inside
  // the session puts golden spans from several executor threads into it.
  namespace fs = std::filesystem;
  std::vector<sim::Scenario> suite = sim::base_suite();
  suite.erase(suite.begin() + 3, suite.end());
  const auto build = [&] {
    ExperimentOptions options;
    options.executor.threads = 4;
    return Experiment(suite, test_pipeline_config(), {}, options);
  };
  const RandomValueModel model(10, 2024);

  const auto capture = [&](const Experiment& experiment,
                           std::vector<ResultSink*> extra_sinks) {
    std::ostringstream out;
    JsonlSink sink(out);
    std::vector<ResultSink*> sinks = {&sink};
    for (ResultSink* extra : extra_sinks) sinks.push_back(extra);
    const CampaignStats stats = experiment.run(model, sinks);
    return std::pair<std::string, std::string>(
        fingerprint(stats), scrub_wall_seconds(out.str()));
  };

  const Experiment plain_engine = build();
  const auto plain = capture(plain_engine, {});
  const std::uint64_t plain_hash =
      coord::manifest_compat_hash(make_manifest(plain_engine, model, "test"));

  const std::string trace_path =
      (fs::path(::testing::TempDir()) / "drivefi_inert_trace.json").string();
  std::ostringstream metrics_out;
  MetricsSnapshotSink metrics_sink(metrics_out, /*interval_seconds=*/0.0);
  obs::metrics().reset();
  obs::start_tracing(trace_path);
  const Experiment traced_engine = build();
  const auto instrumented = capture(traced_engine, {&metrics_sink});
  const std::uint64_t events = obs::trace_events_written();
  obs::stop_tracing();

  EXPECT_EQ(plain.first, instrumented.first)
      << "campaign fingerprint changed under observability";
  EXPECT_EQ(plain.second, instrumented.second)
      << "canonical JSONL changed under observability";
  EXPECT_EQ(plain_hash, coord::manifest_compat_hash(
                            make_manifest(traced_engine, model, "test")));

  // ... and the observability actually observed: one golden span per
  // scenario and the replay spans hit the trace file, and every record
  // produced a metrics snapshot.
  EXPECT_GT(events, 0u);
  EXPECT_EQ(metrics_sink.snapshots_written(), model.run_count() + 1);
  std::ifstream trace(trace_path, std::ios::binary);
  std::string trace_text((std::istreambuf_iterator<char>(trace)),
                         std::istreambuf_iterator<char>());
  EXPECT_NE(trace_text.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(trace_text.find("\"replay\""), std::string::npos);
  std::size_t golden_spans = 0;
  for (std::size_t at = trace_text.find("{\"name\":\"golden\"");
       at != std::string::npos;
       at = trace_text.find("{\"name\":\"golden\"", at + 1))
    ++golden_spans;
  EXPECT_EQ(golden_spans, suite.size());
}

TEST(Determinism, ThreadCountDoesNotLeakIntoSpecs) {
  // Spec generation itself must be pure: same index, same spec, whichever
  // engine asks.
  const Experiment a = make_experiment(1);
  const Experiment b = make_experiment(4);
  const RandomValueModel model(8, 7);
  for (std::size_t i = 0; i < model.run_count(); ++i) {
    const RunSpec sa = model.spec(i, a);
    const RunSpec sb = model.spec(i, b);
    EXPECT_EQ(sa.fault.target, sb.fault.target);
    EXPECT_EQ(sa.fault.scenario_index, sb.fault.scenario_index);
    EXPECT_DOUBLE_EQ(sa.fault.inject_time, sb.fault.inject_time);
    EXPECT_DOUBLE_EQ(sa.fault.value, sb.fault.value);
  }
}

}  // namespace
}  // namespace drivefi::core
