// Shard store + manifest + merge edge cases: crash-safe reopen semantics
// (empty store, torn trailing line), resume no-ops on complete stores,
// duplicate/missing run indices at merge, manifest mismatch refusal, and
// the sink error contract (write failures surface as exceptions, never as
// silently dropped records).
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "core/experiment.h"
#include "core/fault_model.h"
#include "core/manifest.h"
#include "core/result_sink.h"
#include "core/result_store.h"
#include "util/bits.h"

namespace drivefi::core {
namespace {

namespace fs = std::filesystem;

std::string temp_path(const std::string& name) {
  return (fs::path(::testing::TempDir()) / ("drivefi_store_" + name)).string();
}

InjectionRecord make_record(std::size_t run_index) {
  InjectionRecord record;
  record.run_index = run_index;
  record.description = "synthetic \"quoted\"\tdesc #" + std::to_string(run_index);
  record.scenario_index = run_index % 3;
  record.scene_index = 10 + run_index;
  record.outcome = run_index % 2 == 0 ? Outcome::kMasked : Outcome::kHazard;
  record.min_delta_lon = 175.00000000000171 - static_cast<double>(run_index);
  record.max_actuation_divergence = 0.1 * static_cast<double>(run_index);
  return record;
}

ads::PipelineConfig test_pipeline_config() {
  ads::PipelineConfig config;
  config.seed = 11;
  return config;
}

CampaignManifest make_manifest_for_test(std::size_t planned,
                                        std::size_t shard_index = 0,
                                        std::size_t shard_count = 1) {
  CampaignManifest m;
  m.model = "random-value";
  m.model_params = "n=" + std::to_string(planned) + " seed=2024";
  m.planned_runs = planned;
  m.scenario_spec = "test";
  m.scenario_hash = 0xfeedbeefULL;
  m.pipeline_seed = 11;
  m.hold_scenes = 2.0;
  m.shard_index = shard_index;
  m.shard_count = shard_count;
  return m;
}

TEST(ResultStore, RunRecordRoundTripsBitExact) {
  InjectionRecord record = make_record(7);
  record.min_delta_lon = -0.0;  // signed zero must survive
  record.max_actuation_divergence = 0x1.fffffffffffffp-3;
  const InjectionRecord back = parse_run_record(run_record_jsonl(record));
  EXPECT_EQ(record.run_index, back.run_index);
  EXPECT_EQ(record.description, back.description);
  EXPECT_EQ(record.scenario_index, back.scenario_index);
  EXPECT_EQ(record.scene_index, back.scene_index);
  EXPECT_EQ(record.outcome, back.outcome);
  EXPECT_TRUE(util::bits_equal(record.min_delta_lon, back.min_delta_lon));
  EXPECT_TRUE(util::bits_equal(record.max_actuation_divergence,
                               back.max_actuation_divergence));
}

TEST(ResultStore, ManifestRoundTripsAndExplainsMismatch) {
  const CampaignManifest m = make_manifest_for_test(100, 3, 8);
  const CampaignManifest back = CampaignManifest::parse(m.to_jsonl());
  EXPECT_EQ(m.compatibility_key(), back.compatibility_key());
  EXPECT_EQ(m.shard_index, back.shard_index);
  EXPECT_EQ(m.shard_count, back.shard_count);
  EXPECT_TRUE(m.mismatch_reason(back).empty());

  CampaignManifest other = m;
  other.model_params = "n=100 seed=9999";
  const std::string reason = m.mismatch_reason(other);
  EXPECT_NE(reason.find("model_params"), std::string::npos) << reason;
}

TEST(ResultStore, EmptyStoreResumesAsFresh) {
  const std::string path = temp_path("empty");
  const CampaignManifest manifest = make_manifest_for_test(4);
  // A store that crashed before any record: manifest line only.
  { ShardResultStore store(path, manifest, StoreOpenMode::kOverwrite); }
  ShardResultStore resumed(path, manifest, StoreOpenMode::kResume);
  EXPECT_TRUE(resumed.completed().empty());
  resumed.append(make_record(0));
  EXPECT_TRUE(resumed.contains(0));
}

TEST(ResultStore, MissingFileResumesAsFresh) {
  const std::string path = temp_path("missing");
  fs::remove(path);
  const CampaignManifest manifest = make_manifest_for_test(4);
  ShardResultStore store(path, manifest, StoreOpenMode::kResume);
  EXPECT_TRUE(store.completed().empty());
  EXPECT_TRUE(fs::exists(path));
}

TEST(ResultStore, TornTrailingLineIsTruncatedOnReopen) {
  const std::string path = temp_path("torn");
  const CampaignManifest manifest = make_manifest_for_test(6);
  {
    ShardResultStore store(path, manifest, StoreOpenMode::kOverwrite);
    store.append(make_record(0));
    store.append(make_record(1));
  }
  const auto intact_size = fs::file_size(path);
  {
    // Crash mid-append: a prefix of a record with no terminating newline.
    std::ofstream out(path, std::ios::binary | std::ios::app);
    out << "{\"type\":\"run\",\"run_index\":2,\"desc";
  }
  ASSERT_GT(fs::file_size(path), intact_size);

  ShardResultStore resumed(path, manifest, StoreOpenMode::kResume);
  EXPECT_EQ(resumed.completed(), (std::set<std::size_t>{0, 1}));
  EXPECT_EQ(fs::file_size(path), intact_size);
  // The truncated index is re-appendable: it was never durably stored.
  resumed.append(make_record(2));
  EXPECT_TRUE(resumed.contains(2));
}

TEST(ResultStore, FreshOpenRefusesToClobberPopulatedStore) {
  // Rerunning a crashed shard WITHOUT --resume must not wipe the durable
  // records; only an explicit kOverwrite (or kResume) may touch them.
  const std::string path = temp_path("clobber");
  const CampaignManifest manifest = make_manifest_for_test(4);
  {
    ShardResultStore store(path, manifest, StoreOpenMode::kOverwrite);
    store.append(make_record(0));
  }
  try {
    ShardResultStore again(path, manifest, StoreOpenMode::kFresh);
    FAIL() << "kFresh silently clobbered a store holding records";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("refusing to overwrite"),
              std::string::npos)
        << error.what();
  }
  // A manifest-only store carries no work; kFresh may recreate it.
  {
    ShardResultStore empty(path, manifest, StoreOpenMode::kOverwrite);
  }
  ShardResultStore recreated(path, manifest, StoreOpenMode::kFresh);
  EXPECT_TRUE(recreated.completed().empty());
}

TEST(ResultStore, ConfigHashPinsClassifierAndPipelineConfig) {
  ads::PipelineConfig pipeline = test_pipeline_config();
  ClassifierConfig classifier;
  const std::uint64_t base = campaign_config_hash(pipeline, classifier);
  EXPECT_EQ(base, campaign_config_hash(pipeline, classifier));

  ClassifierConfig loose = classifier;
  loose.actuation_epsilon = 0.01;
  EXPECT_NE(base, campaign_config_hash(pipeline, loose));

  ads::PipelineConfig slow = pipeline;
  slow.control_hz = 15.0;
  EXPECT_NE(base, campaign_config_hash(slow, classifier));
  // The pipeline seed is pinned separately by the manifest, not here.
  ads::PipelineConfig reseeded = pipeline;
  reseeded.seed = 999;
  EXPECT_EQ(base, campaign_config_hash(reseeded, classifier));
}

TEST(ResultStore, ResumeRefusesMismatchedManifest) {
  const std::string path = temp_path("mismatch");
  const CampaignManifest manifest = make_manifest_for_test(4);
  {
    ShardResultStore store(path, manifest, StoreOpenMode::kOverwrite);
    store.append(make_record(0));
  }
  CampaignManifest other = manifest;
  other.pipeline_seed = 999;
  try {
    ShardResultStore resumed(path, other, StoreOpenMode::kResume);
    FAIL() << "resume accepted a mismatched manifest";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("pipeline_seed"),
              std::string::npos)
        << error.what();
  }
  // Mismatched shard coordinates are refused too (same campaign, wrong slot).
  CampaignManifest wrong_shard = make_manifest_for_test(4, 1, 2);
  wrong_shard.planned_runs = manifest.planned_runs;
  EXPECT_THROW(ShardResultStore(path, wrong_shard, StoreOpenMode::kResume),
               std::runtime_error);
}

TEST(ResultStore, AppendRejectsForeignAndDuplicateIndices) {
  const std::string path = temp_path("residue");
  ShardResultStore store(path, make_manifest_for_test(10, 1, 2), StoreOpenMode::kOverwrite);
  store.append(make_record(3));
  EXPECT_THROW(store.append(make_record(3)), std::runtime_error);   // dup
  EXPECT_THROW(store.append(make_record(4)), std::runtime_error);   // r%2==0
  EXPECT_THROW(store.append(make_record(11)), std::runtime_error);  // > planned
}

TEST(ResultStore, MergeRejectsDuplicateRunIndexAcrossShards) {
  const CampaignManifest manifest = make_manifest_for_test(2);
  const std::string a = temp_path("dup_a");
  const std::string b = temp_path("dup_b");
  {
    ShardResultStore store(a, manifest, StoreOpenMode::kOverwrite);
    store.append(make_record(0));
    store.append(make_record(1));
  }
  {
    ShardResultStore store(b, manifest, StoreOpenMode::kOverwrite);
    store.append(make_record(0));
  }
  try {
    merge_shards({a, b});
    FAIL() << "merge accepted a duplicate run_index";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("duplicate run_index"),
              std::string::npos)
        << error.what();
  }
}

TEST(ResultStore, MergeRejectsIncompleteShardSet) {
  const std::string path = temp_path("incomplete");
  {
    ShardResultStore store(path, make_manifest_for_test(4, 0, 2), StoreOpenMode::kOverwrite);
    store.append(make_record(0));
    store.append(make_record(2));
  }
  try {
    merge_shards({path});  // shard 1/2 missing entirely
    FAIL() << "merge accepted an incomplete shard set";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("missing"), std::string::npos)
        << error.what();
  }
}

TEST(ResultStore, MergeRejectsShardsFromDifferentCampaigns) {
  const std::string a = temp_path("campaign_a");
  const std::string b = temp_path("campaign_b");
  {
    ShardResultStore store(a, make_manifest_for_test(2, 0, 2), StoreOpenMode::kOverwrite);
    store.append(make_record(0));
  }
  CampaignManifest other = make_manifest_for_test(2, 1, 2);
  other.scenario_hash = 0x1234;
  {
    ShardResultStore store(b, other, StoreOpenMode::kOverwrite);
    store.append(make_record(1));
  }
  try {
    merge_shards({a, b});
    FAIL() << "merge combined shards of different campaigns";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("scenario_hash"),
              std::string::npos)
        << error.what();
  }
}

TEST(ResultStore, RunShardNoOpsOnCompleteStoreAndFillsGaps) {
  // A real (small) experiment: resume must execute ONLY missing indices
  // and a second resume must execute nothing.
  ExperimentOptions options;
  options.executor.threads = 2;
  const Experiment experiment({sim::base_suite()[1]},
                              test_pipeline_config(), {}, options);
  const RandomValueModel model(6, 2024);
  CampaignManifest manifest = make_manifest(experiment, model, "test");

  const std::string path = temp_path("noop");
  fs::remove(path);
  {
    // First sitting: executes everything.
    ShardResultStore store(path, manifest, StoreOpenMode::kOverwrite);
    const CampaignStats stats = experiment.run_shard(model, store);
    EXPECT_EQ(stats.total(), 6u);
  }
  {
    // Second sitting: fully complete, so nothing runs.
    ShardResultStore store(path, manifest, StoreOpenMode::kResume);
    EXPECT_EQ(store.completed().size(), 6u);
    const CampaignStats stats = experiment.run_shard(model, store);
    EXPECT_EQ(stats.total(), 0u);
  }
  const MergedCampaign merged = merge_shards({path});
  EXPECT_EQ(merged.stats.total(), 6u);
  EXPECT_EQ(campaign_fingerprint(merged.stats),
            campaign_fingerprint(experiment.run(model)));
}

TEST(ResultStore, RunShardRefusesWrongPlannedRuns) {
  ExperimentOptions options;
  options.executor.threads = 1;
  const Experiment experiment({sim::base_suite()[1]},
                              test_pipeline_config(), {}, options);
  const RandomValueModel model(6, 2024);
  CampaignManifest manifest = make_manifest(experiment, model, "test");
  manifest.planned_runs = 7;  // option/manifest mismatch
  ShardResultStore store(temp_path("wrong_planned"), manifest, StoreOpenMode::kOverwrite);
  EXPECT_THROW(experiment.run_shard(model, store), std::invalid_argument);

  // And a manifest for a DIFFERENT campaign (same run count, different
  // campaign seed) must be refused too -- records may never be stored
  // under another campaign's identity.
  ShardResultStore other_store(temp_path("wrong_campaign"),
                               make_manifest(experiment, model, "test"),
                               StoreOpenMode::kOverwrite);
  const RandomValueModel reseeded(6, 9999);
  EXPECT_THROW(experiment.run_shard(reseeded, other_store),
               std::invalid_argument);
}

// ---- sink error contract --------------------------------------------------

// A streambuf that accepts `budget` bytes and then fails every write, like
// a disk filling up mid-campaign.
class FailingBuf : public std::streambuf {
 public:
  explicit FailingBuf(std::size_t budget) : budget_(budget) {}

 protected:
  int overflow(int ch) override {
    if (budget_ == 0) return traits_type::eof();
    --budget_;
    return ch;
  }
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    (void)s;
    const auto take = std::min<std::streamsize>(
        n, static_cast<std::streamsize>(budget_));
    budget_ -= static_cast<std::size_t>(take);
    return take;  // short write once the budget runs out
  }

 private:
  std::size_t budget_;
};

TEST(ResultSinkErrors, JsonlSinkThrowsWhenStreamFails) {
  FailingBuf buf(16);  // room for part of the header, then disk full
  std::ostream out(&buf);
  JsonlSink sink(out);
  CampaignMeta meta;
  meta.model_name = "random-value";
  meta.planned_runs = 3;
  EXPECT_THROW(
      {
        sink.begin(meta);
        sink.consume(make_record(0));
      },
      std::runtime_error);
}

TEST(ResultSinkErrors, HealthyStreamsDoNotThrow) {
  std::ostringstream out;
  JsonlSink sink(out);
  CampaignMeta meta;
  meta.model_name = "m";
  meta.planned_runs = 1;
  sink.begin(meta);
  sink.consume(make_record(0));
  sink.finish(CampaignStats{});
  EXPECT_FALSE(out.str().empty());
}

TEST(ResultSinkErrors, StoreAppendThrowsOnClosedStream) {
  const std::string path = temp_path("closed");
  const CampaignManifest manifest = make_manifest_for_test(4);
  ShardResultStore store(path, manifest, StoreOpenMode::kOverwrite);
  store.append(make_record(0));
  // Make the underlying file unwritable by removing write permission is
  // platform-dependent; instead exercise the duplicate/residue guards plus
  // reopen-after-truncate, and trust the stream check via the sink tests.
  EXPECT_THROW(store.append(make_record(0)), std::runtime_error);
}

}  // namespace
}  // namespace drivefi::core
