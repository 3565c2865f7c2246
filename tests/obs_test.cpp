// Observability subsystem tests: metrics registry exactness under
// concurrent hammering, snapshot consistency and JSONL flatness, trace
// file well-formedness, the status wire protocol (encode/parse and a live
// coordinator round trip), MetricsSnapshotSink output, and the telemetry
// summary line. The inertness half of the contract -- campaigns
// byte-identical with observability on vs off -- lives in
// tests/determinism_test.cpp (ObservabilityIsInert).
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "coord/coordinator.h"
#include "coord/protocol.h"
#include "coord/worker.h"
#include "core/experiment.h"
#include "core/fault_model.h"
#include "core/jsonl.h"
#include "core/manifest.h"
#include "core/progress.h"
#include "core/result_store.h"
#include "net/socket.h"
#include "obs/metrics.h"
#include "obs/span.h"

namespace drivefi {
namespace {

using core::JsonLine;

TEST(Metrics, CounterConcurrentHammeringIsExact) {
  obs::Counter& counter = obs::metrics().counter("obs_test.hammer");
  counter.reset();
  constexpr unsigned kThreads = 8;
  constexpr std::uint64_t kPerThread = 100000;
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < kThreads; ++t)
    pool.emplace_back([&counter] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) counter.add();
    });
  for (auto& t : pool) t.join();
  EXPECT_EQ(counter.value(), kThreads * kPerThread);
}

TEST(Metrics, HistogramConcurrentObserveIsConsistent) {
  // Threads observe into their own shards and a snapshot sums them, so
  // every field is exact, not merely close, and reset() clears all shards.
  obs::Histogram& hist = obs::metrics().histogram("obs_test.hist");
  hist.reset();
  constexpr unsigned kThreads = 4;
  constexpr std::uint64_t kPerThread = 10000;
  const auto observe_from_threads = [&hist](double base) {
    std::vector<std::thread> pool;
    for (unsigned t = 0; t < kThreads; ++t)
      pool.emplace_back([&hist, base, t] {
        // Each thread observes a distinct fixed value so every field is
        // exactly predictable.
        const double value = base * static_cast<double>(t + 1);
        for (std::uint64_t i = 0; i < kPerThread; ++i) hist.observe(value);
      });
    for (auto& t : pool) t.join();
  };
  const auto expect_exact = [&hist](std::uint64_t unit_nanos,
                                    std::array<std::uint64_t, 14> buckets) {
    const obs::Histogram::Snapshot snap = hist.snapshot();
    const std::uint64_t count = kThreads * kPerThread;
    EXPECT_EQ(snap.count, count);
    // Histograms keep integer nanoseconds: 1 + 2 + 3 + 4 units a round.
    EXPECT_EQ(snap.sum_seconds,
              static_cast<double>(kPerThread * 10 * unit_nanos) * 1e-9);
    EXPECT_EQ(snap.min_seconds, static_cast<double>(unit_nanos) * 1e-9);
    EXPECT_EQ(snap.max_seconds, static_cast<double>(4 * unit_nanos) * 1e-9);
    EXPECT_EQ(snap.buckets, buckets);
    // Count is derived from the bucket array, so the two can never
    // disagree within one snapshot.
    std::uint64_t bucket_total = 0;
    for (const std::uint64_t b : snap.buckets) bucket_total += b;
    EXPECT_EQ(bucket_total, snap.count);
  };

  // 10, 20, 30 and 40 us: the first lands at or under 16 us, the rest
  // under 64 us.
  observe_from_threads(1e-5);
  expect_exact(10000, {0, 0, kPerThread, 3 * kPerThread});

  hist.reset();
  const obs::Histogram::Snapshot cleared = hist.snapshot();
  EXPECT_EQ(cleared.count, 0u);
  EXPECT_EQ(cleared.sum_seconds, 0.0);
  EXPECT_EQ(cleared.min_seconds, 0.0);
  EXPECT_EQ(cleared.max_seconds, 0.0);
  EXPECT_EQ(cleared.buckets, (std::array<std::uint64_t, 14>{}));

  // New threads take other shards; the old ones must not leak back in.
  // 2 and 4 ms land at or under 4.096 ms, 6 and 8 ms under 16.384 ms.
  observe_from_threads(2e-3);
  expect_exact(2000000, {0, 0, 0, 0, 0, 0, 2 * kPerThread, 2 * kPerThread});
}

TEST(Metrics, HistogramBucketsAreExponential) {
  EXPECT_DOUBLE_EQ(obs::Histogram::bucket_bound(0), 1e-6);
  EXPECT_DOUBLE_EQ(obs::Histogram::bucket_bound(1), 4e-6);
  EXPECT_DOUBLE_EQ(obs::Histogram::bucket_bound(2), 16e-6);
  EXPECT_TRUE(std::isinf(
      obs::Histogram::bucket_bound(obs::Histogram::kBucketCount)));
}

TEST(Metrics, GaugeRoundTripsDoubles) {
  obs::Gauge& gauge = obs::metrics().gauge("obs_test.gauge");
  gauge.set(-3.25);
  EXPECT_DOUBLE_EQ(gauge.value(), -3.25);
  gauge.set(1e18);
  EXPECT_DOUBLE_EQ(gauge.value(), 1e18);
  gauge.reset();
  EXPECT_DOUBLE_EQ(gauge.value(), 0.0);
}

TEST(Metrics, NameKindCollisionThrows) {
  obs::metrics().counter("obs_test.collide");
  EXPECT_THROW(obs::metrics().gauge("obs_test.collide"), std::logic_error);
  EXPECT_THROW(obs::metrics().histogram("obs_test.collide"),
               std::logic_error);
  // Re-registering the SAME kind returns the same metric, no throw.
  EXPECT_NO_THROW(obs::metrics().counter("obs_test.collide"));
}

TEST(Metrics, SnapshotIsFlatParseableJsonl) {
  obs::metrics().counter("obs_test.snap_counter").reset();
  obs::metrics().counter("obs_test.snap_counter").add(7);
  obs::metrics().gauge("obs_test.snap_gauge").set(2.5);
  obs::Histogram& hist = obs::metrics().histogram("obs_test.snap_hist");
  hist.reset();
  hist.observe(0.001);

  const std::string line = obs::metrics().snapshot_jsonl("metrics");
  const JsonLine json(line);  // throws if not a flat JSON object
  EXPECT_EQ(json.get_string("type"), "metrics");
  EXPECT_EQ(json.get_u64("obs_test.snap_counter"), 7u);
  EXPECT_DOUBLE_EQ(json.get_double("obs_test.snap_gauge"), 2.5);
  EXPECT_EQ(json.get_u64("obs_test.snap_hist.count"), 1u);
  EXPECT_DOUBLE_EQ(json.get_double("obs_test.snap_hist.min_seconds"), 0.001);
  EXPECT_DOUBLE_EQ(json.get_double("obs_test.snap_hist.max_seconds"), 0.001);

  // An idle registry snapshots byte-identically: the view is a pure
  // function of metric state.
  EXPECT_EQ(line, obs::metrics().snapshot_jsonl("metrics"));
}

TEST(Tracing, TraceFileIsWellFormed) {
  namespace fs = std::filesystem;
  const std::string path =
      (fs::path(::testing::TempDir()) / "drivefi_obs_trace.json").string();
  obs::start_tracing(path);
  EXPECT_TRUE(obs::tracing_enabled());
  EXPECT_THROW(obs::start_tracing(path), std::runtime_error);

  { DFI_SPAN("unit_span"); }
  std::vector<std::thread> pool;
  for (int t = 0; t < 4; ++t)
    pool.emplace_back([] {
      for (int i = 0; i < 10; ++i) { DFI_SPAN("threaded_span"); }
    });
  for (auto& t : pool) t.join();

  const std::uint64_t events = obs::trace_events_written();
  EXPECT_EQ(events, 41u);
  obs::stop_tracing();
  EXPECT_FALSE(obs::tracing_enabled());
  obs::stop_tracing();  // idempotent

  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good());
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  ASSERT_EQ(text.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_EQ(text.substr(text.size() - 4), "\n]}\n");

  // One event per line; each parses as a flat JSON object with the
  // complete-event fields.
  std::istringstream lines(text);
  std::string line;
  std::getline(lines, line);  // the {"traceEvents":[ prefix
  std::uint64_t parsed = 0;
  while (std::getline(lines, line)) {
    if (line == "]}" || line.empty()) continue;
    if (!line.empty() && line.back() == ',') line.pop_back();
    const JsonLine event(line);
    const std::string name = event.get_string("name");
    EXPECT_TRUE(name == "unit_span" || name == "threaded_span") << name;
    EXPECT_EQ(event.get_string("cat"), "drivefi");
    EXPECT_EQ(event.get_string("ph"), "X");
    EXPECT_GE(event.get_double("ts"), 0.0);
    EXPECT_GE(event.get_double("dur"), 0.0);
    EXPECT_GT(event.get_u64("pid"), 0u);
    EXPECT_GT(event.get_u64("tid"), 0u);
    ++parsed;
  }
  EXPECT_EQ(parsed, events);
}

TEST(Tracing, SpansAreDroppedWhenDisabled) {
  ASSERT_FALSE(obs::tracing_enabled());
  { DFI_SPAN("never_recorded"); }  // must not crash or write anywhere
}

TEST(StatusProtocol, EncodeParseRoundTrip) {
  coord::StatusReplyMsg reply;
  reply.planned_runs = 480;
  reply.completed_runs = 123;
  reply.elapsed_seconds = 7.25;
  reply.workers = 2;
  reply.worker_table =
      "{\"worker\":\"w1\",\"threads\":4,\"active_leases\":1,"
      "\"leased_runs\":16,\"reported_done\":9,"
      "\"heartbeat_age_seconds\":0.5}\n"
      "{\"worker\":\"w2\",\"threads\":2,\"active_leases\":0,"
      "\"leased_runs\":0,\"reported_done\":0,"
      "\"heartbeat_age_seconds\":-1}";
  reply.metrics = obs::metrics().snapshot_jsonl("metrics");

  const std::string line = encode(reply);
  EXPECT_EQ(coord::message_type(line), "status_reply");
  const coord::StatusReplyMsg parsed = coord::parse_status_reply(line);
  EXPECT_EQ(parsed.protocol, coord::kProtocolVersion);
  EXPECT_EQ(parsed.planned_runs, reply.planned_runs);
  EXPECT_EQ(parsed.completed_runs, reply.completed_runs);
  EXPECT_DOUBLE_EQ(parsed.elapsed_seconds, reply.elapsed_seconds);
  EXPECT_EQ(parsed.workers, reply.workers);
  EXPECT_EQ(parsed.worker_table, reply.worker_table);
  EXPECT_EQ(parsed.metrics, reply.metrics);

  // Both embedded payloads parse back out as flat JSONL.
  std::istringstream table(parsed.worker_table);
  std::string row;
  ASSERT_TRUE(std::getline(table, row));
  EXPECT_EQ(JsonLine(row).get_string("worker"), "w1");
  ASSERT_TRUE(std::getline(table, row));
  EXPECT_EQ(JsonLine(row).get_u64("threads"), 2u);
  EXPECT_EQ(JsonLine(parsed.metrics).get_string("type"), "metrics");

  EXPECT_EQ(encode(coord::StatusRequestMsg{}), "{\"type\":\"status\"}");
}

core::Experiment small_experiment() {
  ads::PipelineConfig config;
  config.seed = 11;
  core::ExperimentOptions options;
  options.executor.threads = 1;
  return core::Experiment({sim::base_suite()[1]}, config, {}, options);
}

TEST(StatusProtocol, LiveCoordinatorAnswersStatusProbe) {
  namespace fs = std::filesystem;
  const core::Experiment experiment = small_experiment();
  const core::RandomValueModel model(4, 2024);

  const core::CampaignManifest manifest =
      core::make_manifest(experiment, model, "test");
  const std::string master_path =
      (fs::path(::testing::TempDir()) / "drivefi_obs_status_master.jsonl")
          .string();
  core::ShardResultStore master(master_path, manifest,
                                core::StoreOpenMode::kOverwrite);

  coord::CoordinatorConfig coord_config;
  coord_config.tick_seconds = 0.02;
  coord_config.print_progress = false;
  coord::Coordinator coordinator(manifest, master, coord_config);
  std::thread coordinator_thread([&] { coordinator.serve(); });

  // A status probe needs no hello and no campaign knowledge.
  {
    net::MessageConnection probe(
        net::TcpSocket::connect("127.0.0.1", coordinator.port(), 5.0));
    probe.send_line(encode(coord::StatusRequestMsg{}));
    std::string line;
    ASSERT_EQ(probe.recv_line(&line, 5.0), net::RecvStatus::kMessage);
    const coord::StatusReplyMsg reply = coord::parse_status_reply(line);
    EXPECT_EQ(reply.planned_runs, model.run_count());
    EXPECT_EQ(reply.completed_runs, 0u);
    EXPECT_EQ(reply.workers, 0u);
    // The metrics payload is the full registry snapshot, fleet gauges
    // included, refreshed at reply time.
    const JsonLine metrics(reply.metrics);
    EXPECT_DOUBLE_EQ(metrics.get_double("fleet.planned_runs"),
                     static_cast<double>(model.run_count()));
    // The probe connection is one-shot: the coordinator hangs up.
    EXPECT_EQ(probe.recv_line(&line, 5.0), net::RecvStatus::kClosed);
  }

  // A real worker finishes the campaign; the coordinator exits serve().
  coord::WorkerConfig worker_config;
  worker_config.port = coordinator.port();
  worker_config.name = "obs-test-worker";
  worker_config.store_path =
      (fs::path(::testing::TempDir()) / "drivefi_obs_status_worker.jsonl")
          .string();
  coord::WorkerClient worker(experiment, model, "test", worker_config);
  const coord::WorkerStats stats = worker.run();
  coordinator_thread.join();
  EXPECT_EQ(stats.runs_executed, model.run_count());
  EXPECT_EQ(master.completed().size(), model.run_count());
}

TEST(MetricsSnapshotSink, WritesParseableOrderedSnapshots) {
  const core::Experiment experiment = small_experiment();
  const core::RandomValueModel model(6, 7);

  std::ostringstream out;
  core::MetricsSnapshotSink sink(out, /*interval_seconds=*/0.0);
  std::vector<core::ResultSink*> sinks = {&sink};
  experiment.run(model, sinks);

  // interval 0: one snapshot per record plus the final one.
  EXPECT_EQ(sink.snapshots_written(), model.run_count() + 1);
  std::istringstream lines(out.str());
  std::string line;
  std::uint64_t expected_seq = 0;
  double last_elapsed = -1.0;
  while (std::getline(lines, line)) {
    const JsonLine json(line);
    EXPECT_EQ(json.get_string("type"), "metrics");
    EXPECT_EQ(json.get_u64("seq"), expected_seq);
    const double elapsed = json.get_double("elapsed_seconds");
    EXPECT_GE(elapsed, last_elapsed);
    last_elapsed = elapsed;
    ++expected_seq;
  }
  EXPECT_EQ(expected_seq, sink.snapshots_written());
}

TEST(Telemetry, SummaryLineParsesFlat) {
  const std::string line = obs::telemetry_jsonl(2.5);
  const JsonLine json(line);
  EXPECT_EQ(json.get_string("type"), "telemetry");
  EXPECT_DOUBLE_EQ(json.get_double("wall_seconds"), 2.5);
}

}  // namespace
}  // namespace drivefi
