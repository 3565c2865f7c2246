// Chaos tests: the fleet under scripted infrastructure faults. The same
// thesis the campaigns apply to the AV stack -- injected faults expose
// weaknesses cheaply -- applied to the campaign machinery itself: workers'
// connections are dropped/torn/garbaged at scripted frames via
// net::FaultyConnection, and the coordinator is killed and resumed
// mid-campaign. The invariant under every storm is the determinism
// contract: the master store's merged fingerprint and scrubbed JSONL stay
// byte-identical to the uninterrupted single-process run. CI runs this
// suite plain and under ASan/UBSan.
#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
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
#include "core/result_store.h"
#include "net/chaos.h"
#include "net/socket.h"
#include "obs/metrics.h"

namespace drivefi::core {
namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

ads::PipelineConfig test_pipeline_config() {
  ads::PipelineConfig config;
  config.seed = 11;
  return config;
}

Experiment make_experiment(unsigned threads) {
  ExperimentOptions options;
  options.executor.threads = threads;
  return Experiment({sim::base_suite()[1]}, test_pipeline_config(), {},
                    options);
}

std::string temp_path(const std::string& name) {
  return (fs::path(::testing::TempDir()) / name).string();
}

/// The single-process reference: fingerprint + scrubbed canonical JSONL.
struct Reference {
  std::string fingerprint;
  std::string jsonl;
};

Reference reference_run(const Experiment& experiment,
                        const FaultModel& model) {
  Reference ref;
  ref.fingerprint = campaign_fingerprint(experiment.run(model));
  std::ostringstream out;
  JsonlSink sink(out);
  std::vector<ResultSink*> sinks = {&sink};
  experiment.run(model, sinks);
  ref.jsonl = scrub_wall_seconds(out.str());
  return ref;
}

void expect_bit_identical(const std::string& master_path,
                          const Reference& ref, const char* label) {
  const MergedCampaign merged = merge_shards({master_path});
  EXPECT_EQ(ref.fingerprint, campaign_fingerprint(merged.stats))
      << label << ": merged stats diverged from the single-process run";
  std::ostringstream out;
  write_merged_jsonl(merged, out);
  EXPECT_EQ(ref.jsonl, scrub_wall_seconds(out.str()))
      << label << ": merged JSONL diverged from the single-process run";
}

/// Worker config tuned for storms: short protocol deadlines, many fast
/// reconnect attempts (bounded jitter keeps the worst-case straggler to a
/// few seconds), optionally chaos-decorated.
coord::WorkerConfig chaos_worker_config(
    const char* name, std::uint16_t port,
    std::shared_ptr<net::ChaosPolicy> policy) {
  coord::WorkerConfig config;
  config.port = port;
  config.name = name;
  config.store_path = temp_path(std::string("drivefi_chaos_") + name + ".jsonl");
  config.io_timeout = 2.0;
  config.reconnect_max_attempts = 400;
  config.reconnect_base_delay = 0.002;
  config.reconnect_max_delay = 0.05;
  if (policy) {
    config.decorate_connection =
        [policy](net::TcpSocket socket) -> std::unique_ptr<net::Connection> {
      return std::make_unique<net::FaultyConnection>(std::move(socket),
                                                     policy);
    };
  }
  return config;
}

coord::CoordinatorConfig chaos_coordinator_config() {
  coord::CoordinatorConfig config;
  config.lease_runs = 3;
  config.heartbeat_timeout = 1.0;
  config.tick_seconds = 0.02;
  config.print_progress = false;
  return config;
}

TEST(Chaos, EveryWorkerDroppedAtDistinctFramesStillMergesBitIdentical) {
  // Three workers, each with its own scripted storm -- a drop before the
  // very first hello, torn and garbaged frames mid-lease, a delayed frame,
  // drops after records have streamed (forcing a respool). The coordinator
  // stays up throughout; every fault is worker-side transport chaos.
  obs::metrics().reset();
  const Experiment experiment = make_experiment(2);
  const RandomValueModel model(14, 2024);
  const Reference ref = reference_run(experiment, model);

  const CampaignManifest manifest = make_manifest(experiment, model, "test");
  const std::string master_path = temp_path("drivefi_chaos_drops_master.jsonl");
  ShardResultStore master(master_path, manifest, StoreOpenMode::kOverwrite);
  coord::Coordinator coordinator(manifest, master,
                                 chaos_coordinator_config());
  coord::FleetStats fleet;
  std::thread coordinator_thread([&] { fleet = coordinator.serve(); });

  using Action = net::ChaosEvent::Action;
  // wX never even completes its first hello before the drop.
  auto policy_x = std::make_shared<net::ChaosPolicy>(
      101, std::vector<net::ChaosEvent>{
               {0, Action::kDropBefore, 0.0, 0},
               {5, Action::kTruncateAndDrop, 0.0, 9},
           });
  // wY's stream turns to garbage mid-lease, then a frame dawdles.
  auto policy_y = std::make_shared<net::ChaosPolicy>(
      102, std::vector<net::ChaosEvent>{
               {3, Action::kGarbageAndDrop, 0.0, 0},
               {8, Action::kDelay, 0.1, 0},
           });
  // wZ drops late in a lease, after records are locally durable -- the
  // reconnect must respool them.
  auto policy_z = std::make_shared<net::ChaosPolicy>(
      103, std::vector<net::ChaosEvent>{
               {4, Action::kDropBefore, 0.0, 0},
               {9, Action::kDropBefore, 0.0, 0},
           });

  coord::WorkerStats wx, wy, wz;
  std::thread tx([&] {
    coord::WorkerClient worker(
        experiment, model, "test",
        chaos_worker_config("wX", coordinator.port(), policy_x));
    wx = worker.run();
  });
  std::thread ty([&] {
    coord::WorkerClient worker(
        experiment, model, "test",
        chaos_worker_config("wY", coordinator.port(), policy_y));
    wy = worker.run();
  });
  std::thread tz([&] {
    coord::WorkerClient worker(
        experiment, model, "test",
        chaos_worker_config("wZ", coordinator.port(), policy_z));
    wz = worker.run();
  });
  tx.join();
  ty.join();
  tz.join();
  coordinator_thread.join();

  EXPECT_EQ(master.completed().size(), model.run_count());
  EXPECT_GE(wx.reconnects + wy.reconnects + wz.reconnects, 2u)
      << "the scripted drops should have forced reconnects";
  EXPECT_GE(wx.records_respooled + wy.records_respooled + wz.records_respooled,
            1u)
      << "a drop after streamed records should have forced a respool";
  expect_bit_identical(master_path, ref, "worker-drop storm");
}

TEST(Chaos, CoordinatorKilledAndResumedMidCampaignMergesBitIdentical) {
  // The coordinator dies mid-campaign (serve stops, every connection is
  // slammed shut, the object is destroyed) and a NEW coordinator resumes
  // from the master store on the same port. Workers must treat the outage
  // as transient, reconnect with backoff, respool, and finish the
  // campaign -- merged output byte-identical, nothing executed twice shows.
  obs::metrics().reset();
  const Experiment experiment = make_experiment(2);
  const RandomValueModel model(18, 77);
  const Reference ref = reference_run(experiment, model);

  const CampaignManifest manifest = make_manifest(experiment, model, "test");
  const std::string master_path =
      temp_path("drivefi_chaos_resume_master.jsonl");
  auto master = std::make_unique<ShardResultStore>(master_path, manifest,
                                                   StoreOpenMode::kOverwrite);
  auto coordinator = std::make_unique<coord::Coordinator>(
      manifest, *master, chaos_coordinator_config());
  const std::uint16_t port = coordinator->port();

  coord::FleetStats first_sitting;
  std::thread first_serve([&] { first_sitting = coordinator->serve(); });

  coord::WorkerStats wa, wb;
  std::thread ta([&] {
    coord::WorkerClient worker(experiment, model, "test",
                               chaos_worker_config("rA", port, nullptr));
    wa = worker.run();
  });
  std::thread tb([&] {
    coord::WorkerClient worker(experiment, model, "test",
                               chaos_worker_config("rB", port, nullptr));
    wb = worker.run();
  });

  // Kill -9 (in-process edition): once a few runs are durable, stop the
  // serve loop cold and destroy the coordinator. In-flight leases die with
  // it; only the master store survives.
  const auto deadline = Clock::now() + std::chrono::seconds(60);
  while (obs::metrics().gauge("fleet.completed_runs").value() < 3.0 &&
         Clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  coordinator->request_stop();
  first_serve.join();
  coordinator.reset();
  ASSERT_LT(first_sitting.runs_completed, model.run_count())
      << "the campaign finished before the kill; nothing was recovered";

  // Recovery: reopen the store (kResume replays the completed set) and
  // serve the remainder on the SAME port, exactly like
  // `drivefi_campaignd --resume` after a real SIGKILL.
  master.reset();
  master = std::make_unique<ShardResultStore>(master_path, manifest,
                                              StoreOpenMode::kResume);
  const std::size_t resumed = master->completed().size();
  ASSERT_GE(resumed, 3u);
  coord::CoordinatorConfig resume_config = chaos_coordinator_config();
  resume_config.port = port;
  auto resumed_coordinator = std::make_unique<coord::Coordinator>(
      manifest, *master, resume_config);
  const coord::FleetStats second_sitting = resumed_coordinator->serve();
  resumed_coordinator.reset();  // stragglers fail fast, not into a zombie
  ta.join();
  tb.join();

  EXPECT_EQ(second_sitting.resumed_runs, resumed);
  EXPECT_EQ(master->completed().size(), model.run_count());
  EXPECT_GE(wa.reconnects + wb.reconnects, 1u)
      << "the coordinator outage should have forced reconnects";
  expect_bit_identical(master_path, ref, "coordinator kill+resume");
}

/// A master store whose `fail_at`-th append throws, as a full disk would
/// (0: none does); every other call goes to the store it wraps. It notes
/// when its last append returned.
class FailingStore : public ShardStore {
 public:
  FailingStore(ShardStore& inner, std::size_t fail_at)
      : inner_(inner), fail_at_(fail_at) {}

  const std::string& path() const override { return inner_.path(); }
  const CampaignManifest& manifest() const override {
    return inner_.manifest();
  }
  const std::set<std::size_t>& completed() const override {
    return inner_.completed();
  }
  void append(const InjectionRecord& record) override {
    if (++appends_ == fail_at_)
      throw std::runtime_error("injected store failure: disk full");
    inner_.append(record);
    last_append_ = Clock::now();
  }

  std::size_t appends() const { return appends_; }
  Clock::time_point last_append() const { return last_append_; }

 private:
  ShardStore& inner_;
  std::size_t fail_at_;
  std::size_t appends_ = 0;
  Clock::time_point last_append_;
};

TEST(Chaos, MasterStoreFailureStopsTheCoordinatorNotAWorker) {
  // The master store's append throws mid-campaign. That is the
  // coordinator's own failure, not the sending worker's: serve() must stop
  // and rethrow the store's error at once -- not drop the worker as if its
  // socket had died and carry on into a store that rejects every later
  // append. Everything appended before the failure stays durable, and a
  // new coordinator resuming the store finishes the campaign byte-identical.
  const Experiment experiment = make_experiment(2);
  const RandomValueModel model(18, 77);
  const Reference ref = reference_run(experiment, model);

  const CampaignManifest manifest = make_manifest(experiment, model, "test");
  const std::string master_path = temp_path("drivefi_chaos_store_failure.jsonl");
  auto master = std::make_unique<ShardResultStore>(master_path, manifest,
                                                   StoreOpenMode::kOverwrite);
  FailingStore failing(*master, /*fail_at=*/4);
  auto coordinator = std::make_unique<coord::Coordinator>(
      manifest, failing, chaos_coordinator_config());
  const std::uint16_t port = coordinator->port();

  std::string serve_error;
  std::thread first_serve([&] {
    try {
      coordinator->serve();
    } catch (const std::exception& error) {
      serve_error = error.what();
    }
  });
  coord::WorkerStats wa, wb;
  std::thread ta([&] {
    coord::WorkerClient worker(experiment, model, "test",
                               chaos_worker_config("sfA", port, nullptr));
    wa = worker.run();
  });
  std::thread tb([&] {
    coord::WorkerClient worker(experiment, model, "test",
                               chaos_worker_config("sfB", port, nullptr));
    wb = worker.run();
  });
  first_serve.join();
  coordinator.reset();

  EXPECT_EQ(serve_error, "injected store failure: disk full");
  EXPECT_EQ(failing.appends(), 4u)
      << "serve() kept appending after the store failed";
  EXPECT_EQ(master->completed().size(), 3u);

  // The operator fixes the disk and runs `drivefi_campaignd --resume`.
  master.reset();
  master = std::make_unique<ShardResultStore>(master_path, manifest,
                                              StoreOpenMode::kResume);
  ASSERT_EQ(master->completed().size(), 3u);
  coord::CoordinatorConfig resume_config = chaos_coordinator_config();
  resume_config.port = port;
  auto resumed = std::make_unique<coord::Coordinator>(manifest, *master,
                                                      resume_config);
  const coord::FleetStats second_sitting = resumed->serve();
  resumed.reset();
  ta.join();
  tb.join();

  EXPECT_EQ(second_sitting.resumed_runs, 3u);
  EXPECT_FALSE(wa.gave_up);
  EXPECT_FALSE(wb.gave_up);
  EXPECT_EQ(master->completed().size(), model.run_count());
  expect_bit_identical(master_path, ref, "store failure + resume");
}

TEST(Chaos, CoordinatorResumedOnACompleteStoreStillCompletesALateWorker) {
  // The coordinator died after the campaign's last record, so its
  // successor resumes a complete store. A worker still backing off from
  // the first coordinator re-hellos after that; it must be told `complete`
  // and exit cleanly, not retry until it gives up. The coordinator is
  // destroyed the moment serve() returns, as the daemon exits.
  const Experiment experiment = make_experiment(1);
  const RandomValueModel model(6, 91);
  const CampaignManifest manifest = make_manifest(experiment, model, "test");
  const std::string master_path =
      temp_path("drivefi_chaos_complete_master.jsonl");
  {
    ShardResultStore first_sitting(master_path, manifest,
                                   StoreOpenMode::kOverwrite);
    experiment.run_shard(model, first_sitting);
  }
  ShardResultStore master(master_path, manifest, StoreOpenMode::kResume);
  ASSERT_EQ(master.completed().size(), model.run_count());

  auto coordinator = std::make_unique<coord::Coordinator>(
      manifest, master, chaos_coordinator_config());
  const std::uint16_t port = coordinator->port();
  coord::FleetStats fleet;
  std::thread serve([&] {
    fleet = coordinator->serve();
    coordinator.reset();
  });

  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  coord::WorkerClient worker(experiment, model, "test",
                             chaos_worker_config("late", port, nullptr));
  const coord::WorkerStats stats = worker.run();
  serve.join();

  EXPECT_FALSE(stats.gave_up) << "the late worker was stranded";
  EXPECT_EQ(stats.runs_executed, 0u);
  EXPECT_EQ(fleet.resumed_runs, model.run_count());
  EXPECT_EQ(fleet.runs_completed, 0u);
}

TEST(Chaos, FreshFleetAllConnectedReturnsWithinOneTickOfItsLastRecord) {
  // The end-game grace is only for workers that may be out there. A fresh
  // campaign whose workers are all connected at its end has none, so
  // serve() returns at once: within one tick of the last durable record,
  // not after a heartbeat timeout.
  const Experiment experiment = make_experiment(1);
  const RandomValueModel model(8, 93);
  const CampaignManifest manifest = make_manifest(experiment, model, "test");
  ShardResultStore inner(temp_path("drivefi_chaos_fresh_master.jsonl"),
                         manifest, StoreOpenMode::kOverwrite);
  FailingStore master(inner, /*fail_at=*/0);
  coord::CoordinatorConfig config = chaos_coordinator_config();
  config.tick_seconds = 0.25;
  config.heartbeat_timeout = 5.0;
  coord::Coordinator coordinator(manifest, master, config);

  Clock::time_point returned;
  std::thread serve([&] {
    coordinator.serve();
    returned = Clock::now();
  });
  coord::WorkerStats wa, wb;
  std::thread ta([&] {
    coord::WorkerClient worker(
        experiment, model, "test",
        chaos_worker_config("fA", coordinator.port(), nullptr));
    wa = worker.run();
  });
  std::thread tb([&] {
    coord::WorkerClient worker(
        experiment, model, "test",
        chaos_worker_config("fB", coordinator.port(), nullptr));
    wb = worker.run();
  });
  ta.join();
  tb.join();
  serve.join();

  ASSERT_EQ(inner.completed().size(), model.run_count());
  EXPECT_FALSE(wa.gave_up);
  EXPECT_FALSE(wb.gave_up);
  EXPECT_LT(std::chrono::duration<double>(returned - master.last_append())
                .count(),
            config.tick_seconds)
      << "serve() lingered after the last record of a fully connected fleet";
}

TEST(Chaos, MultiFailureStormStillMergesBitIdenticalAndCountsFaults) {
  // Everything at once: the coordinator is killed and resumed mid-campaign
  // WHILE workers ride scripted connection drops (including drops timed
  // after streamed records, so respools must happen). The acceptance
  // criteria assert the merged output is still byte-identical AND the
  // fleet.* fault metrics actually observed the storm.
  obs::metrics().reset();
  const Experiment experiment = make_experiment(2);
  const RandomValueModel model(18, 4242);
  const Reference ref = reference_run(experiment, model);

  const CampaignManifest manifest = make_manifest(experiment, model, "test");
  const std::string master_path =
      temp_path("drivefi_chaos_storm_master.jsonl");
  auto master = std::make_unique<ShardResultStore>(master_path, manifest,
                                                   StoreOpenMode::kOverwrite);
  auto coordinator = std::make_unique<coord::Coordinator>(
      manifest, *master, chaos_coordinator_config());
  const std::uint16_t port = coordinator->port();

  coord::FleetStats first_sitting;
  std::thread first_serve([&] { first_sitting = coordinator->serve(); });

  using Action = net::ChaosEvent::Action;
  auto policy_a = std::make_shared<net::ChaosPolicy>(
      201, std::vector<net::ChaosEvent>{
               {4, Action::kDropBefore, 0.0, 0},
               {11, Action::kGarbageAndDrop, 0.0, 0},
           });
  auto policy_b = std::make_shared<net::ChaosPolicy>(
      202, std::vector<net::ChaosEvent>{
               {5, Action::kTruncateAndDrop, 0.0, 7},
               {12, Action::kDelay, 0.05, 0},
           });

  coord::WorkerStats wa, wb;
  std::thread ta([&] {
    coord::WorkerClient worker(
        experiment, model, "test",
        chaos_worker_config("sA", port, policy_a));
    wa = worker.run();
  });
  std::thread tb([&] {
    coord::WorkerClient worker(
        experiment, model, "test",
        chaos_worker_config("sB", port, policy_b));
    wb = worker.run();
  });

  const auto deadline = Clock::now() + std::chrono::seconds(60);
  while (obs::metrics().gauge("fleet.completed_runs").value() < 4.0 &&
         Clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  coordinator->request_stop();
  first_serve.join();
  coordinator.reset();

  master.reset();
  master = std::make_unique<ShardResultStore>(master_path, manifest,
                                              StoreOpenMode::kResume);
  coord::CoordinatorConfig resume_config = chaos_coordinator_config();
  resume_config.port = port;
  auto resumed_coordinator = std::make_unique<coord::Coordinator>(
      manifest, *master, resume_config);
  resumed_coordinator->serve();
  resumed_coordinator.reset();
  ta.join();
  tb.join();

  EXPECT_EQ(master->completed().size(), model.run_count());
  expect_bit_identical(master_path, ref, "multi-failure storm");

  // The acceptance criteria: the storm was OBSERVED, not just survived.
  EXPECT_GT(obs::metrics().counter("fleet.reconnects").value(), 0u);
  EXPECT_GT(obs::metrics().counter("fleet.records_respooled").value(), 0u);
  EXPECT_GE(wa.reconnects + wb.reconnects, 2u);
  EXPECT_GT(obs::metrics()
                .histogram("fleet.backoff_seconds")
                .snapshot()
                .count,
            0u);
}

/// Plays a coordinator for one worker, on its own thread: accepts it,
/// closes the listener (nobody to reconnect to afterwards), answers its
/// hello, reads its first lease_request, then runs `script`. Returning
/// from `script` hangs up.
std::thread scripted_coordinator(
    std::unique_ptr<net::TcpListener> listener, std::size_t planned_runs,
    std::function<void(net::MessageConnection&)> script) {
  return std::thread([listener = std::move(listener), planned_runs,
                      script = std::move(script)]() mutable {
    std::optional<net::TcpSocket> socket = listener->accept(10.0);
    listener.reset();
    if (!socket) {
      ADD_FAILURE() << "worker never connected";
      return;
    }
    net::MessageConnection conn(std::move(*socket));
    std::string line;
    ASSERT_EQ(conn.recv_line(&line, 10.0), net::RecvStatus::kMessage);
    coord::WelcomeMsg welcome;
    welcome.planned_runs = planned_runs;
    conn.send_line(coord::encode(welcome));
    ASSERT_EQ(conn.recv_line(&line, 10.0), net::RecvStatus::kMessage);
    ASSERT_EQ(coord::message_type(line), "lease_request");
    script(conn);
  });
}

TEST(Chaos, WorkerStopsOnCompleteWhenTheFinishedCoordinatorHangsUp) {
  // The end of a campaign with work stealing: a thief finishes the tail it
  // stole, so the coordinator sends `complete` and hangs up while the
  // victim is still streaming. Records it never read turn the hang-up into
  // a reset, and the victim's next send fails. The victim must find the
  // buffered `complete` and stop, not go offline and spend its reconnect
  // budget on a coordinator that is gone. The lease's tails run and stream
  // one record per run, in index order, so the hang-up lands mid-lease.
  const Experiment experiment = make_experiment(1);
  const RandomValueModel model(100, 77);
  auto listener = std::make_unique<net::TcpListener>("127.0.0.1", 0);
  const std::uint16_t port = listener->port();
  std::thread coordinator = scripted_coordinator(
      std::move(listener), model.run_count(),
      [&](net::MessageConnection& conn) {
        coord::LeaseMsg lease;
        lease.lease_id = 1;
        for (std::size_t i = 0; i < model.run_count(); ++i)
          lease.run_indices.push_back(i);
        conn.send_line(coord::encode(lease));
        std::string line;
        ASSERT_EQ(conn.recv_line(&line, 10.0), net::RecvStatus::kMessage);
        // Let records queue up unread, then finish the campaign.
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
        conn.send_line(coord::encode(coord::CompleteMsg{}));
      });

  coord::WorkerConfig config = chaos_worker_config("victim", port, nullptr);
  config.reconnect_max_attempts = 3;
  coord::WorkerClient worker(experiment, model, "test", config);
  const coord::WorkerStats stats = worker.run();
  coordinator.join();

  EXPECT_FALSE(stats.gave_up);
  EXPECT_EQ(stats.reconnects, 0u);
  EXPECT_LT(stats.runs_executed, model.run_count())
      << "the worker ran its whole lease instead of stopping at complete";
}

TEST(Chaos, WaitingWorkerLeavesAtCompleteNotAtTheEndOfTheWait) {
  // Near the end of a campaign every remaining run is leased out, so an
  // idle worker is told to `wait`. When the campaign completes during that
  // wait, the worker must leave at `complete`, not sleep the wait out.
  const Experiment experiment = make_experiment(1);
  const RandomValueModel model(4, 78);
  auto listener = std::make_unique<net::TcpListener>("127.0.0.1", 0);
  const std::uint16_t port = listener->port();
  std::thread coordinator = scripted_coordinator(
      std::move(listener), model.run_count(),
      [](net::MessageConnection& conn) {
        coord::WaitMsg wait;
        wait.seconds = 30.0;
        conn.send_line(coord::encode(wait));
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        conn.send_line(coord::encode(coord::CompleteMsg{}));
      });

  coord::WorkerClient worker(experiment, model, "test",
                             chaos_worker_config("idler", port, nullptr));
  const auto started = Clock::now();
  const coord::WorkerStats stats = worker.run();
  const double waited =
      std::chrono::duration<double>(Clock::now() - started).count();
  coordinator.join();

  EXPECT_FALSE(stats.gave_up);
  EXPECT_EQ(stats.runs_executed, 0u);
  EXPECT_LT(waited, 10.0) << "the worker slept out the wait";
}

}  // namespace
}  // namespace drivefi::core
