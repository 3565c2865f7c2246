/// \file
/// The fleet coordinator: one long-running process that owns the campaign
/// (a CampaignManifest plus the authoritative merged shard store) and
/// leases run-index batches to workers over the net/ wire protocol.
///
/// Design:
///  - The coordinator's store is the campaign's single merged shard
///    (coordinates 0/1). Every record a worker streams back is validated
///    and appended -- durably, crash-safe -- the moment it arrives, so the
///    "continuous merge" is the ack path itself, and a coordinator restart
///    resumes from whatever the store already holds.
///  - Lease movement can never corrupt results: run identity is
///    (campaign_seed, run_index), so a record re-executed after a steal, a
///    SIGKILL, or a late ack from a presumed-dead worker is byte-identical
///    to the first copy, and the store's duplicate refusal reduces it to a
///    dropped no-op. merge_shards over the master store is then
///    bit-identical to the single-process campaign (determinism_test).
///  - One poll(2) event loop, blocking I/O with deadlines; no threads. A
///    worker's death is noticed twice over: its socket EOF releases its
///    leases immediately, and the heartbeat timeout catches anything a
///    half-open connection hides.
#pragma once

#include <atomic>
#include <cstdint>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "coord/ledger.h"
#include "core/manifest.h"
#include "net/socket.h"

namespace drivefi::core {
class ShardStore;
}

namespace drivefi::coord {

struct CoordinatorConfig {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;        ///< 0 = ephemeral; read back via port()
  std::size_t lease_runs = 16;   ///< target batch size per lease
  double heartbeat_timeout = 5.0;
  double tick_seconds = 0.05;    ///< event-loop granularity (expiry, progress)
  bool print_progress = true;    ///< live fleet status line on stderr
  std::string metrics_out;       ///< JSONL metrics snapshots; empty = off
  double metrics_interval_seconds = 1.0;  ///< cadence of metrics_out lines
};

/// Aggregate outcome of one serve() sitting.
struct FleetStats {
  std::size_t runs_completed = 0;     ///< records stored THIS sitting
  std::size_t duplicates_dropped = 0; ///< stale/stolen re-executions ignored
  std::size_t leases_granted = 0;
  std::size_t leases_expired = 0;     ///< heartbeat timeouts + dead sockets
  std::size_t leases_stolen = 0;      ///< split off a straggler for an idle worker
  std::size_t workers_seen = 0;
  std::size_t resumed_runs = 0;       ///< already durable when serve() began
  double wall_seconds = 0.0;
};

class Coordinator {
 public:
  /// Binds the listener immediately (so port() is valid before serve()).
  /// `store` is the campaign's master store, already opened with shard
  /// coordinates 0/1; its completed() set seeds the pending work, which is
  /// how a restarted coordinator resumes. Throws net::SocketError when the
  /// address cannot be bound and std::invalid_argument on a store whose
  /// shard coordinates are not 0/1 or whose manifest disagrees.
  Coordinator(const core::CampaignManifest& manifest,
              core::ShardStore& store, CoordinatorConfig config);
  ~Coordinator();

  std::uint16_t port() const { return listener_.port(); }

  /// Serves the fleet until every planned run is durably stored, then
  /// notifies connected workers (`complete`) and returns. When a worker
  /// may still be reconnecting -- this sitting resumed a non-empty store,
  /// or a worker that said hello is disconnected and was never sent
  /// `complete` -- it first keeps serving for up to one heartbeat_timeout
  /// (the end-game grace): a matching hello is welcomed, respooled records
  /// are dropped as duplicates, and a lease request gets `complete`. With
  /// every worker connected at completion it returns at once. Safe to call
  /// on an already-complete store (returns after the grace). A master-store
  /// failure (an append that throws: disk full, closed stream) stops
  /// serving and is rethrown as is, leaving every record appended before
  /// it for a --resume; individual worker failures never propagate.
  FleetStats serve();

  /// Asks a serve() on another thread to return after its current tick
  /// (tests); the campaign can be finished later by serving again.
  void request_stop() { stop_.store(true); }

 private:
  struct Connection;

  /// One turn of the event loop: poll up to one tick, accept, drain and
  /// reap connections, expire straggler leases, publish telemetry.
  void serve_tick();
  /// Sends `complete` to every connection and closes them all.
  void tell_complete_and_hang_up();
  void handle_message(Connection& conn, const std::string& line);
  void maybe_print_progress(double now, bool force);
  /// Publishes the fleet.* gauges (planned/completed/pending runs, active
  /// leases, workers, lease totals) to the process metrics registry. The
  /// status line, the status_reply message, and --metrics-out snapshots
  /// all READ these gauges, so the three views can never disagree.
  void update_fleet_gauges(double now);
  void maybe_write_metrics(double now, bool force);
  std::string build_status_reply(double now) const;
  double now_seconds() const;

  core::CampaignManifest manifest_;
  core::ShardStore& store_;
  CoordinatorConfig config_;
  net::TcpListener listener_;
  LeaseLedger ledger_;
  std::uint64_t manifest_hash_;

  std::vector<std::unique_ptr<Connection>> connections_;
  std::atomic<bool> stop_{false};
  FleetStats stats_;
  std::map<std::string, unsigned> worker_threads_;  ///< hello'd workers
  std::set<std::string> told_complete_;  ///< workers sent `complete`
  double started_ = 0.0;
  double last_progress_ = -1.0;
  std::size_t completed_at_start_ = 0;
  std::unique_ptr<std::ofstream> metrics_stream_;
  double last_metrics_ = -1.0;
  std::uint64_t metrics_seq_ = 0;
};

}  // namespace drivefi::coord
