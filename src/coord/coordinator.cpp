#include "coord/coordinator.h"

#include <poll.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <exception>
#include <set>
#include <sstream>
#include <stdexcept>

#include "coord/protocol.h"
#include "core/jsonl.h"
#include "core/progress.h"
#include "core/result_store.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "util/logging.h"
#include "util/number_format.h"

namespace drivefi::coord {

namespace {

// Carries a master-store failure through the per-connection handler, which
// treats every std::exception as that worker's fault. A failing store is
// the coordinator's own fault: serve() rethrows the store's error instead
// of dropping an innocent worker.
struct StoreFailure {
  std::exception_ptr error;
};

}  // namespace

struct Coordinator::Connection {
  explicit Connection(net::TcpSocket socket) : msg(std::move(socket)) {}

  net::MessageConnection msg;
  std::string worker;        // set by hello
  bool hello_done = false;
  bool defunct = false;      // drop after the current drain
  /// Leases granted on THIS connection. A reconnecting worker keeps its
  /// name, so an EOF must reclaim only these -- releasing by name could
  /// yank a lease just granted on the worker's replacement connection.
  std::set<std::uint64_t> leases;
};

Coordinator::Coordinator(const core::CampaignManifest& manifest,
                         core::ShardStore& store,
                         CoordinatorConfig config)
    : manifest_(manifest),
      store_(store),
      config_(std::move(config)),
      listener_(config_.host, config_.port),
      // Pending work = planned runs minus whatever the master store already
      // holds; a restarted coordinator resumes from here for free.
      ledger_(
          [&] {
            std::vector<std::size_t> pending;
            pending.reserve(manifest.planned_runs);
            for (std::size_t r = 0; r < manifest.planned_runs; ++r)
              if (!store.contains(r)) pending.push_back(r);
            return pending;
          }(),
          config_.lease_runs, config_.heartbeat_timeout),
      manifest_hash_(manifest_compat_hash(manifest)) {
  if (manifest_.shard_index != 0 || manifest_.shard_count != 1)
    throw std::invalid_argument(
        "coordinator: the master store must use shard coordinates 0/1 (it IS "
        "the merged campaign)");
  const std::string reason = manifest_.mismatch_reason(store_.manifest());
  if (!reason.empty())
    throw std::invalid_argument(
        "coordinator: store manifest does not match the campaign: " + reason);
}

Coordinator::~Coordinator() = default;

double Coordinator::now_seconds() const {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

FleetStats Coordinator::serve() {
  started_ = now_seconds();
  completed_at_start_ = store_.completed().size();
  last_progress_ = -1.0;
  if (!config_.metrics_out.empty() && !metrics_stream_) {
    metrics_stream_ = std::make_unique<std::ofstream>(
        config_.metrics_out, std::ios::binary | std::ios::trunc);
    if (!*metrics_stream_)
      throw std::runtime_error("coordinator: cannot open metrics file " +
                               config_.metrics_out);
  }

  const auto complete = [&] {
    return store_.completed().size() >= manifest_.planned_runs;
  };
  while (!stop_.load() && !complete()) serve_tick();

  if (complete()) {
    // ---- completion: tell everyone, then hang up ---------------------
    tell_complete_and_hang_up();
    // ---- end-game grace ----------------------------------------------
    // A worker that lost its socket (to an earlier coordinator, or to this
    // one) may still be backing off before its re-hello, and once this
    // process is gone it would retry until it gave up. So while one may be
    // out there -- this sitting resumed a non-empty store, or a worker that
    // said hello is gone and was never sent `complete` -- keep answering
    // for one heartbeat timeout, the bound on worker silence: its hello is
    // welcomed, its respooled records are duplicates, and its lease
    // request is answered with `complete`.
    const auto worker_may_be_out_there = [&] {
      if (completed_at_start_ > 0) return true;
      for (const auto& [worker, threads] : worker_threads_)
        if (!told_complete_.contains(worker)) return true;
      return false;
    };
    const double grace_until = now_seconds() + config_.heartbeat_timeout;
    while (!stop_.load() && worker_may_be_out_there() &&
           now_seconds() < grace_until)
      serve_tick();
    tell_complete_and_hang_up();
  }
  connections_.clear();

  const double done_at = now_seconds();
  update_fleet_gauges(done_at);
  maybe_print_progress(done_at, true);
  maybe_write_metrics(done_at, true);
  if (config_.print_progress) std::fprintf(stderr, "\n");

  stats_.leases_granted = ledger_.leases_granted();
  stats_.leases_expired = ledger_.leases_expired();
  stats_.leases_stolen = ledger_.leases_stolen();
  stats_.workers_seen = worker_threads_.size();
  stats_.resumed_runs = completed_at_start_;
  stats_.wall_seconds = now_seconds() - started_;
  return stats_;
}

void Coordinator::serve_tick() {
  // ---- wait for sockets or the tick --------------------------------
  std::vector<pollfd> fds;
  fds.reserve(connections_.size() + 1);
  fds.push_back({listener_.fd(), POLLIN, 0});
  for (const auto& conn : connections_)
    fds.push_back({conn->msg.socket().fd(), POLLIN, 0});
  const int timeout_ms = static_cast<int>(config_.tick_seconds * 1000.0) + 1;
  ::poll(fds.data(), fds.size(), timeout_ms);  // EINTR: just tick early

  // ---- new workers -------------------------------------------------
  if ((fds[0].revents & POLLIN) != 0) {
    while (auto socket = listener_.accept(0.0))
      connections_.push_back(std::make_unique<Connection>(std::move(*socket)));
  }

  // ---- drain every readable connection -----------------------------
  for (auto& conn : connections_) {
    if (conn->defunct) continue;
    try {
      std::string line;
      for (;;) {
        const net::RecvStatus status = conn->msg.recv_line(&line, 0.0);
        if (status == net::RecvStatus::kTimeout) break;
        if (status == net::RecvStatus::kClosed) {
          conn->defunct = true;
          break;
        }
        handle_message(*conn, line);
        if (conn->defunct) break;
      }
    } catch (const StoreFailure& failure) {
      std::rethrow_exception(failure.error);
    } catch (const std::exception& error) {
      // Socket death or a corrupt stream: this worker is gone. Its leases
      // go back to pending; the campaign carries on.
      if (config_.print_progress) std::fprintf(stderr, "\n");
      DFI_LOG_WARN << "coordinator: dropping "
                   << (conn->worker.empty() ? "<pre-hello>" : conn->worker)
                   << ": " << error.what();
      conn->defunct = true;
    }
  }

  // ---- reap dropped connections ------------------------------------
  for (std::size_t i = 0; i < connections_.size();) {
    if (!connections_[i]->defunct) {
      ++i;
      continue;
    }
    for (const std::uint64_t lease_id : connections_[i]->leases)
      ledger_.release_lease(lease_id, connections_[i]->worker);
    connections_.erase(connections_.begin() + static_cast<std::ptrdiff_t>(i));
  }

  // ---- expire straggler leases (work stealing, half 1) -------------
  const double now = now_seconds();
  const auto expired = ledger_.expire(now);
  if (!expired.empty()) {
    if (config_.print_progress) std::fprintf(stderr, "\n");
    for (const Lease& lease : expired)
      DFI_LOG_WARN << "coordinator: lease " << lease.id << " (" << lease.worker
                   << ") missed its heartbeat; " << lease.run_indices.size()
                   << " runs re-queued";
  }

  update_fleet_gauges(now);
  maybe_print_progress(now, false);
  maybe_write_metrics(now, false);
}

void Coordinator::tell_complete_and_hang_up() {
  for (auto& conn : connections_) {
    try {
      conn->msg.send_line(encode(CompleteMsg{}));
      if (conn->hello_done) told_complete_.insert(conn->worker);
    } catch (const std::exception&) {
      // Peer already gone; nothing to clean up beyond the socket itself.
    }
  }
  connections_.clear();
}

void Coordinator::handle_message(Connection& conn, const std::string& line) {
  const std::string type = message_type(line);

  if (!conn.hello_done) {
    if (type == "status") {
      // Read-only introspection: no hello, no manifest hash. Answer once
      // and hang up -- a status probe never becomes a worker.
      obs::metrics().counter("coord.status_requests").add();
      const double now = now_seconds();
      update_fleet_gauges(now);
      conn.msg.send_line(build_status_reply(now));
      conn.defunct = true;
      return;
    }
    if (type != "hello") {
      conn.msg.send_line(encode(ErrorMsg{"expected hello, got " + type}));
      conn.defunct = true;
      return;
    }
    const HelloMsg hello = parse_hello(line);
    if (hello.protocol != kProtocolVersion) {
      conn.msg.send_line(encode(ErrorMsg{
          "protocol version " + std::to_string(hello.protocol) +
          " not supported (coordinator speaks " +
          std::to_string(kProtocolVersion) + ")"}));
      conn.defunct = true;
      return;
    }
    if (hello.manifest_hash != manifest_hash_) {
      // The fleet-level analogue of the shard store refusing a mismatched
      // manifest: a worker configured for a different campaign (other
      // seed, corpus, model, pipeline config) never gets work.
      conn.msg.send_line(encode(ErrorMsg{
          "campaign manifest mismatch: worker hash " +
          std::to_string(hello.manifest_hash) + " != coordinator hash " +
          std::to_string(manifest_hash_) +
          " (different model/seed/corpus/config?)"}));
      conn.defunct = true;
      return;
    }
    conn.worker = hello.worker;
    conn.hello_done = true;
    worker_threads_[hello.worker] = hello.threads;
    WelcomeMsg welcome;
    welcome.planned_runs = manifest_.planned_runs;
    welcome.completed_runs = store_.completed().size();
    welcome.heartbeat_timeout = config_.heartbeat_timeout;
    conn.msg.send_line(encode(welcome));
    return;
  }

  if (type == "lease_request") {
    DFI_SPAN("coord.grant");
    if (store_.completed().size() >= manifest_.planned_runs) {
      conn.msg.send_line(encode(CompleteMsg{}));
      told_complete_.insert(conn.worker);
      return;
    }
    if (auto lease = ledger_.grant(conn.worker, now_seconds())) {
      conn.leases.insert(lease->id);
      LeaseMsg msg;
      msg.lease_id = lease->id;
      msg.run_indices = lease->run_indices;
      conn.msg.send_line(encode(msg));
    } else {
      WaitMsg wait;
      wait.seconds = config_.heartbeat_timeout / 4.0;
      conn.msg.send_line(encode(wait));
    }
    return;
  }

  if (type == "heartbeat") {
    obs::metrics().counter("coord.heartbeats").add();
    const HeartbeatMsg hb = parse_heartbeat(line);
    HeartbeatAckMsg ack;
    ack.lease_id = hb.lease_id;
    ack.lease_valid =
        ledger_.heartbeat(hb.lease_id, conn.worker, hb.done, now_seconds());
    conn.msg.send_line(encode(ack));
    return;
  }

  if (type == "record") {
    const RecordMsg msg = parse_record(line);
    const core::InjectionRecord record =
        core::parse_run_record(msg.record_jsonl);
    if (record.run_index >= manifest_.planned_runs) {
      conn.msg.send_line(encode(ErrorMsg{
          "record run_index " + std::to_string(record.run_index) +
          " is outside the campaign"}));
      conn.defunct = true;
      return;
    }
    if (store_.contains(record.run_index)) {
      // The determinism dividend: a duplicate (steal race, late ack from a
      // presumed-dead worker, re-executed reclaimed lease) is byte-equal
      // to the stored copy, so dropping it is a no-op, never corruption.
      ++stats_.duplicates_dropped;
      obs::metrics().counter("coord.duplicates_dropped").add();
    } else {
      DFI_SPAN("coord.merge_append");
      const auto append_start = std::chrono::steady_clock::now();
      try {
        store_.append(record);  // THE merge step, durable per record
      } catch (...) {
        throw StoreFailure{std::current_exception()};
      }
      obs::metrics()
          .histogram("coord.merge_append_seconds")
          .observe(std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - append_start)
                       .count());
      obs::metrics().counter("coord.records_stored").add();
      ++stats_.runs_completed;
    }
    ledger_.note_stored(record.run_index);
    return;
  }

  if (type == "lease_done") {
    const LeaseDoneMsg done = parse_lease_done(line);
    LeaseAckMsg ack;
    ack.lease_id = done.lease_id;
    ack.accepted =
        ledger_.lease_done(done.lease_id, conn.worker) == DoneVerdict::kAccepted;
    conn.leases.erase(done.lease_id);
    conn.msg.send_line(encode(ack));
    return;
  }

  conn.msg.send_line(encode(ErrorMsg{"unknown message type " + type}));
  conn.defunct = true;
}

void Coordinator::update_fleet_gauges(double) {
  obs::MetricsRegistry& registry = obs::metrics();
  registry.gauge("fleet.planned_runs")
      .set(static_cast<double>(manifest_.planned_runs));
  registry.gauge("fleet.completed_runs")
      .set(static_cast<double>(store_.completed().size()));
  registry.gauge("fleet.pending_runs")
      .set(static_cast<double>(ledger_.pending_count()));
  registry.gauge("fleet.active_leases")
      .set(static_cast<double>(ledger_.active_lease_count()));
  registry.gauge("fleet.workers")
      .set(static_cast<double>(worker_threads_.size()));
  registry.gauge("fleet.leases_granted")
      .set(static_cast<double>(ledger_.leases_granted()));
  registry.gauge("fleet.leases_expired")
      .set(static_cast<double>(ledger_.leases_expired()));
  registry.gauge("fleet.leases_stolen")
      .set(static_cast<double>(ledger_.leases_stolen()));
  registry.gauge("fleet.resumed_runs")
      .set(static_cast<double>(completed_at_start_));
}

void Coordinator::maybe_write_metrics(double now, bool force) {
  if (!metrics_stream_) return;
  if (!force && last_metrics_ >= 0.0 &&
      now - last_metrics_ < config_.metrics_interval_seconds)
    return;
  last_metrics_ = now;
  *metrics_stream_ << "{\"type\":\"metrics\",\"seq\":" << metrics_seq_++
                   << ",\"elapsed_seconds\":"
                   << util::shortest_double(started_ > 0.0 ? now - started_
                                                           : 0.0);
  for (const auto& [key, value] : obs::metrics().snapshot_fields())
    *metrics_stream_ << ",\"" << core::json_escape(key) << "\":" << value;
  *metrics_stream_ << "}\n";
  metrics_stream_->flush();
}

std::string Coordinator::build_status_reply(double now) const {
  StatusReplyMsg reply;
  reply.planned_runs = manifest_.planned_runs;
  reply.completed_runs = store_.completed().size();
  reply.elapsed_seconds = started_ > 0.0 ? now - started_ : 0.0;
  reply.workers = worker_threads_.size();

  std::ostringstream table;
  bool first = true;
  for (const auto& [worker, threads] : worker_threads_) {
    std::size_t active = 0;
    std::size_t leased = 0;
    std::size_t done = 0;
    double last_heartbeat = -1.0;
    for (const auto& [id, lease] : ledger_.active_leases()) {
      if (lease.worker != worker) continue;
      ++active;
      leased += lease.run_indices.size();
      done += lease.reported_done;
      last_heartbeat = std::max(last_heartbeat, lease.last_heartbeat);
    }
    if (!first) table << '\n';
    first = false;
    table << "{\"worker\":\"" << core::json_escape(worker)
          << "\",\"threads\":" << threads << ",\"active_leases\":" << active
          << ",\"leased_runs\":" << leased << ",\"reported_done\":" << done
          << ",\"heartbeat_age_seconds\":"
          << util::shortest_double(last_heartbeat >= 0.0
                                       ? now - last_heartbeat
                                       : -1.0)
          << "}";
  }
  reply.worker_table = table.str();
  reply.metrics = obs::metrics().snapshot_jsonl("metrics");
  return encode(reply);
}

void Coordinator::maybe_print_progress(double now, bool force) {
  if (!config_.print_progress) return;
  if (!force && last_progress_ >= 0.0 && now - last_progress_ < 1.0) return;
  last_progress_ = now;

  // Sourced from the fleet.* gauges, not the store directly: the line on
  // screen is provably the same data a status_reply or metrics snapshot
  // taken this tick would carry (update_fleet_gauges runs first).
  const auto completed = static_cast<std::size_t>(
      obs::metrics().gauge("fleet.completed_runs").value());
  const double elapsed = now - started_;
  const double rate =
      elapsed > 0.0
          ? static_cast<double>(completed - completed_at_start_) / elapsed
          : 0.0;
  const double eta =
      completed >= manifest_.planned_runs
          ? 0.0
          : (rate > 0.0 ? static_cast<double>(manifest_.planned_runs -
                                              completed) /
                              rate
                        : -1.0);

  // Per-worker lag: active lease sizes tell us who is holding the tail.
  std::ostringstream workers;
  for (const auto& [id, lease] : ledger_.active_leases())
    workers << "  " << lease.worker << ":" << lease.reported_done << "/"
            << lease.run_indices.size() + lease.reported_done;
  std::fprintf(stderr, "\rfleet: %s%s   ",
               core::format_progress(completed, manifest_.planned_runs, rate,
                                     eta)
                   .c_str(),
               workers.str().c_str());
  std::fflush(stderr);
}

}  // namespace drivefi::coord
