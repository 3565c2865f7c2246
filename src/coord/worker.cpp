#include "coord/worker.h"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <exception>
#include <stdexcept>
#include <thread>

#include "coord/protocol.h"
#include "core/experiment.h"
#include "core/fault_model.h"
#include "core/result_store.h"
#include "net/socket.h"
#include "obs/metrics.h"
#include "util/logging.h"
#include "util/rng.h"

namespace drivefi::coord {

namespace {

double steady_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Control-flow signals thrown out of the streaming sink to cancel the
/// executor mid-lease. None is an error.
struct LeaseRevoked : std::exception {
  const char* what() const noexcept override { return "lease revoked"; }
};
struct CampaignComplete : std::exception {
  const char* what() const noexcept override { return "campaign complete"; }
};
struct AbortRequested : std::exception {
  const char* what() const noexcept override { return "abort hook fired"; }
};

/// A transport-level failure the reconnect loop absorbs: socket death,
/// torn/garbage frames, protocol-exchange timeouts, unexpected EOF.
/// Distinct from the FATAL std::runtime_error of an explicit coordinator
/// refusal (`error` reply), which must propagate out of run().
struct Transient : std::runtime_error {
  using std::runtime_error::runtime_error;
};

std::uint64_t jitter_seed_from_name(const std::string& name) {
  // FNV-1a64, same construction the protocol uses for manifest hashes.
  std::uint64_t hash = 14695981039346656037ull;
  for (const char c : name) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ull;
  }
  return hash == 0 ? 1 : hash;
}

/// True when the coordinator's `complete` arrives within `seconds` (0:
/// among the messages the transport already holds); other messages are
/// stale acks and are skipped. A finished coordinator sends `complete` and
/// hangs up at once, so a worker must look for it before blaming the
/// transport: a send that fails because a thief finished this worker's
/// stolen tail, or a `wait` that would outlast the campaign, both end in
/// `complete`, and then there is nobody left to reconnect to.
bool receives_complete(net::Connection& conn, double seconds) {
  const double deadline = steady_seconds() + seconds;
  try {
    std::string line;
    for (;;) {
      const double left = std::max(0.0, deadline - steady_seconds());
      if (conn.recv_line(&line, left) != net::RecvStatus::kMessage)
        return false;
      if (message_type(line) == "complete") return true;
    }
  } catch (const net::SocketError&) {
  } catch (const net::FrameError&) {
  }
  return false;
}

/// Streams each record to the coordinator as it becomes locally durable
/// (run_indices appends to the local store BEFORE delivering to sinks),
/// heartbeats on a cadence, and watches the socket for revocation. On
/// transport loss it flips to OFFLINE SPOOLING: execution continues, every
/// record stays durable in the local store, and nothing touches the dead
/// socket -- the reconnect path respools the backlog afterwards.
class StreamingSink : public core::ResultSink {
 public:
  StreamingSink(net::Connection& conn, std::uint64_t lease_id,
                double heartbeat_interval, std::size_t abort_after,
                std::size_t* total_executed)
      : conn_(conn),
        lease_id_(lease_id),
        heartbeat_interval_(heartbeat_interval),
        abort_after_(abort_after),
        total_executed_(total_executed),
        last_heartbeat_(steady_seconds()) {}

  void consume(const core::InjectionRecord& record) override {
    ++done_;
    ++*total_executed_;
    if (connected_) {
      try {
        RecordMsg msg;
        msg.lease_id = lease_id_;
        msg.record_jsonl = core::run_record_jsonl(record);
        conn_.send_line(encode(msg));
        obs::metrics().counter("worker.records_streamed").add();

        const double now = steady_seconds();
        if (now - last_heartbeat_ >= heartbeat_interval_) {
          HeartbeatMsg hb;
          hb.lease_id = lease_id_;
          hb.done = done_;
          conn_.send_line(encode(hb));
          obs::metrics().counter("worker.heartbeats_sent").add();
          last_heartbeat_ = now;
        }
        drain_incoming();
      } catch (const net::SocketError& error) {
        if (receives_complete(conn_, 0.0)) throw CampaignComplete{};
        go_offline(error.what());
      } catch (const net::FrameError& error) {
        go_offline(error.what());
      }
    }
    // The abort hook fires whether or not the transport is alive -- it
    // simulates SIGKILL, which does not care.
    if (abort_after_ > 0 && *total_executed_ >= abort_after_)
      throw AbortRequested{};
  }

  std::size_t done() const { return done_; }
  bool connected() const { return connected_; }

 private:
  /// Handles whatever the coordinator has already sent without blocking:
  /// heartbeat acks (an explicitly invalidated lease aborts the
  /// remainder), completion, or an error verdict. A transport failure in
  /// here is caught by consume() and flips the sink offline -- satellite
  /// rule: one failed heartbeat exchange is transient, only an explicit
  /// lease_valid=false terminates the lease.
  void drain_incoming() {
    std::string line;
    while (conn_.recv_line(&line, 0.0) == net::RecvStatus::kMessage) {
      const std::string type = message_type(line);
      if (type == "heartbeat_ack") {
        if (!parse_heartbeat_ack(line).lease_valid) throw LeaseRevoked{};
      } else if (type == "complete") {
        throw CampaignComplete{};
      } else if (type == "error") {
        throw std::runtime_error("coordinator: " + parse_error(line).message);
      }
      // lease_ack for an earlier lease: stale, ignore.
    }
  }

  void go_offline(const std::string& reason) {
    connected_ = false;
    DFI_LOG_WARN << "worker: transport lost mid-lease (" << reason
                 << "); spooling to the local store";
  }

  net::Connection& conn_;
  std::uint64_t lease_id_;
  double heartbeat_interval_;
  std::size_t abort_after_;
  std::size_t* total_executed_;
  std::size_t done_ = 0;
  double last_heartbeat_;
  bool connected_ = true;
};

}  // namespace

WorkerClient::WorkerClient(const core::Experiment& experiment,
                           const core::FaultModel& model,
                           std::string scenario_spec, WorkerConfig config)
    : experiment_(experiment), model_(model), config_(std::move(config)) {
  if (config_.name.empty())
    config_.name = "worker-" + std::to_string(::getpid());
  if (config_.store_path.empty())
    config_.store_path =
        config_.name + (config_.store_format == core::StoreFormat::kBinary
                            ? ".local.bin"
                            : ".local.jsonl");
  if (config_.threads == 0)
    config_.threads = static_cast<unsigned>(
        core::resolve_thread_count(experiment.options().executor.threads));

  manifest_ = core::make_manifest(experiment, model, std::move(scenario_spec));
  store_ = core::open_shard_store(config_.store_path, manifest_,
                                 config_.store_format,
                                 core::StoreOpenMode::kOverwrite);
}

WorkerClient::~WorkerClient() = default;

WorkerStats WorkerClient::run() {
  WorkerStats stats;
  const double started = steady_seconds();
  util::Rng jitter(config_.reconnect_jitter_seed != 0
                       ? config_.reconnect_jitter_seed
                       : jitter_seed_from_name(config_.name));

  std::unique_ptr<net::Connection> conn;
  double heartbeat_interval = config_.heartbeat_interval > 0.0
                                  ? config_.heartbeat_interval
                                  : 1.0;  // overwritten by each welcome
  bool ever_connected = false;

  // Replays every locally durable record through the fresh connection.
  // Unconditional and idempotent: records the coordinator already holds
  // are byte-identical duplicates it drops as no-ops, so there is no
  // ack-tracking protocol to get wrong. Throws net::SocketError on a
  // transport that dies mid-respool (the caller's retry loop absorbs it).
  const auto respool = [&]() {
    const core::ShardContent local = core::read_shard(config_.store_path);
    for (const core::InjectionRecord& record : local.records) {
      RecordMsg msg;
      msg.lease_id = 0;  // lease ids do not survive reconnects; ignored
      msg.record_jsonl = core::run_record_jsonl(record);
      conn->send_line(encode(msg));
    }
    stats.records_respooled += local.records.size();
    obs::metrics()
        .counter("fleet.records_respooled")
        .add(local.records.size());
    if (!local.records.empty())
      DFI_LOG_WARN << "worker: respooled " << local.records.size()
                   << " local records after reconnect";
  };

  // One (re)connect + hello + welcome + respool round, with capped
  // exponential backoff and seeded jitter across attempts. Returns false
  // when reconnect_max_attempts consecutive attempts failed (the caller
  // gives up gracefully). FATAL refusals (`error` reply, wrong protocol)
  // throw std::runtime_error through to run()'s caller.
  const auto establish = [&]() -> bool {
    for (std::size_t attempt = 0;; ++attempt) {
      if (attempt >= config_.reconnect_max_attempts) return false;
      if (attempt > 0 || ever_connected) {
        const double capped =
            std::min(config_.reconnect_base_delay *
                         static_cast<double>(std::uint64_t{1}
                                             << std::min<std::size_t>(
                                                    attempt, 20)),
                     config_.reconnect_max_delay);
        const double delay = capped * (0.5 + jitter.uniform());
        obs::metrics().histogram("fleet.backoff_seconds").observe(delay);
        std::this_thread::sleep_for(std::chrono::duration<double>(delay));
      }
      try {
        net::TcpSocket socket = net::TcpSocket::connect(
            config_.host, config_.port, config_.io_timeout);
        conn = config_.decorate_connection
                   ? config_.decorate_connection(std::move(socket))
                   : std::make_unique<net::MessageConnection>(
                         std::move(socket));

        HelloMsg hello;
        hello.worker = config_.name;
        hello.manifest_hash = manifest_compat_hash(manifest_);
        hello.threads = config_.threads;
        conn->send_line(encode(hello));

        std::string line;
        const net::RecvStatus status =
            conn->recv_line(&line, config_.io_timeout);
        if (status != net::RecvStatus::kMessage)
          throw Transient("no handshake reply from coordinator");
        if (message_type(line) == "error")
          throw std::runtime_error("coordinator refused hello: " +
                                   parse_error(line).message);  // FATAL
        const WelcomeMsg welcome = parse_welcome(line);
        if (welcome.protocol != kProtocolVersion)
          throw std::runtime_error(
              "worker: coordinator speaks protocol " +
              std::to_string(welcome.protocol));  // FATAL
        if (config_.heartbeat_interval <= 0.0)
          heartbeat_interval = welcome.heartbeat_timeout / 3.0;

        if (ever_connected) {
          ++stats.reconnects;
          obs::metrics().counter("fleet.reconnects").add();
          DFI_LOG_WARN << "worker: reconnected to coordinator (attempt "
                       << attempt + 1 << ")";
          respool();
        }
        ever_connected = true;
        return true;
      } catch (const net::SocketError&) {
      } catch (const net::FrameError&) {
      } catch (const Transient&) {
      }
      // fall through: next attempt with doubled backoff
    }
  };

  const auto give_up = [&]() {
    stats.gave_up = true;
    DFI_LOG_WARN << "worker: giving up after "
                 << config_.reconnect_max_attempts
                 << " failed reconnect attempts";
    stats.wall_seconds = steady_seconds() - started;
    return stats;
  };

  if (!establish()) return give_up();

  for (;;) {
    // ---- ask for work ---------------------------------------------------
    std::string line;
    std::string type;
    try {
      conn->send_line(encode(LeaseRequestMsg{}));
      // Stragglers from an abandoned lease (heartbeat_ack, lease_ack) can
      // queue ahead of the reply; skim until the actual verdict arrives.
      for (;;) {
        const net::RecvStatus status =
            conn->recv_line(&line, config_.io_timeout);
        if (status == net::RecvStatus::kClosed)
          throw Transient("coordinator hung up during lease request");
        if (status != net::RecvStatus::kMessage)
          throw Transient("lease request timed out");
        type = message_type(line);
        if (type != "heartbeat_ack" && type != "lease_ack") break;
      }
    } catch (const net::SocketError&) {
      if (receives_complete(*conn, 0.0)) break;
      if (!establish()) return give_up();
      continue;
    } catch (const net::FrameError&) {
      if (!establish()) return give_up();
      continue;
    } catch (const Transient&) {
      if (!establish()) return give_up();
      continue;
    }

    if (type == "complete") break;
    if (type == "error")  // FATAL: an explicit verdict, not transport loss
      throw std::runtime_error("coordinator: " + parse_error(line).message);
    if (type == "wait") {
      // Wait on the socket, not the clock: if the campaign finishes
      // meanwhile, leave at `complete` instead of at the end of the wait.
      if (receives_complete(*conn, parse_wait(line).seconds)) break;
      continue;
    }
    if (type != "lease")
      throw std::runtime_error("worker: unexpected reply " + type);

    // ---- execute the lease ----------------------------------------------
    const LeaseMsg lease = parse_lease(line);
    StreamingSink sink(*conn, lease.lease_id, heartbeat_interval,
                       config_.abort_after_records, &stats.runs_executed);
    try {
      experiment_.run_indices(model_, lease.run_indices, store_.get(),
                              {&sink});
    } catch (const LeaseRevoked&) {
      ++stats.leases_revoked;
      obs::metrics().counter("worker.leases_revoked").add();
      continue;  // records already streamed were stored or safely dropped
    } catch (const CampaignComplete&) {
      break;
    } catch (const AbortRequested&) {
      // Simulated SIGKILL: vanish without goodbye. The coordinator learns
      // from the EOF (and, for a hung process, the heartbeat timeout).
      conn->close();
      stats.aborted = true;
      stats.wall_seconds = steady_seconds() - started;
      return stats;
    }

    if (!sink.connected()) {
      // The lease finished offline; it died with the connection, so there
      // is no lease_done to send. Reconnect (respooling the backlog) and
      // ask for fresh work.
      if (!establish()) return give_up();
      continue;
    }

    // ---- report completion ----------------------------------------------
    try {
      LeaseDoneMsg done;
      done.lease_id = lease.lease_id;
      conn->send_line(encode(done));
      // The ack may queue behind heartbeat acks for this lease; skim those.
      for (;;) {
        const net::RecvStatus ack_status =
            conn->recv_line(&line, config_.io_timeout);
        if (ack_status == net::RecvStatus::kClosed)
          throw Transient("coordinator hung up before lease_done ack");
        if (ack_status != net::RecvStatus::kMessage)
          throw Transient("lease_done ack timed out");
        const std::string ack_type = message_type(line);
        if (ack_type == "lease_ack") {
          if (parse_lease_ack(line).accepted) {
            ++stats.leases_completed;
            obs::metrics().counter("worker.leases_completed").add();
          }
          break;
        }
        if (ack_type == "complete") {
          type = "complete";  // campaign finished while we reported; fine
          break;
        }
        if (ack_type == "error")
          throw std::runtime_error("coordinator: " +
                                   parse_error(line).message);
        // heartbeat_ack: skim
      }
    } catch (const net::SocketError&) {
      if (receives_complete(*conn, 0.0)) break;
      if (!establish()) return give_up();
      continue;
    } catch (const net::FrameError&) {
      if (!establish()) return give_up();
      continue;
    } catch (const Transient&) {
      if (!establish()) return give_up();
      continue;
    }
    if (type == "complete") break;
  }

  stats.wall_seconds = steady_seconds() - started;
  return stats;
}

}  // namespace drivefi::coord
