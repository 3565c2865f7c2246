// drivefi_campaign: the unified campaign CLI -- one entry point for
// running, sharding, resuming, merging, and fleet-working fault-injection
// campaigns (`run --model bayesian` is the paper's whole golden -> fit ->
// select -> replay loop).
//
//   drivefi_campaign run [campaign options] [run options]
//     (campaign options: see campaign_cli.h / docs/FORMATS.md)
//     --shard i/N          run only indices {r : r % N == i} (default 0/1)
//     --store FILE         shard store path (default campaign.shard<i>.jsonl,
//                          or .bin with --store-format binary)
//     --store-format F     durable store container: jsonl (default) or
//                          binary (compact indexed frames; see
//                          docs/FORMATS.md "Binary record store"). Format
//                          is provenance, not compatibility: shards of
//                          either format merge bit-identically.
//     --resume             continue a crashed/partial store instead of
//                          starting over (refuses a mismatched manifest)
//     --overwrite          explicitly discard an existing store; without it
//                          (or --resume) a store already holding records is
//                          refused, never silently clobbered
//     --progress           live status line (runs/s, ETA) on stderr
//     --metrics-out FILE   periodic metrics snapshots (JSONL) while running
//     --metrics-interval S snapshot cadence in seconds (default 1)
//     --trace-out FILE     Chrome trace-event JSON (chrome://tracing,
//                          Perfetto) of the campaign's timing spans
//     Observability is inert: the canonical records, fingerprint, and
//     manifest are byte-identical with or without these flags
//     (tests/determinism_test.cpp enforces it). A final {"type":"telemetry"}
//     summary line is printed on stderr either way.
//
//   drivefi_campaign worker --connect HOST:PORT [campaign options]
//     --store FILE         local scratch store (default <name>.local.jsonl)
//     --store-format F     local scratch store container, jsonl | binary
//     --name NAME          worker display name (default worker-<pid>)
//     --reconnect-max-attempts N  consecutive failed (re)connects before
//                          the worker gives up (default 20)
//     --reconnect-base-delay S    first backoff delay; doubles per failure
//                          up to --reconnect-max-delay (defaults 0.1 / 2)
//     --trace-out FILE     Chrome trace-event JSON of the worker's spans
//                          (golden, trunk, replay, store.append), as `run`
//                          writes; inert like `run`'s
//     Joins a drivefi_campaignd fleet: the campaign options MUST match the
//     daemon's (the manifest hash in the hello is checked), the worker
//     pulls leases of run indices, executes them locally, and streams each
//     record back as it completes. Run as many workers as you have cores
//     or machines; kill any of them freely -- their leases are re-granted
//     and the merged campaign is byte-identical regardless. Transport loss
//     (including a coordinator kill -9) is transient: the worker spools to
//     its local store, reconnects with capped exponential backoff + seeded
//     jitter, and respools its records on re-hello (duplicates are no-ops
//     by determinism). Only an explicit protocol refusal is fatal.
//
//   drivefi_campaign merge --jsonl OUT.jsonl SHARD... [--store OUT --store-format F]
//     Validates the shard set (same campaign, no duplicates, complete
//     coverage), writes the canonical campaign JSONL -- byte-identical to
//     the single-process run -- and prints the outcome table. Shards may
//     be jsonl, binary, or a mixture (each file's own magic bytes decide);
//     --store re-exports the merged campaign as a single 0/1-shard store
//     in --store-format (e.g. to compact a JSONL shard set into one
//     indexed binary store for drivefi_query).
//
//   drivefi_campaign status --connect HOST:PORT [--json]
//     Asks a running drivefi_campaignd for its status (no campaign options
//     needed -- the probe is read-only) and renders campaign totals plus a
//     per-worker fleet table. --json prints the raw status_reply line
//     instead (docs/FORMATS.md "Status wire message").
//
// A complete sharded campaign across two machines is just:
//   machine A:  drivefi_campaign run --runs 100000 --shard 0/2 --store a.jsonl
//   machine B:  drivefi_campaign run --runs 100000 --shard 1/2 --store b.jsonl
//   anywhere:   drivefi_campaign merge --jsonl campaign.jsonl a.jsonl b.jsonl
// and a crash on either machine is recovered by re-running with --resume.
// The fleet equivalent (dynamic load balancing, no up-front sharding):
//   anywhere:   drivefi_campaignd --runs 100000 --listen 0.0.0.0:7070
//   each box:   drivefi_campaign worker --connect coord:7070 --runs 100000
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "campaign_cli.h"
#include "coord/protocol.h"
#include "coord/worker.h"
#include "core/jsonl.h"
#include "core/manifest.h"
#include "core/progress.h"
#include "core/report.h"
#include "core/result_store.h"
#include "net/socket.h"
#include "obs/metrics.h"
#include "obs/span.h"

using namespace drivefi;

namespace {

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s run [options] | %s worker --connect HOST:PORT "
               "[options] | %s merge --jsonl OUT SHARD... | %s status "
               "--connect HOST:PORT [--json]\n"
               "(see the header of examples/drivefi_campaign.cpp or\n"
               " docs/FORMATS.md for the full option list)\n",
               argv0, argv0, argv0, argv0);
  std::exit(2);
}

int cmd_run(int argc, char** argv) {
  campaign_cli::CampaignArgs args;
  std::string store_path;
  core::StoreFormat store_format = core::StoreFormat::kJsonl;
  std::string metrics_out, trace_out;
  double metrics_interval = 1.0;
  campaign_cli::Shard shard;
  bool resume = false;
  bool overwrite = false;
  bool progress = false;

  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: %s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (campaign_cli::parse_campaign_flag(args, arg, next)) continue;
    if (arg == "--store") store_path = next();
    else if (arg == "--store-format")
      store_format = core::parse_store_format(next());
    else if (arg == "--resume") resume = true;
    else if (arg == "--overwrite") overwrite = true;
    else if (arg == "--progress") progress = true;
    else if (arg == "--metrics-out") metrics_out = next();
    else if (arg == "--metrics-interval")
      metrics_interval = campaign_cli::parse_seconds(arg, next());
    else if (arg == "--trace-out") trace_out = next();
    else if (arg == "--shard") shard = campaign_cli::parse_shard(arg, next());
    else {
      std::fprintf(stderr, "error: unknown option %s\n", arg.c_str());
      return 2;
    }
  }

  if (resume && overwrite) {
    std::fprintf(stderr, "error: --resume and --overwrite are exclusive\n");
    return 2;
  }
  if (store_path.empty())
    store_path =
        "campaign.shard" + std::to_string(shard.index) +
        (store_format == core::StoreFormat::kBinary ? ".bin" : ".jsonl");
  // Pre-flight the clobber refusal BEFORE the golden precompute (and, for
  // --model bayesian, the fit + selection): a forgotten --resume should
  // fail in milliseconds, not after minutes of wasted campaign setup. The
  // store constructor re-checks authoritatively either way.
  if (!resume && !overwrite) {
    const std::size_t records = core::stored_record_count(store_path);
    if (records > 0) {
      std::fprintf(stderr,
                   "error: refusing to overwrite %s: it already holds %zu run "
                   "record(s); resume it (--resume), discard it explicitly "
                   "(--overwrite), or delete the file\n",
                   store_path.c_str(), records);
      return 1;
    }
  }

  // Tracing spans the whole campaign, golden precompute included -- that is
  // where most of the interesting wall time lives on short campaigns.
  if (!trace_out.empty()) obs::start_tracing(trace_out);

  campaign_cli::Campaign campaign(args, false);
  const core::Experiment& experiment = campaign.experiment();

  // -- manifest + durable shard store ---------------------------------------
  core::CampaignManifest manifest = campaign.manifest();
  manifest.shard_index = shard.index;
  manifest.shard_count = shard.count;

  const core::StoreOpenMode mode = resume ? core::StoreOpenMode::kResume
                                 : overwrite ? core::StoreOpenMode::kOverwrite
                                             : core::StoreOpenMode::kFresh;
  // A resume follows the format the store was actually written in -- the
  // file's own magic bytes outrank the flag, so a forgotten --store-format
  // can never strand durable records behind a format error.
  if (resume) store_format = core::detect_store_format(store_path, store_format);
  const std::unique_ptr<core::ShardStore> store_ptr =
      core::open_shard_store(store_path, manifest, store_format, mode);
  core::ShardStore& store = *store_ptr;
  const std::size_t already = store.completed().size();
  if (resume && already > 0)
    std::printf("resuming %s: %zu of this shard's runs already stored\n",
                store_path.c_str(), already);

  std::printf("shard %zu/%zu of %zu planned runs -> %s (%s)\n", shard.index,
              shard.count, manifest.planned_runs, store_path.c_str(),
              core::store_format_name(store_format));
  // Flushed, like drivefi_campaignd's `coordinator listening` line, so a
  // reader on a pipe or a file sees that replays can start.
  std::fflush(stdout);
  core::ProgressSink progress_sink(std::cerr);
  std::vector<core::ResultSink*> sinks;
  if (progress) sinks.push_back(&progress_sink);
  std::ofstream metrics_stream;
  std::unique_ptr<core::MetricsSnapshotSink> metrics_sink;
  if (!metrics_out.empty()) {
    metrics_stream.open(metrics_out, std::ios::binary | std::ios::trunc);
    if (!metrics_stream) {
      std::fprintf(stderr, "error: cannot open %s\n", metrics_out.c_str());
      return 1;
    }
    metrics_sink = std::make_unique<core::MetricsSnapshotSink>(
        metrics_stream, metrics_interval);
    sinks.push_back(metrics_sink.get());
  }
  const core::CampaignStats stats =
      experiment.run_shard(campaign.model(), store, sinks);
  if (!trace_out.empty()) obs::stop_tracing();
  std::fprintf(stderr, "%s\n",
               obs::telemetry_jsonl(stats.wall_seconds).c_str());
  core::outcome_table(stats).print("shard outcomes (this sitting)");
  std::printf("executed %zu runs in %.2f s; store now holds %zu records\n",
              stats.total(), stats.wall_seconds, store.completed().size());
  if (shard.count > 1)
    std::printf("merge when all shards are done:\n  drivefi_campaign merge "
                "--jsonl campaign.jsonl <shard files>\n");
  else
    std::printf("finalize: drivefi_campaign merge --jsonl campaign.jsonl %s\n",
                store_path.c_str());
  return 0;
}

int cmd_worker(int argc, char** argv) {
  campaign_cli::CampaignArgs args;
  coord::WorkerConfig config;
  std::string trace_out;
  bool have_connect = false;

  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: %s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (campaign_cli::parse_campaign_flag(args, arg, next)) continue;
    if (arg == "--connect") {
      campaign_cli::parse_host_port(arg, next(), &config.host, &config.port);
      have_connect = true;
    } else if (arg == "--store") config.store_path = next();
    else if (arg == "--store-format")
      config.store_format = core::parse_store_format(next());
    else if (arg == "--name") config.name = next();
    else if (arg == "--reconnect-max-attempts")
      config.reconnect_max_attempts =
          campaign_cli::parse_count<std::size_t>(arg, next());
    else if (arg == "--reconnect-base-delay")
      config.reconnect_base_delay = campaign_cli::parse_seconds(arg, next());
    else if (arg == "--reconnect-max-delay")
      config.reconnect_max_delay = campaign_cli::parse_seconds(arg, next());
    else if (arg == "--trace-out") trace_out = next();
    else {
      std::fprintf(stderr, "error: unknown option %s\n", arg.c_str());
      return 2;
    }
  }
  if (!have_connect) {
    std::fprintf(stderr, "error: worker needs --connect HOST:PORT\n");
    return 2;
  }
  config.threads = args.threads;

  // As in `run`, the trace starts before golden precompute.
  if (!trace_out.empty()) obs::start_tracing(trace_out);
  campaign_cli::Campaign campaign(args, false);
  coord::WorkerClient worker(campaign.experiment(), campaign.model(),
                             campaign.scenario_spec(), config);
  std::printf("worker %s: local store %s, connecting to %s:%u\n",
              worker.config().name.c_str(), worker.config().store_path.c_str(),
              worker.config().host.c_str(), worker.config().port);
  std::fflush(stdout);
  const coord::WorkerStats stats = worker.run();
  if (!trace_out.empty()) obs::stop_tracing();
  std::fprintf(stderr, "%s\n",
               obs::telemetry_jsonl(stats.wall_seconds).c_str());
  std::printf("worker done: %zu runs executed, %zu leases completed, %zu "
              "revoked, %zu reconnects, %zu records respooled, %.2f s%s\n",
              stats.runs_executed, stats.leases_completed,
              stats.leases_revoked, stats.reconnects, stats.records_respooled,
              stats.wall_seconds,
              stats.gave_up ? " (gave up reconnecting)" : "");
  return stats.gave_up ? 1 : 0;
}

int cmd_status(int argc, char** argv) {
  std::string host;
  std::uint16_t port = 0;
  bool have_connect = false;
  bool raw_json = false;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--connect") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: --connect needs a value\n");
        return 2;
      }
      campaign_cli::parse_host_port(arg, argv[++i], &host, &port);
      have_connect = true;
    } else if (arg == "--json") {
      raw_json = true;
    } else {
      std::fprintf(stderr, "error: unknown option %s\n", arg.c_str());
      return 2;
    }
  }
  if (!have_connect) {
    std::fprintf(stderr, "error: status needs --connect HOST:PORT\n");
    return 2;
  }

  net::MessageConnection conn(net::TcpSocket::connect(host, port, 5.0));
  conn.send_line(encode(coord::StatusRequestMsg{}));
  std::string line;
  if (conn.recv_line(&line, 5.0) != net::RecvStatus::kMessage) {
    std::fprintf(stderr, "error: no status reply from %s:%u\n", host.c_str(),
                 port);
    return 1;
  }
  if (coord::message_type(line) == "error") {
    std::fprintf(stderr, "error: coordinator: %s\n",
                 coord::parse_error(line).message.c_str());
    return 1;
  }
  if (raw_json) {
    std::printf("%s\n", line.c_str());
    return 0;
  }

  const coord::StatusReplyMsg reply = coord::parse_status_reply(line);
  const double percent =
      reply.planned_runs > 0
          ? 100.0 * static_cast<double>(reply.completed_runs) /
                static_cast<double>(reply.planned_runs)
          : 0.0;
  std::printf("campaign: %zu/%zu runs stored (%.1f%%), %zu worker(s), "
              "coordinator up %.1f s\n",
              reply.completed_runs, reply.planned_runs, percent,
              reply.workers, reply.elapsed_seconds);
  if (!reply.worker_table.empty()) {
    std::printf("%-20s %7s %7s %11s %9s %9s\n", "worker", "threads", "leases",
                "leased runs", "reported", "hb age");
    std::istringstream table(reply.worker_table);
    std::string row;
    while (std::getline(table, row)) {
      const core::JsonLine json(row);
      const double hb_age = json.get_double("heartbeat_age_seconds");
      char hb_text[32];
      if (hb_age < 0.0)
        std::snprintf(hb_text, sizeof(hb_text), "--");
      else
        std::snprintf(hb_text, sizeof(hb_text), "%.1f s", hb_age);
      std::printf("%-20s %7llu %7llu %11llu %9llu %9s\n",
                  json.get_string("worker").c_str(),
                  static_cast<unsigned long long>(json.get_u64("threads")),
                  static_cast<unsigned long long>(
                      json.get_u64("active_leases")),
                  static_cast<unsigned long long>(json.get_u64("leased_runs")),
                  static_cast<unsigned long long>(
                      json.get_u64("reported_done")),
                  hb_text);
    }
  }
  return 0;
}

int cmd_merge(int argc, char** argv) {
  const campaign_cli::MergeArgs args =
      campaign_cli::parse_merge_args({argv, argv + argc});
  if (args.shard_paths.empty()) {
    std::fprintf(stderr, "error: merge needs at least one shard file\n");
    return 2;
  }

  const core::MergedCampaign merged = core::merge_shards(args.shard_paths);
  std::printf("merged %zu shard file(s): model %s (%s), %zu runs\n",
              args.shard_paths.size(), merged.manifest.model.c_str(),
              merged.manifest.model_params.c_str(),
              merged.manifest.planned_runs);
  core::outcome_table(merged.stats).print("campaign outcomes");

  if (!args.jsonl_path.empty()) {
    std::ofstream out(args.jsonl_path, std::ios::binary);
    if (!out) {
      std::fprintf(stderr, "error: cannot open %s\n", args.jsonl_path.c_str());
      return 1;
    }
    core::write_merged_jsonl(merged, out);
    std::printf("wrote canonical campaign JSONL to %s\n",
                args.jsonl_path.c_str());
  }
  if (!args.store_path.empty()) {
    // Re-export the merged campaign as one 0/1-shard store (any format):
    // the compaction path from a JSONL shard set to an indexed binary
    // store, and vice versa.
    const std::unique_ptr<core::ShardStore> store = core::open_shard_store(
        args.store_path, merged.manifest, args.store_format,
        core::StoreOpenMode::kOverwrite);
    for (const core::InjectionRecord& record : merged.stats.records)
      store->append(record);
    std::printf("wrote merged %s store to %s\n",
                core::store_format_name(args.store_format),
                args.store_path.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage(argv[0]);
  const std::string command = argv[1];
  try {
    if (command == "run") return cmd_run(argc - 2, argv + 2);
    if (command == "worker") return cmd_worker(argc - 2, argv + 2);
    if (command == "merge") return cmd_merge(argc - 2, argv + 2);
    if (command == "status") return cmd_status(argc - 2, argv + 2);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 1;
  }
  usage(argv[0]);
}
