// Adversarial + property coverage for EVERY on-disk format: the binary
// record codec (seeded round-trip property over arbitrary records --
// NaN payloads, signed zeros, extreme varints -- plus canonical-encoding
// enforcement), the binary store reader (seeded byte-storm: truncate,
// flip, or splice garbage at every offset; each mutant parses or throws,
// never UB -- the store-side sibling of net_test's FrameDecoder storm,
// run under ASan/UBSan in CI), and the JSONL side (run-record lines, the
// manifest parser, and the shared strict numeric parsers of core/jsonl.h)
// under the same seeded mutation treatment, plus the campaign CLIs'
// numeric flags, which validate through those parsers, and the manifest
// line a coordinator and a worker each build from the same flags.
#include <gtest/gtest.h>

#include <bit>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "../examples/campaign_cli.h"
#include "coord/protocol.h"
#include "core/binary_store.h"
#include "core/jsonl.h"
#include "core/manifest.h"
#include "core/record_codec.h"
#include "core/result_store.h"
#include "obs/metrics.h"
#include "util/bits.h"
#include "util/rng.h"

namespace drivefi::core {
namespace {

namespace fs = std::filesystem;

std::string temp_path(const std::string& name) {
  return (fs::path(::testing::TempDir()) / ("drivefi_fuzz_" + name)).string();
}

CampaignManifest make_manifest_for_test(std::size_t planned) {
  CampaignManifest m;
  m.model = "random-value";
  m.model_params = "n=" + std::to_string(planned) + " seed=2024";
  m.planned_runs = planned;
  m.scenario_spec = "test";
  m.scenario_hash = 0xfeedbeefULL;
  m.pipeline_seed = 11;
  m.hold_scenes = 2.0;
  return m;
}

// A record with arbitrary (but valid) field values drawn from `rng`,
// biased toward encoding edge cases: tiny and huge varints, empty and
// control-character descriptions, and doubles that are raw 64-bit
// patterns -- NaNs with payloads, infinities, signed zeros, denormals.
InjectionRecord arbitrary_record(util::Rng& rng) {
  InjectionRecord record;
  const auto varint_edge = [&]() -> std::uint64_t {
    switch (rng.uniform_index(6)) {
      case 0: return 0;
      case 1: return 0x7f;                       // 1-byte max
      case 2: return 0x80;                       // first 2-byte value
      case 3: return rng.next_u64() & 0xffff;
      case 4: return rng.next_u64();             // anything, up to 10 bytes
      default: return ~std::uint64_t{0};         // 64-bit max
    }
  };
  record.run_index = static_cast<std::size_t>(varint_edge());
  record.scenario_index = static_cast<std::size_t>(varint_edge());
  record.scene_index = static_cast<std::size_t>(varint_edge());
  record.outcome = static_cast<Outcome>(rng.uniform_index(4));
  const std::size_t desc_len = rng.uniform_index(40);
  for (std::size_t i = 0; i < desc_len; ++i)
    record.description.push_back(static_cast<char>(rng.next_u64() & 0xff));
  const auto double_edge = [&]() -> double {
    switch (rng.uniform_index(8)) {
      case 0: return 0.0;
      case 1: return -0.0;
      case 2: return std::numeric_limits<double>::quiet_NaN();
      case 3: return std::numeric_limits<double>::infinity();
      case 4: return -std::numeric_limits<double>::infinity();
      case 5: return std::numeric_limits<double>::denorm_min();
      case 6: return -std::numeric_limits<double>::max();
      default: return std::bit_cast<double>(rng.next_u64());  // any pattern
    }
  };
  record.min_delta_lon = double_edge();
  record.max_actuation_divergence = double_edge();
  return record;
}

TEST(FormatFuzz, RecordCodecRoundTripsArbitraryRecordsByteWise) {
  // The property pair that makes the binary store sound: decode inverts
  // encode field-bit-exactly, and encode inverts decode byte-exactly
  // (canonical encoding -- payload checksums would otherwise be weaker
  // than field checksums).
  for (std::uint64_t seed = 1; seed <= 120; ++seed) {
    util::Rng rng(seed);
    const InjectionRecord record = arbitrary_record(rng);
    const std::string payload = encode_record(record);
    const InjectionRecord back = decode_record(payload);
    EXPECT_EQ(record.run_index, back.run_index);
    EXPECT_EQ(record.description, back.description);
    EXPECT_EQ(record.scenario_index, back.scenario_index);
    EXPECT_EQ(record.scene_index, back.scene_index);
    EXPECT_EQ(record.outcome, back.outcome);
    EXPECT_TRUE(util::bits_equal(record.min_delta_lon, back.min_delta_lon))
        << "seed " << seed;
    EXPECT_TRUE(util::bits_equal(record.max_actuation_divergence,
                                 back.max_actuation_divergence))
        << "seed " << seed;
    EXPECT_EQ(encode_record(back), payload) << "non-canonical at seed " << seed;
  }
}

TEST(FormatFuzz, VarintRejectsEveryNonCanonicalSpelling) {
  // Truncation reports false without consuming; over-long and padded
  // encodings throw -- every value has exactly one accepted spelling.
  std::string max;
  put_varint(&max, ~std::uint64_t{0});
  EXPECT_EQ(max.size(), 10u);
  std::size_t pos = 0;
  std::uint64_t value = 0;
  EXPECT_TRUE(get_varint(max, &pos, &value));
  EXPECT_EQ(value, ~std::uint64_t{0});
  EXPECT_EQ(pos, 10u);

  for (std::size_t cut = 0; cut < max.size(); ++cut) {
    pos = 0;
    EXPECT_FALSE(get_varint(std::string_view(max).substr(0, cut), &pos, &value))
        << "cut " << cut;
    EXPECT_EQ(pos, 0u) << "truncation must not consume";
  }

  // Bit 64 overflow: final byte 0x02 would be bit 64.
  const std::string overflow = max.substr(0, 9) + '\x02';
  pos = 0;
  EXPECT_THROW(get_varint(overflow, &pos, &value), std::runtime_error);
  // Over-long: 10 continuation bytes.
  const std::string long11(10, '\x80');
  pos = 0;
  EXPECT_THROW(get_varint(long11, &pos, &value), std::runtime_error);
  // Padded zero: {0x80, 0x00} spells 0 in two bytes.
  const std::string padded = "\x80\x00";
  pos = 0;
  EXPECT_THROW(get_varint(std::string_view(padded.data(), 2), &pos, &value),
               std::runtime_error);
}

TEST(FormatFuzz, RecordCodecByteStormParsesOrThrowsNeverUB) {
  // Every single-byte flip, every truncation, and seeded garbage: each
  // mutant either decodes (to a record that re-encodes canonically) or
  // throws std::runtime_error. Nothing else -- ASan/UBSan watch in CI.
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    util::Rng rng(seed);
    const std::string payload = encode_record(arbitrary_record(rng));

    for (std::size_t cut = 0; cut < payload.size(); ++cut) {
      try {
        const InjectionRecord back =
            decode_record(std::string_view(payload).substr(0, cut));
        EXPECT_EQ(encode_record(back).size(), cut);
      } catch (const std::runtime_error&) {
      }
    }
    for (std::size_t i = 0; i < payload.size(); ++i) {
      std::string mutant = payload;
      mutant[i] = static_cast<char>(
          static_cast<std::uint8_t>(mutant[i]) ^
          static_cast<std::uint8_t>(1u << rng.uniform_index(8)));
      try {
        const InjectionRecord back = decode_record(mutant);
        EXPECT_EQ(encode_record(back), mutant) << "seed " << seed;
      } catch (const std::runtime_error&) {
      }
    }
    std::string garbage;
    const std::size_t len = rng.uniform_index(64);
    for (std::size_t i = 0; i < len; ++i)
      garbage.push_back(static_cast<char>(rng.next_u64() & 0xff));
    try {
      decode_record(garbage);
    } catch (const std::runtime_error&) {
    }
  }
}

// Builds one small sealed binary store and returns its raw bytes.
std::string sealed_store_bytes(const std::string& path) {
  const CampaignManifest manifest = make_manifest_for_test(4);
  {
    BinaryShardStore store(path, manifest, StoreOpenMode::kOverwrite);
    for (std::size_t r = 0; r < 4; ++r) {
      InjectionRecord record;
      record.run_index = r;
      record.description = "fuzz target #" + std::to_string(r);
      record.scenario_index = r % 2;
      record.scene_index = 3 + r;
      record.outcome = static_cast<Outcome>(r % 4);
      record.min_delta_lon = 1.25 * static_cast<double>(r) - 0.5;
      record.max_actuation_divergence = 0.001 * static_cast<double>(r);
      store.append(record);
    }
    store.finalize();
  }
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  return bytes;
}

TEST(FormatFuzz, BinaryStoreByteStormParsesOrRejectsNeverUB) {
  // The whole read surface under fire: for every byte offset, a truncation
  // AND a seeded bit flip; plus seeded garbage splices. Each mutant is
  // pushed through every consumer -- the reader, the generic shard reader,
  // the record counter, and a kResume open (on a scratch copy, since
  // resume may truncate). Every path either works or throws
  // std::runtime_error; no crash, no UB, no silent nonsense.
  const std::string base_path = temp_path("storm_base.bin");
  const std::string bytes = sealed_store_bytes(base_path);
  const CampaignManifest manifest = make_manifest_for_test(4);
  const std::string mutant_path = temp_path("storm_mutant.bin");

  const auto exercise = [&](const std::string& mutant) {
    {
      std::ofstream out(mutant_path, std::ios::binary | std::ios::trunc);
      out.write(mutant.data(), static_cast<std::streamsize>(mutant.size()));
    }
    try {
      BinaryStoreReader reader(mutant_path);
      InjectionRecord record;
      for (std::size_t r = 0; r < 4; ++r) reader.lookup(r, &record);
      reader.read_all();
    } catch (const std::runtime_error&) {
    }
    try {
      read_shard(mutant_path);
    } catch (const std::runtime_error&) {
    }
    try {
      stored_record_count(mutant_path);
    } catch (const std::runtime_error&) {
    }
    try {
      BinaryShardStore store(mutant_path, manifest, StoreOpenMode::kResume);
    } catch (const std::runtime_error&) {
    }
  };

  util::Rng rng(0xb10b);
  for (std::size_t cut = 0; cut <= bytes.size(); ++cut)
    exercise(bytes.substr(0, cut));
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    std::string mutant = bytes;
    mutant[i] = static_cast<char>(
        static_cast<std::uint8_t>(mutant[i]) ^
        static_cast<std::uint8_t>(1u << rng.uniform_index(8)));
    exercise(mutant);
  }
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    util::Rng storm(seed);
    std::string mutant = bytes;
    const std::size_t splice_at = storm.uniform_index(mutant.size());
    const std::size_t len = 1 + storm.uniform_index(24);
    std::string garbage;
    for (std::size_t i = 0; i < len; ++i)
      garbage.push_back(static_cast<char>(storm.next_u64() & 0xff));
    mutant.insert(splice_at, garbage);
    exercise(mutant);
  }
}

TEST(FormatFuzz, StrictNumericParsersShareOneDefinitionOfValid) {
  // The consolidated validators behind every JSON field consumer.
  EXPECT_EQ(parse_u64_strict("0", "t"), 0u);
  EXPECT_EQ(parse_u64_strict("18446744073709551615", "t"),
            ~std::uint64_t{0});
  for (const char* bad :
       {"", "-1", "+3", " 7", "7 ", "0x10", "12x", "1.5", "184467440737095516160",
        "99999999999999999999", "\"3\""}) {
    EXPECT_THROW(parse_u64_strict(bad, "t"), std::runtime_error)
        << "accepted \"" << bad << '"';
  }

  EXPECT_DOUBLE_EQ(parse_double_strict("-2.5e3", "t"), -2500.0);
  for (const char* bad : {"", "\"1.5\"", "1.5abc", "abc", "--1", "1,5"}) {
    EXPECT_THROW(parse_double_strict(bad, "t"), std::runtime_error)
        << "accepted \"" << bad << '"';
  }

  EXPECT_TRUE(parse_bool_strict("true", "t"));
  EXPECT_FALSE(parse_bool_strict("false", "t"));
  for (const char* bad : {"", "True", "FALSE", "1", "0", "truex"}) {
    EXPECT_THROW(parse_bool_strict(bad, "t"), std::runtime_error)
        << "accepted \"" << bad << '"';
  }
}

TEST(FormatFuzz, CampaignCountFlagsAcceptOnlyDigits) {
  // The campaign CLIs (examples/campaign_cli.h) parse every numeric flag
  // with parse_u64_strict: a typo, a sign, an empty value or an overflow
  // exits 2 naming the flag instead of silently becoming 0 (for
  // --checkpoint-stride: no golden checkpoints) or SIZE_MAX.
  campaign_cli::CampaignArgs args;
  const auto parse = [&](const std::string& flag, const char* value) {
    return campaign_cli::parse_campaign_flag(args, flag,
                                             [value] { return value; });
  };
  EXPECT_TRUE(parse("--checkpoint-stride", "0"));
  EXPECT_EQ(args.checkpoint_stride, 0u);
  EXPECT_TRUE(parse("--max-live-snapshots", "0"));
  EXPECT_EQ(args.max_live_snapshots, 0u);
  for (const char* flag : {"--checkpoint-stride", "--max-live-snapshots",
                           "--runs", "--seed", "--threads"}) {
    for (const char* bad : {"x", "-1", ""}) {
      EXPECT_EXIT(parse(flag, bad), ::testing::ExitedWithCode(2),
                  std::string(flag) + " wants a non-negative integer")
          << flag << " accepted \"" << bad << '"';
    }
  }
  EXPECT_EXIT(parse("--threads", "4294967296"), ::testing::ExitedWithCode(2),
              "--threads wants a non-negative integer up to 4294967295");
}

TEST(FormatFuzz, MergeRefusesUnknownOptions) {
  // merge takes every non-option argument as a shard path, so an unknown
  // option must exit 2 instead of becoming one: `--help` would fail to
  // open a store named "--help", and `--jsnol OUT` would merge OUT.
  using campaign_cli::parse_merge_args;
  for (const char* bad : {"--help", "--jsnol", "--store-fromat"}) {
    EXPECT_EXIT(parse_merge_args({"--jsonl", "out.jsonl", bad, "a.jsonl"}),
                ::testing::ExitedWithCode(2),
                std::string("error: unknown option ") + bad)
        << "accepted " << bad;
  }
  EXPECT_EXIT(parse_merge_args({"a.jsonl", "--jsonl"}),
              ::testing::ExitedWithCode(2), "--jsonl needs a value");

  const campaign_cli::MergeArgs merge =
      parse_merge_args({"--jsonl", "out.jsonl", "a.jsonl", "--store", "m.bin",
                        "--store-format", "binary", "b.bin"});
  EXPECT_EQ(merge.jsonl_path, "out.jsonl");
  EXPECT_EQ(merge.store_path, "m.bin");
  EXPECT_EQ(merge.store_format, core::StoreFormat::kBinary);
  EXPECT_EQ(merge.shard_paths, (std::vector<std::string>{"a.jsonl", "b.bin"}));
}

TEST(FormatFuzz, ShardPortAndSecondsFlagsRefuseTypos) {
  // --shard i/N, HOST:PORT (--listen, --connect) and the seconds flags
  // refuse typos, trailing bytes, out-of-range shards and ports, and
  // negative or non-finite seconds: each spelling below exits 2 naming
  // its flag, instead of running as shard 0/2 or on a wrapped port.
  using campaign_cli::parse_host_port;
  using campaign_cli::parse_seconds;
  using campaign_cli::parse_shard;
  for (const char* bad : {"x/2", "1/2x", "2/2", "1/0", "1", "/2", "1/"}) {
    EXPECT_EXIT(parse_shard("--shard", bad), ::testing::ExitedWithCode(2),
                "--shard")
        << "accepted --shard \"" << bad << '"';
  }
  const campaign_cli::Shard shard = parse_shard("--shard", "1/2");
  EXPECT_EQ(shard.index, 1u);
  EXPECT_EQ(shard.count, 2u);

  std::string host;
  std::uint16_t port = 1;
  for (const char* bad : {"h:70000", "h:abc", "h:", "h:-1", "h"}) {
    EXPECT_EXIT(parse_host_port("--listen", bad, &host, &port),
                ::testing::ExitedWithCode(2), "--listen")
        << "accepted --listen \"" << bad << '"';
  }
  parse_host_port("--connect", "h:7070", &host, &port);
  EXPECT_EQ(host, "h");
  EXPECT_EQ(port, 7070);
  parse_host_port("--listen", "127.0.0.1:0", &host, &port);
  EXPECT_EQ(host, "127.0.0.1");
  EXPECT_EQ(port, 0);  // ephemeral: perfbench and fleet_e2e.sh rely on it

  for (const char* bad : {"x", "", "-1", "1s", "inf", "nan"}) {
    EXPECT_EXIT(parse_seconds("--heartbeat-timeout", bad),
                ::testing::ExitedWithCode(2), "--heartbeat-timeout")
        << "accepted --heartbeat-timeout \"" << bad << '"';
  }
  EXPECT_EQ(parse_seconds("--metrics-interval", "0.2"), 0.2);
  EXPECT_EQ(parse_seconds("--reconnect-base-delay", "0"), 0.0);
}

TEST(FormatFuzz, UnknownModelExitsBeforeTheCorpusIsRead) {
  // All three campaign CLIs build their Campaign before they open a store
  // or bind a port, and the Campaign checks the model name first: with a
  // corpus that does not exist, a later check would fail on the missing
  // file instead.
  campaign_cli::CampaignArgs args;
  args.model_name = "nope";
  args.scn_path = temp_path("no_such_suite.scn");
  EXPECT_EXIT(campaign_cli::Campaign(args, false),
              ::testing::ExitedWithCode(2), "^error: unknown model nope\n$");
}

TEST(FormatFuzz, CoordinatorManifestEqualsTheWorkersByteForByte) {
  // The coordinator builds its manifest from the campaign's inputs and
  // runs no golden simulation for a random model; a worker builds it from
  // an Experiment. Any byte of difference is a hash mismatch at hello, so
  // every flag that reaches the manifest is checked both ways. Only the
  // Bayesian model simulates (one golden run per scenario), because its
  // manifest pins the replay list its selection picks from the goldens.
  const std::string scn =
      std::string(DRIVEFI_SOURCE_DIR) + "/examples/scenarios/base_suite.scn";
  const std::vector<std::vector<std::string>> variants = {
      {},
      {"--scenarios", "2"},
      {"--scn", scn, "--scenarios", "2"},
      {"--scenarios", "2", "--pipeline-seed", "9"},
      {"--scenarios", "2", "--checkpoint-stride", "0"},
      {"--scenarios", "2", "--checkpoint-stride", "16"},
  };
  const auto golden_runs = [] {
    return obs::metrics().counter("experiment.golden_runs").value();
  };
  for (const char* model : {"random-value", "random-bitflip", "bayesian"}) {
    for (const std::vector<std::string>& flags : variants) {
      std::vector<std::string> argv = {"--model", model, "--runs", "24"};
      argv.insert(argv.end(), flags.begin(), flags.end());
      std::string label;
      for (const std::string& arg : argv) label += arg + " ";
      campaign_cli::CampaignArgs args;
      for (std::size_t i = 0; i < argv.size(); i += 2) {
        const char* value = argv[i + 1].c_str();
        ASSERT_TRUE(campaign_cli::parse_campaign_flag(
            args, argv[i], [value] { return value; }))
            << label;
      }

      const std::uint64_t before = golden_runs();
      campaign_cli::Campaign campaign(args, /*quiet=*/true);
      const CampaignManifest coordinator = campaign.manifest();
      const std::size_t scenarios = flags.empty() ? 12 : 2;
      EXPECT_EQ(golden_runs() - before,
                std::string(model) == "bayesian" ? scenarios : 0u)
          << label;

      const CampaignManifest worker = make_manifest(
          campaign.experiment(), campaign.model(), campaign.scenario_spec());
      EXPECT_EQ(coordinator.to_jsonl(), worker.to_jsonl()) << label;
      EXPECT_EQ(coord::manifest_compat_hash(coordinator),
                coord::manifest_compat_hash(worker))
          << label;
    }
  }
}

TEST(FormatFuzz, RunRecordLineMutationsParseOrThrow) {
  // Seeded adversarial treatment of the JSONL record parser: mutate a
  // valid line byte-by-byte (flips, truncations, splices). Accept-or-throw
  // only; a mutant that parses must re-serialize to itself if it claims to
  // be canonical -- we settle for "parses without UB" plus spot checks,
  // because JSONL legitimately has non-canonical spellings (whitespace
  // variants are rejected by our strict reader anyway).
  InjectionRecord record;
  record.run_index = 12;
  record.description = "fuzz \"quoted\" \t target";
  record.scenario_index = 2;
  record.scene_index = 40;
  record.outcome = Outcome::kHazard;
  record.min_delta_lon = -3.0625;
  record.max_actuation_divergence = 0.125;
  const std::string line = run_record_jsonl(record);
  ASSERT_NO_THROW(parse_run_record(line));

  util::Rng rng(0x5eed);
  for (std::size_t cut = 0; cut < line.size(); ++cut) {
    try {
      parse_run_record(line.substr(0, cut));
    } catch (const std::runtime_error&) {
    }
  }
  for (std::size_t i = 0; i < line.size(); ++i) {
    std::string mutant = line;
    mutant[i] = static_cast<char>(
        static_cast<std::uint8_t>(mutant[i]) ^
        static_cast<std::uint8_t>(1u << rng.uniform_index(8)));
    try {
      parse_run_record(mutant);
    } catch (const std::runtime_error&) {
    }
  }
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    util::Rng storm(seed);
    std::string mutant = line;
    const std::size_t edits = 1 + storm.uniform_index(6);
    for (std::size_t e = 0; e < edits; ++e) {
      const std::size_t at = storm.uniform_index(mutant.size());
      mutant[at] = static_cast<char>(storm.next_u64() & 0xff);
    }
    try {
      parse_run_record(mutant);
    } catch (const std::runtime_error&) {
    }
  }

  // Field-level strictness the storm cannot guarantee to hit: negative and
  // trailing-garbage numerics ride the shared strict parsers.
  EXPECT_THROW(parse_run_record(
                   "{\"type\":\"run\",\"run_index\":-1,\"description\":\"d\","
                   "\"scenario_index\":0,\"scene_index\":0,\"outcome\":"
                   "\"masked\",\"min_delta_lon\":0,"
                   "\"max_actuation_divergence\":0}"),
               std::runtime_error);
  EXPECT_THROW(parse_run_record(
                   "{\"type\":\"run\",\"run_index\":3x,\"description\":\"d\","
                   "\"scenario_index\":0,\"scene_index\":0,\"outcome\":"
                   "\"masked\",\"min_delta_lon\":0,"
                   "\"max_actuation_divergence\":0}"),
               std::runtime_error);
}

TEST(FormatFuzz, ManifestLineMutationsParseOrThrow) {
  const std::string line = make_manifest_for_test(100).to_jsonl();
  ASSERT_NO_THROW(CampaignManifest::parse(line));

  util::Rng rng(0xfeed);
  for (std::size_t cut = 0; cut < line.size(); ++cut) {
    try {
      CampaignManifest::parse(line.substr(0, cut));
    } catch (const std::runtime_error&) {
    }
  }
  for (std::size_t i = 0; i < line.size(); ++i) {
    std::string mutant = line;
    mutant[i] = static_cast<char>(
        static_cast<std::uint8_t>(mutant[i]) ^
        static_cast<std::uint8_t>(1u << rng.uniform_index(8)));
    try {
      const CampaignManifest parsed = CampaignManifest::parse(mutant);
      // A mutant that still parses must at least round-trip through its
      // own serialization (the parser never invents unserializable state).
      CampaignManifest::parse(parsed.to_jsonl());
    } catch (const std::runtime_error&) {
    }
  }
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    util::Rng storm(seed);
    std::string mutant = line;
    const std::size_t edits = 1 + storm.uniform_index(8);
    for (std::size_t e = 0; e < edits; ++e)
      mutant[storm.uniform_index(mutant.size())] =
          static_cast<char>(storm.next_u64() & 0xff);
    try {
      CampaignManifest::parse(mutant);
    } catch (const std::runtime_error&) {
    }
  }
}

}  // namespace
}  // namespace drivefi::core
