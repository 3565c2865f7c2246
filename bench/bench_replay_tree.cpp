// Replay-engine bench: runs the E3 random campaign through the one replay
// engine at six settings of its two memory knobs (golden checkpoint
// stride, live trunk-snapshot budget), sweeps early/mid/late injection
// times, verifies every row byte-identical to full replay at several
// thread counts, and emits BENCH_replay_tree.json. Exits nonzero on any
// divergence or below a speedup floor, so CI can gate on it.
//
// Settings (stride, budget) and the numbers they produce -- deliberately
// labeled, because each answers a different question:
//
//   * full (0, 0): no golden checkpoints, no trunk snapshots, so every run
//     simulates its whole scenario. The oracle every other row must match
//     bit for bit. full_replay_speedup = full / defaults; gate >= 2.0x.
//
//   * flat@4 (4, 0) vs tree@4 (4, uncapped, the defaults): with no trunk
//     snapshots every tail restores its stride-aligned golden checkpoint
//     (the flat fork). At the dense default stride that already amortizes
//     nearly all shared-prefix work (a fork re-simulates at most stride-1
//     scenes), so the trunk's headroom is small: tree_vs_flat_stride4 is a
//     regression guard (>= 0.95x), not the headline.
//
//   * flat@sparse vs tree@sparse: one golden checkpoint per scenario, i.e.
//     equal checkpoint memory. The flat fork must re-simulate each tail's
//     whole prefix while the trunk materializes it once per group -- the
//     regime the trunk exists for. memory_matched_speedup gate >= floor.
//
//     Every gated engine runs on one thread and is timed in process CPU
//     time: a single wall-clock shot of a sub-second campaign reads host
//     jitter. On a shared host the CPU time of identical work still moves
//     by ~15% between shots, while the stride-4 ratio sits near 1.0, so a
//     ratio of two best-of-N times reads that drift. Instead each of
//     kShots shots runs the two engines of a gated pair back to back,
//     alternating which goes first, and the gate reads the median of the
//     per-shot ratios: the two sides of one shot share the host's state.
//
//   * tree@sparse with a 2-snapshot budget: the memory/speed trade-off.
//
//   ./bench_replay_tree [n_value_runs] [out.json] [speedup_floor]
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <limits>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "core/experiment.h"
#include "core/fault_model.h"
#include "core/jsonl.h"
#include "core/replay_plan.h"
#include "core/result_sink.h"
#include "obs/metrics.h"
#include "sim/scenario.h"

using namespace drivefi;

namespace {

// One checkpoint per scenario (scene 0 only): the sparse-memory regime.
constexpr std::size_t kSparseStride = 1'000'000;
constexpr std::size_t kUncapped = std::numeric_limits<std::size_t>::max();

core::Experiment make_engine(const std::vector<sim::Scenario>& suite,
                             std::size_t stride, std::size_t budget,
                             unsigned threads = 1) {
  ads::PipelineConfig config;
  config.seed = 101;  // matches bench_e3_random_fi
  core::ExperimentOptions options;
  options.checkpoint_stride = stride;
  options.max_live_snapshots = budget;
  options.executor.threads = threads;
  return core::Experiment(suite, config, {}, options);
}

// Value faults pinned to one fraction of each scenario's duration, cycling
// over targets: isolates how the fork point (early/mid/late injection)
// drives the savings.
class PinnedTimeModel : public core::FaultModel {
 public:
  PinnedTimeModel(std::size_t n, double fraction, const core::Experiment& e)
      : n_(n), fraction_(fraction),
        targets_(core::default_target_ranges()),
        scenario_count_(e.scenarios().size()) {}

  std::string name() const override { return "pinned-time"; }
  std::size_t run_count() const override { return n_; }
  core::RunSpec spec(std::size_t i,
                     const core::Experiment& e) const override {
    core::RunSpec spec;
    spec.kind = core::RunSpec::Kind::kValue;
    spec.run_index = i;
    spec.hold_seconds = e.transient_hold_seconds();
    core::CandidateFault& fault = spec.fault;
    fault.scenario_index = i % scenario_count_;
    const auto& target = targets_[(i / scenario_count_) % targets_.size()];
    fault.target = target.name;
    fault.extreme = i % 2 ? core::Extreme::kMin : core::Extreme::kMax;
    fault.value =
        fault.extreme == core::Extreme::kMin ? target.min_value : target.max_value;
    const double duration = e.scenarios()[fault.scenario_index].duration;
    fault.inject_time = fraction_ * duration;
    fault.scene_index = static_cast<std::size_t>(
        fault.inject_time * e.pipeline_config().scene_hz);
    return spec;
  }

 private:
  std::size_t n_;
  double fraction_;
  std::vector<core::TargetRange> targets_;
  std::size_t scenario_count_;
};

std::uint64_t counter(const char* name) {
  return obs::metrics().counter(name).value();
}

// CPU seconds this process has used, across all its threads.
double cpu_seconds() {
  std::timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

// Shots per gated ratio; odd, so the median is one shot's ratio.
constexpr int kShots = 15;

struct Measurement {
  double wall_seconds = 0.0;
  double cpu_seconds = 0.0;
  std::string fingerprint;
  std::string jsonl;
  std::uint64_t spliced = 0;

  bool same_records(const Measurement& other) const {
    return fingerprint == other.fingerprint && jsonl == other.jsonl;
  }
};

// Runs `models` in order through one engine, capturing campaign wall time,
// the stats fingerprints, scrubbed JSONL, and how many replays spliced.
Measurement measure(const core::Experiment& engine,
                    const std::vector<const core::FaultModel*>& models) {
  Measurement m;
  const std::uint64_t spliced_before = counter("experiment.replays_spliced");
  std::ostringstream out;
  core::JsonlSink sink(out);
  std::vector<core::ResultSink*> sinks = {&sink};
  for (const core::FaultModel* model : models) {
    const double cpu_before = cpu_seconds();
    const core::CampaignStats stats = engine.run(*model, sinks);
    m.cpu_seconds += cpu_seconds() - cpu_before;
    m.wall_seconds += stats.wall_seconds;
    m.fingerprint += core::campaign_fingerprint(stats);
  }
  m.jsonl = core::scrub_wall_seconds(out.str());
  m.spliced = counter("experiment.replays_spliced") - spliced_before;
  return m;
}

// kShots shots of each engine: the first shot's records, each shot's CPU
// time, and the best CPU and wall time of the shots.
struct Shots {
  Measurement first;
  std::vector<double> shot_cpu_seconds;
  double cpu_seconds = std::numeric_limits<double>::infinity();
  double wall_seconds = std::numeric_limits<double>::infinity();
  bool repeatable = true;  // every shot's records equal the first's
};

// Each shot runs the engines in order, reversed on odd shots, so engines
// adjacent in `engines` run back to back and alternate which goes first.
// A gated pair must be adjacent.
std::vector<Shots> alternate(
    const std::vector<const core::Experiment*>& engines,
    const std::vector<const core::FaultModel*>& models) {
  std::vector<Shots> out(engines.size());
  for (int shot = 0; shot < kShots; ++shot) {
    for (std::size_t k = 0; k < engines.size(); ++k) {
      const std::size_t i = shot % 2 == 0 ? k : engines.size() - 1 - k;
      Measurement m = measure(*engines[i], models);
      out[i].shot_cpu_seconds.push_back(m.cpu_seconds);
      out[i].cpu_seconds = std::min(out[i].cpu_seconds, m.cpu_seconds);
      out[i].wall_seconds = std::min(out[i].wall_seconds, m.wall_seconds);
      if (shot == 0)
        out[i].first = std::move(m);
      else
        out[i].repeatable &= m.same_records(out[i].first);
    }
  }
  return out;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// The per-shot CPU-time ratios num/den of two adjacent engines, and their
// median (the gated statistic).
struct ShotRatios {
  std::vector<double> shots;
  double median = 0.0;
};

ShotRatios shot_ratios(const Shots& num, const Shots& den) {
  ShotRatios r;
  for (int shot = 0; shot < kShots; ++shot)
    r.shots.push_back(
        ratio(num.shot_cpu_seconds[shot], den.shot_cpu_seconds[shot]));
  std::vector<double> sorted = r.shots;
  std::nth_element(sorted.begin(), sorted.begin() + kShots / 2, sorted.end());
  r.median = sorted[kShots / 2];
  return r;
}

std::string json_list(const std::vector<double>& values) {
  std::ostringstream out;
  out << "[";
  for (std::size_t i = 0; i < values.size(); ++i)
    out << (i ? ", " : "") << values[i];
  out << "]";
  return out.str();
}

std::size_t checkpoint_bytes(const core::Experiment& engine) {
  std::size_t total = 0;
  for (const auto& golden : engine.goldens())
    for (const auto& ck : golden.checkpoints) total += ck.approx_size_bytes();
  return total;
}

std::size_t snapshot_demand(const core::Experiment& engine,
                            const core::FaultModel& model) {
  std::vector<std::size_t> indices(model.run_count());
  std::iota(indices.begin(), indices.end(), std::size_t{0});
  return core::build_replay_plan(model, indices, engine).snapshot_demand;
}

const char* verdict(bool identical) {
  return identical ? "identical" : "DIVERGED";
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t n_value =
      argc > 1 ? static_cast<std::size_t>(std::atoi(argv[1])) : 120;
  const std::string out_path = argc > 2 ? argv[2] : "BENCH_replay_tree.json";
  const double floor = argc > 3 ? std::atof(argv[3]) : 2.0;
  const std::size_t n_bits = n_value / 2;

  const auto suite = sim::base_suite();
  const core::RandomValueModel values(n_value, 999);
  const core::BitFlipModel bitflips(n_bits, 555);
  const std::vector<const core::FaultModel*> e3 = {&values, &bitflips};
  std::printf("E3 random campaign: %zu value + %zu bit-flip runs over %zu "
              "scenarios\n",
              n_value, n_bits, suite.size());

  // --- Full replay (the oracle) and the dense regime (stride 4) ----------
  std::printf("full replay, flat fork and tree at stride 4, median of %d "
              "per-shot CPU-time ratios...\n",
              kShots);
  const core::Experiment full = make_engine(suite, 0, 0);
  const core::Experiment flat4 = make_engine(suite, 4, 0);
  const core::Experiment tree4 = make_engine(suite, 4, kUncapped);
  // The tree runs between the other two: both gated pairs are adjacent.
  const std::vector<Shots> dense = alternate({&full, &tree4, &flat4}, e3);
  const Shots& full_s = dense[0];
  const Shots& tree4_s = dense[1];
  const Shots& flat4_s = dense[2];
  const Measurement& full_m = full_s.first;
  bool identical = true;
  for (const Shots& s : dense)
    identical &= s.repeatable && s.first.same_records(full_m);
  const ShotRatios full_ratios = shot_ratios(full_s, tree4_s);
  const ShotRatios dense_ratios = shot_ratios(flat4_s, tree4_s);
  const double full_speedup = full_ratios.median;
  const double dense_speedup = dense_ratios.median;
  std::printf("  best CPU: full %.2fs  flat@4 %.2fs  tree@4 %.2fs  %s\n",
              full_s.cpu_seconds, flat4_s.cpu_seconds, tree4_s.cpu_seconds,
              verdict(identical));
  std::printf("  full replay vs defaults %.2fx (floor 2.0x), tree vs flat at "
              "stride 4 %.2fx (floor 0.95x)\n",
              full_speedup, dense_speedup);

  // Thread-count identity sweep against the oracle.
  for (const unsigned threads : {2u, 8u}) {
    const core::Experiment engine = make_engine(suite, 4, kUncapped, threads);
    const Measurement m = measure(engine, e3);
    identical &= m.same_records(full_m);
    std::printf("  tree@4 x%u threads: %.2fs  %s\n", threads, m.wall_seconds,
                verdict(m.same_records(full_m)));
  }

  // --- Memory-matched regime (one checkpoint per scenario) ----------------
  std::printf("sparse regime (one checkpoint/scenario): flat fork vs tree, "
              "median of %d...\n",
              kShots);
  const core::Experiment flat_sparse = make_engine(suite, kSparseStride, 0);
  const core::Experiment tree_sparse =
      make_engine(suite, kSparseStride, kUncapped);
  // Budget 0 keeps no trunk, so the trunk counters count the tree's shots.
  const std::uint64_t trunk_scenes_before =
      counter("replay_tree.trunk_scenes_simulated");
  const std::uint64_t reuse_before = counter("replay_tree.prefix_scenes_reused");
  const std::vector<Shots> sparse = alternate({&flat_sparse, &tree_sparse}, e3);
  const Shots& flat_sparse_s = sparse[0];
  const Shots& tree_sparse_s = sparse[1];
  const std::uint64_t trunk_scenes =
      (counter("replay_tree.trunk_scenes_simulated") - trunk_scenes_before) /
      kShots;
  const std::uint64_t prefix_reused =
      (counter("replay_tree.prefix_scenes_reused") - reuse_before) / kShots;
  const ShotRatios matched_ratios = shot_ratios(flat_sparse_s, tree_sparse_s);
  const double matched_speedup = matched_ratios.median;
  bool sparse_identical = true;
  for (const Shots& s : sparse)
    sparse_identical &= s.repeatable && s.first.same_records(full_m);
  identical &= sparse_identical;
  std::printf("  best CPU: flat@sparse %.2fs  tree@sparse %.2fs  speedup %.2fx "
              "(floor %.1fx)  %s\n",
              flat_sparse_s.cpu_seconds, tree_sparse_s.cpu_seconds,
              matched_speedup, floor, verdict(sparse_identical));
  std::printf("  trunk scenes simulated %llu, prefix scenes reused %llu\n",
              static_cast<unsigned long long>(trunk_scenes),
              static_cast<unsigned long long>(prefix_reused));

  // --- Memory/speed trade-off: capped live snapshots ----------------------
  const std::size_t cap = 2;
  const core::Experiment tree_capped = make_engine(suite, kSparseStride, cap);
  const std::uint64_t evictions_before =
      counter("replay_tree.snapshot_evictions");
  const std::uint64_t fallbacks_before = counter("replay_tree.fallback_tails");
  const Measurement capped_m = measure(tree_capped, e3);
  const std::uint64_t evictions =
      counter("replay_tree.snapshot_evictions") - evictions_before;
  const std::uint64_t fallbacks =
      counter("replay_tree.fallback_tails") - fallbacks_before;
  identical &= capped_m.same_records(full_m);
  std::printf("  tree@sparse cap=%zu: %.2fs  evictions %llu  fallback tails "
              "%llu  %s\n",
              cap, capped_m.wall_seconds,
              static_cast<unsigned long long>(evictions),
              static_cast<unsigned long long>(fallbacks),
              verdict(capped_m.same_records(full_m)));

  // --- Early/mid/late injection sweep: full replay vs the defaults --------
  struct SweepRow {
    double fraction;
    double speedup;
    std::uint64_t spliced;
    std::size_t runs;
  };
  std::vector<SweepRow> sweep;
  const std::size_t n_sweep = std::max<std::size_t>(n_value / 3, 12);
  for (const double fraction : {0.1, 0.5, 0.9}) {
    const PinnedTimeModel model(n_sweep, fraction, full);
    const Measurement full_row = measure(full, {&model});
    const Measurement tree_row = measure(tree4, {&model});
    identical &= tree_row.same_records(full_row);
    sweep.push_back({fraction,
                     tree_row.wall_seconds > 0.0
                         ? full_row.wall_seconds / tree_row.wall_seconds
                         : 0.0,
                     tree_row.spliced, n_sweep});
    std::printf("  inject @%2.0f%% of run: speedup %.2fx  spliced %llu/%zu  "
                "%s\n",
                fraction * 100.0, sweep.back().speedup,
                static_cast<unsigned long long>(tree_row.spliced), n_sweep,
                verdict(tree_row.same_records(full_row)));
  }

  // --- Memory accounting ---------------------------------------------------
  const std::size_t stride4_ck_bytes = checkpoint_bytes(tree4);
  const std::size_t sparse_ck_bytes = checkpoint_bytes(tree_sparse);
  const std::size_t demand = snapshot_demand(tree_sparse, values) +
                             snapshot_demand(tree_sparse, bitflips);
  const std::size_t snapshot_bytes =
      tree4.goldens().empty() || tree4.goldens()[0].checkpoints.empty()
          ? 0
          : tree4.goldens()[0].checkpoints[0].approx_size_bytes();
  std::printf("  checkpoint memory: stride-4 %.1f KiB, sparse %.1f KiB; "
              "uncapped tree demand %zu snapshots (~%.1f KiB)\n",
              stride4_ck_bytes / 1024.0, sparse_ck_bytes / 1024.0, demand,
              demand * snapshot_bytes / 1024.0);

  // --- JSON ---------------------------------------------------------------
  std::ofstream json(out_path);
  json << "{\n";
  json << "  \"bench\": \"replay_tree\",\n";
  json << "  \"runs\": " << (n_value + n_bits) << ",\n";
  json << "  \"settings\": {\n";
  const auto times = [](const Shots& s) {
    std::ostringstream out;
    out << "\"cpu_seconds\": " << s.cpu_seconds
        << ", \"wall_seconds\": " << s.wall_seconds
        << ", \"spliced\": " << s.first.spliced;
    return out.str();
  };
  json << "    \"full\": {\"checkpoint_stride\": 0, \"max_live_snapshots\": 0, "
       << times(full_s) << ", \"checkpoint_bytes\": " << checkpoint_bytes(full)
       << "},\n";
  json << "    \"flat_stride4\": {\"checkpoint_stride\": 4, "
          "\"max_live_snapshots\": 0, "
       << times(flat4_s) << ", \"checkpoint_bytes\": " << stride4_ck_bytes
       << "},\n";
  json << "    \"tree_stride4\": {\"checkpoint_stride\": 4, "
          "\"max_live_snapshots\": \"uncapped\", "
       << times(tree4_s) << ", \"checkpoint_bytes\": " << stride4_ck_bytes
       << "},\n";
  json << "    \"flat_sparse\": {\"checkpoint_stride\": " << kSparseStride
       << ", \"max_live_snapshots\": 0, " << times(flat_sparse_s)
       << ", \"checkpoint_bytes\": " << sparse_ck_bytes << "},\n";
  json << "    \"tree_sparse\": {\"checkpoint_stride\": " << kSparseStride
       << ", \"max_live_snapshots\": \"uncapped\", " << times(tree_sparse_s)
       << ", \"trunk_scenes_simulated\": " << trunk_scenes
       << ", \"prefix_scenes_reused\": " << prefix_reused
       << ", \"snapshot_demand\": " << demand
       << ", \"snapshot_demand_bytes\": " << demand * snapshot_bytes << "},\n";
  json << "    \"tree_sparse_capped\": {\"checkpoint_stride\": "
       << kSparseStride << ", \"max_live_snapshots\": " << cap
       << ", \"wall_seconds\": " << capped_m.wall_seconds
       << ", \"snapshot_evictions\": " << evictions
       << ", \"fallback_tails\": " << fallbacks << "}\n";
  json << "  },\n";
  json << "  \"by_inject_fraction\": [";
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    if (i) json << ", ";
    json << "{\"fraction\": " << sweep[i].fraction << ", \"speedup\": "
         << sweep[i].speedup << ", \"spliced\": " << sweep[i].spliced
         << ", \"runs\": " << sweep[i].runs << "}";
  }
  json << "],\n";
  json << "  \"full_replay_speedup\": " << full_speedup << ",\n";
  json << "  \"tree_vs_flat_stride4_speedup\": " << dense_speedup << ",\n";
  json << "  \"memory_matched_speedup\": " << matched_speedup << ",\n";
  json << "  \"shot_ratios\": {\"full_replay_speedup\": "
       << json_list(full_ratios.shots)
       << ", \"tree_vs_flat_stride4_speedup\": "
       << json_list(dense_ratios.shots)
       << ", \"memory_matched_speedup\": " << json_list(matched_ratios.shots)
       << "},\n";
  json << "  \"identical\": " << (identical ? "true" : "false") << ",\n";
  json << "  \"speedup_floor\": " << floor << ",\n";
  json << "  \"normalization\": \"The three speedups are medians over "
       << kShots
       << " shots of the per-shot ratio of process CPU seconds of two "
          "single-threaded engines that run back to back, alternating which "
          "goes first; shot_ratios lists every shot's ratio. A setting's "
          "cpu_seconds and wall_seconds are the best of the same shots and "
          "are not gated. full_replay_speedup compares full "
             "replay (stride 0, budget 0) with the defaults (stride 4, "
             "uncapped); gate >= 2.0x. tree_vs_flat_stride4_speedup compares "
             "budget 0 with uncapped at the default stride 4, where stride-4 "
             "checkpoints already amortize most prefix work and the trunk is "
             "only required not to regress (>= 0.95x). "
             "memory_matched_speedup compares the same two budgets at one "
             "golden checkpoint per scenario (equal checkpoint memory; budget "
             "0 re-simulates each tail's whole prefix); gate >= "
             "speedup_floor.\"\n";
  json << "}\n";
  std::printf("wrote %s\n", out_path.c_str());

  if (!identical) {
    std::fprintf(stderr, "FAIL: a replay-engine setting diverged from full "
                         "replay (results must be bit-identical)\n");
    return 1;
  }
  if (full_speedup < 2.0) {
    std::fprintf(stderr, "FAIL: the defaults are only %.2fx faster than full "
                         "replay (floor 2.0x)\n",
                 full_speedup);
    return 1;
  }
  if (dense_speedup < 0.95) {
    std::fprintf(stderr, "FAIL: trunk snapshots regressed the dense-checkpoint "
                         "campaign (%.2fx < 0.95x of budget 0 at stride 4)\n",
                 dense_speedup);
    return 1;
  }
  if (matched_speedup < floor) {
    std::fprintf(stderr, "FAIL: memory-matched speedup %.2fx below the %.1fx "
                         "floor\n",
                 matched_speedup, floor);
    return 1;
  }
  std::printf("OK: %.2fx vs full replay, %.2fx memory-matched, %.2fx at dense "
              "stride, every setting == full replay\n",
              full_speedup, matched_speedup, dense_speedup);
  return 0;
}
