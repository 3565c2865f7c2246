/// \file
/// Process-wide metrics registry: named atomic counters, gauges, and
/// fixed-bucket latency histograms, snapshot-able to one flat JSON object
/// at any time. This is the quantified-internals layer behind the fleet
/// `status` protocol message, `--metrics-out` periodic snapshots, and the
/// final `telemetry` record -- the measurement discipline the campaigns
/// apply to the AV stack, applied to the campaign machinery itself.
///
/// Inertness contract (enforced by tests/determinism_test.cpp): metrics are
/// pure observation. They never enter the canonical record stream, the
/// campaign manifest, or its compatibility key, and campaign fingerprints
/// are byte-identical whether or not anything reads them. Writers therefore
/// use relaxed atomics -- cheap enough to leave on unconditionally (the <2%
/// overhead gate lives in bench/bench_observability.cpp).
///
/// Snapshot consistency: registration and snapshotting serialize on one
/// registry mutex, so a snapshot always sees a stable metric SET and each
/// individual value is read atomically; writers never block, so values
/// written while the snapshot runs may or may not be included (skew is
/// bounded by the snapshot's own duration). A histogram's exported `count`
/// is derived from its bucket counts read in one pass, so `count` always
/// equals the bucket sum within a single snapshot.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace drivefi::obs {

/// Monotonic event count. Writers are lock-free and wait-free.
class Counter {
 public:
  void add(std::uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-writer-wins instantaneous value (fleet completed runs, queue
/// depths). Stored as the double's bit pattern so reads/writes are single
/// atomic ops without locks.
class Gauge {
 public:
  void set(double value);
  double value() const;
  void reset() { set(0.0); }

 private:
  std::atomic<std::uint64_t> bits_{0};  ///< bit pattern of 0.0
};

/// Fixed-bucket latency histogram over seconds. Bucket upper bounds are
/// exponential: 1e-6 * 4^i for i in [0, kBucketCount) (1 us .. ~67 s), plus
/// an overflow bucket; observation is a linear scan over 13 bounds and a
/// handful of relaxed atomic updates, cheap enough for per-call sites such
/// as procedure P. Writers update one of kShards cache-line-aligned shards,
/// picked per thread, so threads observing at once do not contend for one
/// cache line; a snapshot sums the shards (all integer nanoseconds and
/// counts, so the sum is exact).
class Histogram {
 public:
  static constexpr std::size_t kBucketCount = 13;
  static constexpr std::size_t kShards = 8;

  /// Upper bound (seconds) of bucket `i`; i == kBucketCount is +inf.
  static double bucket_bound(std::size_t i);

  void observe(double seconds);

  /// A coherent read of the whole histogram (see file comment for the
  /// consistency semantics).
  struct Snapshot {
    std::uint64_t count = 0;          ///< sum of all bucket counts
    double sum_seconds = 0.0;
    double min_seconds = 0.0;         ///< 0 when count == 0
    double max_seconds = 0.0;
    std::array<std::uint64_t, kBucketCount + 1> buckets{};
  };
  Snapshot snapshot() const;
  void reset();

 private:
  struct alignas(64) Shard {
    std::array<std::atomic<std::uint64_t>, kBucketCount + 1> buckets{};
    std::atomic<std::uint64_t> sum_nanos{0};
    std::atomic<std::uint64_t> min_nanos{~std::uint64_t{0}};
    std::atomic<std::uint64_t> max_nanos{0};
  };
  std::array<Shard, kShards> shards_;
};

/// The process-wide registry. Metric objects are created on first use by
/// name and live for the process lifetime, so returned references may be
/// cached (including in function-local statics) by hot call sites.
class MetricsRegistry {
 public:
  /// The one shared registry.
  static MetricsRegistry& instance();

  /// Returns the named metric, creating it on first use. A name is unique
  /// ACROSS kinds -- asking for "x" as a counter after it was registered as
  /// a gauge throws std::logic_error, so a snapshot can never hold two
  /// meanings of one key.
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  /// Every current value as (key, rendered JSON number) pairs in sorted key
  /// order. Counters and gauges export under their own name; a histogram
  /// `h` expands to `h.count`, `h.sum_seconds`, `h.min_seconds`,
  /// `h.max_seconds`, and one `h.le_<bound>` cumulative-style bucket count
  /// per bound (`h.le_inf` for the overflow bucket).
  std::vector<std::pair<std::string, std::string>> snapshot_fields() const;

  /// One flat JSON object: {"type":"<record_type>", <snapshot fields>}.
  std::string snapshot_jsonl(const std::string& record_type) const;

  /// Zeroes every registered metric (benches and tests; the registry keeps
  /// accumulating across campaigns within a process otherwise).
  void reset();

 private:
  MetricsRegistry() = default;

  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/// Shorthand for MetricsRegistry::instance().
MetricsRegistry& metrics();

/// The final per-sitting summary record: the full metrics snapshot as
/// {"type":"telemetry","wall_seconds":<wall>, <snapshot fields>}. Emitted
/// on stderr by drivefi_campaign run / worker and drivefi_campaignd so a
/// sitting's internals survive in logs without touching canonical output.
std::string telemetry_jsonl(double wall_seconds);

}  // namespace drivefi::obs
