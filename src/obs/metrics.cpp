#include "obs/metrics.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "util/number_format.h"

namespace drivefi::obs {

namespace {

/// Metric names are dotted ASCII identifiers by convention, but keys flow
/// into JSON, so escape defensively (quote, backslash, control chars). Kept
/// local: obs sits below core, so it cannot use core/jsonl.h.
std::string escape_key(const std::string& name) {
  std::string out;
  out.reserve(name.size());
  for (const char c : name) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out.push_back(c);
    }
  }
  return out;
}

std::uint64_t to_nanos(double seconds) {
  if (!(seconds > 0.0)) return 0;  // negative/NaN clamp to 0
  return static_cast<std::uint64_t>(std::llround(seconds * 1e9));
}

double to_seconds(std::uint64_t nanos) {
  return static_cast<double>(nanos) * 1e-9;
}

/// Relaxed atomic min/max via CAS loops (fetch_min is C++26).
void atomic_min(std::atomic<std::uint64_t>& target, std::uint64_t value) {
  std::uint64_t current = target.load(std::memory_order_relaxed);
  while (value < current &&
         !target.compare_exchange_weak(current, value,
                                       std::memory_order_relaxed)) {
  }
}

void atomic_max(std::atomic<std::uint64_t>& target, std::uint64_t value) {
  std::uint64_t current = target.load(std::memory_order_relaxed);
  while (value > current &&
         !target.compare_exchange_weak(current, value,
                                       std::memory_order_relaxed)) {
  }
}

}  // namespace

void Gauge::set(double value) {
  bits_.store(std::bit_cast<std::uint64_t>(value), std::memory_order_relaxed);
}

double Gauge::value() const {
  return std::bit_cast<double>(bits_.load(std::memory_order_relaxed));
}

double Histogram::bucket_bound(std::size_t i) {
  if (i >= kBucketCount) return std::numeric_limits<double>::infinity();
  double bound = 1e-6;
  for (std::size_t k = 0; k < i; ++k) bound *= 4.0;
  return bound;
}

void Histogram::observe(double seconds) {
  const std::uint64_t nanos = to_nanos(seconds);
  const double clamped = to_seconds(nanos);
  std::size_t bucket = kBucketCount;  // overflow unless a bound catches it
  double bound = 1e-6;
  for (std::size_t i = 0; i < kBucketCount; ++i, bound *= 4.0) {
    if (clamped <= bound) {
      bucket = i;
      break;
    }
  }
  // Threads take shards round-robin in the order they first observe.
  static std::atomic<std::size_t> next_shard{0};
  thread_local const std::size_t shard_index =
      next_shard.fetch_add(1, std::memory_order_relaxed) % kShards;
  Shard& shard = shards_[shard_index];
  shard.buckets[bucket].fetch_add(1, std::memory_order_relaxed);
  shard.sum_nanos.fetch_add(nanos, std::memory_order_relaxed);
  atomic_min(shard.min_nanos, nanos);
  atomic_max(shard.max_nanos, nanos);
}

Histogram::Snapshot Histogram::snapshot() const {
  Snapshot snap;
  std::uint64_t sum_nanos = 0;
  std::uint64_t min_nanos = ~std::uint64_t{0};
  std::uint64_t max_nanos = 0;
  for (const Shard& shard : shards_) {
    for (std::size_t i = 0; i <= kBucketCount; ++i) {
      const std::uint64_t n = shard.buckets[i].load(std::memory_order_relaxed);
      snap.buckets[i] += n;
      snap.count += n;
    }
    sum_nanos += shard.sum_nanos.load(std::memory_order_relaxed);
    min_nanos =
        std::min(min_nanos, shard.min_nanos.load(std::memory_order_relaxed));
    max_nanos =
        std::max(max_nanos, shard.max_nanos.load(std::memory_order_relaxed));
  }
  snap.sum_seconds = to_seconds(sum_nanos);
  snap.min_seconds =
      snap.count == 0 || min_nanos == ~std::uint64_t{0} ? 0.0
                                                        : to_seconds(min_nanos);
  snap.max_seconds = to_seconds(max_nanos);
  return snap;
}

void Histogram::reset() {
  for (Shard& shard : shards_) {
    for (auto& bucket : shard.buckets)
      bucket.store(0, std::memory_order_relaxed);
    shard.sum_nanos.store(0, std::memory_order_relaxed);
    shard.min_nanos.store(~std::uint64_t{0}, std::memory_order_relaxed);
    shard.max_nanos.store(0, std::memory_order_relaxed);
  }
}

MetricsRegistry& MetricsRegistry::instance() {
  static MetricsRegistry registry;
  return registry;
}

MetricsRegistry& metrics() { return MetricsRegistry::instance(); }

namespace {

[[noreturn]] void kind_collision(const std::string& name, const char* kind) {
  throw std::logic_error("metrics: \"" + name + "\" is already registered as" +
                         " a different kind (requested " + kind + ")");
}

}  // namespace

Counter& MetricsRegistry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (gauges_.count(name) || histograms_.count(name))
    kind_collision(name, "counter");
  auto& slot = counters_[name];
  if (!slot) slot = std::unique_ptr<Counter>(new Counter());
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (counters_.count(name) || histograms_.count(name))
    kind_collision(name, "gauge");
  auto& slot = gauges_[name];
  if (!slot) slot = std::unique_ptr<Gauge>(new Gauge());
  return *slot;
}

Histogram& MetricsRegistry::histogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (counters_.count(name) || gauges_.count(name))
    kind_collision(name, "histogram");
  auto& slot = histograms_[name];
  if (!slot) slot = std::unique_ptr<Histogram>(new Histogram());
  return *slot;
}

std::vector<std::pair<std::string, std::string>>
MetricsRegistry::snapshot_fields() const {
  std::lock_guard<std::mutex> lock(mutex_);
  // One sorted key space across kinds: merge the three sorted maps. Names
  // are unique across kinds (enforced at registration), and histogram
  // expansions sort under their base name's prefix.
  std::vector<std::pair<std::string, std::string>> fields;
  fields.reserve(counters_.size() + gauges_.size() + histograms_.size() * 18);
  for (const auto& [name, counter] : counters_)
    fields.emplace_back(name, std::to_string(counter->value()));
  for (const auto& [name, gauge] : gauges_)
    fields.emplace_back(name, util::shortest_double(gauge->value()));
  for (const auto& [name, histogram] : histograms_) {
    const Histogram::Snapshot snap = histogram->snapshot();
    fields.emplace_back(name + ".count", std::to_string(snap.count));
    fields.emplace_back(name + ".sum_seconds",
                        util::shortest_double(snap.sum_seconds));
    fields.emplace_back(name + ".min_seconds",
                        util::shortest_double(snap.min_seconds));
    fields.emplace_back(name + ".max_seconds",
                        util::shortest_double(snap.max_seconds));
    for (std::size_t i = 0; i <= Histogram::kBucketCount; ++i) {
      const std::string bound =
          i == Histogram::kBucketCount
              ? "inf"
              : util::shortest_double(Histogram::bucket_bound(i));
      fields.emplace_back(name + ".le_" + bound,
                          std::to_string(snap.buckets[i]));
    }
  }
  std::sort(fields.begin(), fields.end());
  return fields;
}

std::string MetricsRegistry::snapshot_jsonl(
    const std::string& record_type) const {
  std::ostringstream out;
  out << "{\"type\":\"" << escape_key(record_type) << "\"";
  for (const auto& [key, value] : snapshot_fields())
    out << ",\"" << escape_key(key) << "\":" << value;
  out << "}";
  return out.str();
}

void MetricsRegistry::reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [name, counter] : counters_) counter->reset();
  for (auto& [name, gauge] : gauges_) gauge->reset();
  for (auto& [name, histogram] : histograms_) histogram->reset();
}

std::string telemetry_jsonl(double wall_seconds) {
  std::ostringstream out;
  out << "{\"type\":\"telemetry\",\"wall_seconds\":"
      << util::shortest_double(wall_seconds);
  for (const auto& [key, value] : metrics().snapshot_fields())
    out << ",\"" << escape_key(key) << "\":" << value;
  out << "}";
  return out.str();
}

}  // namespace drivefi::obs
