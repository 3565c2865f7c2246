/// \file
/// Result sinks: one uniform consumer shape for campaign output. The
/// Experiment engine aggregates CampaignStats itself and additionally
/// streams every InjectionRecord -- in run-index order, regardless of
/// thread count -- to any attached sinks, so reports, benches, and file
/// exports all consume the same records without re-running anything.
///
/// Error contract: the file-writing sink (JsonlSink) checks the stream
/// after every write and flush, and throws std::runtime_error on failure
/// (disk full, closed stream) instead of silently dropping records. The
/// executor's OrderedEmitter propagates a sink exception to the campaign
/// caller and cancels outstanding work.
#pragma once

#include <cstddef>
#include <ostream>
#include <string>

#include "core/campaign_stats.h"

namespace drivefi::core {

struct SelectionResult;  // core/selector.h; by-reference use only here

/// Immutable campaign header handed to sinks before the first record.
struct CampaignMeta {
  std::string model_name;     ///< FaultModel::name()
  std::size_t planned_runs = 0;  ///< runs this campaign will deliver
};

/// Interface every campaign consumer implements.
class ResultSink {
 public:
  virtual ~ResultSink() = default;

  /// Campaign header, before any record.
  virtual void begin(const CampaignMeta& meta) { (void)meta; }
  /// Per-campaign artifact hook: a selected-fault model (BayesianFaultModel)
  /// surfaces the Bayesian selection behind its replays here, between
  /// begin() and the first record. Default: ignore.
  virtual void selection(const SelectionResult& result) { (void)result; }
  /// Called once per run, in strictly increasing run_index order, never
  /// concurrently (the executor serializes delivery).
  virtual void consume(const InjectionRecord& record) = 0;
  /// Campaign trailer with the aggregate stats.
  virtual void finish(const CampaignStats& stats) { (void)stats; }
};

/// In-memory aggregation for callers that want CampaignStats from a sink
/// pipeline (the engine also returns stats directly).
class StatsSink : public ResultSink {
 public:
  void consume(const InjectionRecord& record) override { stats_.add(record); }
  void finish(const CampaignStats& stats) override {
    stats_.wall_seconds = stats.wall_seconds;
  }

  const CampaignStats& stats() const { return stats_; }

 private:
  CampaignStats stats_;
};

/// Streaming JSONL: one JSON object per record, plus a final summary line
/// with the aggregate outcome counts. Bayesian campaigns additionally emit
/// one `selection` record (F_crit size, distinct skip-reason counters,
/// inference accounting) between the campaign header and the first run.
/// Run records use the same serializer as the shard result store
/// (core/result_store.h), so merged shard output is byte-identical to this
/// stream. Throws std::runtime_error when a write or the final flush fails.
class JsonlSink : public ResultSink {
 public:
  explicit JsonlSink(std::ostream& out) : out_(out) {}

  void begin(const CampaignMeta& meta) override;
  void selection(const SelectionResult& result) override;
  void consume(const InjectionRecord& record) override;
  void finish(const CampaignStats& stats) override;

 private:
  std::ostream& out_;
};

}  // namespace drivefi::core
