/// \file
/// Pluggable fault-model strategies for the Experiment engine. Each of the
/// paper's three fault models -- (a) random architectural bit flips, (b)
/// random min/max value corruption, (c) Bayesian-selected faults -- is an
/// adapter producing uniform RunSpecs, so one execution loop (pick fault ->
/// replay against golden -> classify) serves all of them.
///
/// Determinism contract: spec(i) must depend only on (i, the model's own
/// construction parameters, the Experiment's immutable campaign context).
/// It must NOT keep mutable state across calls -- specs are generated
/// concurrently from worker threads in arbitrary order, and a campaign's
/// results must be bit-identical at any thread count. Randomized models
/// derive a per-run stream with util::derive_run_seed(seed, i).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/fault_catalog.h"
#include "core/selector.h"

namespace drivefi::core {

class Experiment;
class ResultSink;

/// One injected run, in the shape every fault model reduces to. Value
/// faults carry a CandidateFault plus a hold duration; bit-flip faults
/// carry a target row (its register), a dynamic-instruction trigger, and
/// the seed of the per-run stream that picks the flipped bit positions.
struct RunSpec {
  enum class Kind { kValue, kBit };

  Kind kind = Kind::kValue;
  std::size_t run_index = 0;
  std::string description;  // human-readable row for reports/sinks

  /// kValue: the candidate and how long the corruption is held (stuck-at).
  CandidateFault fault;
  double hold_seconds = 0.0;

  /// kBit: which register, how many bits, when, and the bit-position seed.
  std::size_t scenario_index = 0;
  std::size_t target = 0;  // row of ads::kFaultTargets
  unsigned bits = 1;
  std::uint64_t instruction_index = 0;
  std::uint64_t fault_seed = 0;
};

/// Strategy interface: a campaign is `run_count()` RunSpecs generated by
/// index. Implementations must be const and re-entrant (see file comment).
class FaultModel {
 public:
  virtual ~FaultModel() = default;

  virtual std::string name() const = 0;
  virtual std::size_t run_count() const = 0;
  virtual RunSpec spec(std::size_t run_index, const Experiment& experiment) const = 0;

  /// Canonical parameter string recorded in the campaign manifest
  /// (core/manifest.h), e.g. "n=60 seed=1234". Two model instances with the
  /// same name(), params(), and run_count() over the same scenario corpus
  /// must generate identical specs -- that is what lets a resumed or
  /// sharded campaign refuse mismatched configurations.
  virtual std::string params() const { return {}; }

  /// Per-campaign artifact hook: Experiment::run calls this once per sink
  /// (between begin() and the first record) so a model can surface what it
  /// is replaying -- e.g. the BayesianFaultModel emits its SelectionResult
  /// through ResultSink::selection. Default: nothing.
  virtual void describe(ResultSink& sink) const { (void)sink; }
};

/// Fault model (a): n uniform-random single/multi-bit flips in
/// architectural state, at a uniform dynamic-instruction index.
class BitFlipModel : public FaultModel {
 public:
  BitFlipModel(std::size_t n, std::uint64_t seed, unsigned bits = 1);

  std::string name() const override { return "random-bitflip"; }
  std::size_t run_count() const override { return n_; }
  RunSpec spec(std::size_t run_index, const Experiment& experiment) const override;
  std::string params() const override;

 private:
  std::size_t n_;
  std::uint64_t seed_;
  unsigned bits_;
};

/// Fault model (b), random baseline: n uniform-random (scenario, time,
/// target, min/max) value corruptions, held transiently for one control
/// period (the paper's model of why the high recompute rate masks them).
class RandomValueModel : public FaultModel {
 public:
  RandomValueModel(std::size_t n, std::uint64_t seed);

  std::string name() const override { return "random-value"; }
  std::size_t run_count() const override { return n_; }
  RunSpec spec(std::size_t run_index, const Experiment& experiment) const override;
  std::string params() const override;

 private:
  std::size_t n_;
  std::uint64_t seed_;
};

/// Fault model (c): replay the Bayesian-selected faults in full simulation
/// (the E2 validation step), each held for the predictor's horizon.
/// `hold_seconds_override` < 0 uses the Experiment's targeted hold.
class SelectedFaultModel : public FaultModel {
 public:
  explicit SelectedFaultModel(std::vector<SelectedFault> faults,
                              double hold_seconds_override = -1.0);

  std::string name() const override { return "bayesian-selected"; }
  std::size_t run_count() const override { return faults_.size(); }
  RunSpec spec(std::size_t run_index, const Experiment& experiment) const override;
  std::string params() const override;

  const std::vector<SelectedFault>& faults() const { return faults_; }

 private:
  std::vector<SelectedFault> faults_;
  double hold_seconds_override_;
};

/// Configuration for the end-to-end Bayesian campaign.
struct BayesianCampaignConfig {
  std::size_t max_replays = 0;      // 0 = replay every selected fault
  SafetyPredictorConfig predictor;  // k-TBN fit configuration
  SelectionOptions selection;       // parallel catalog-sweep options
};

/// Fault model (c) as a first-class campaign: the full DriveFI loop --
/// golden precompute (done by the Experiment), k-TBN fit, parallel Bayesian
/// selection over the fault catalog, then full-simulation replay of F_crit
/// -- packaged as one FaultModel, so `experiment.run(BayesianFaultModel(...))`
/// over any scenario corpus (built-in or a loaded `.scn` suite) is the
/// whole paper pipeline. The SelectionResult behind the replays streams to
/// sinks as a `selection` record via describe().
class BayesianFaultModel : public FaultModel {
 public:
  /// Fits the predictor on the experiment's goldens, on the selection's
  /// executor, then selects.
  explicit BayesianFaultModel(const Experiment& experiment,
                              BayesianCampaignConfig config = {});
  /// Reuses a pre-fitted predictor (e.g. core::load_predictor) -- no refit.
  BayesianFaultModel(const Experiment& experiment,
                     std::shared_ptr<const SafetyPredictor> predictor,
                     BayesianCampaignConfig config = {});

  std::string name() const override { return "bayesian-drivefi"; }
  std::size_t run_count() const override { return replays_.size(); }
  RunSpec spec(std::size_t run_index, const Experiment& experiment) const override;
  std::string params() const override;
  void describe(ResultSink& sink) const override;

  const SafetyPredictor& predictor() const { return *predictor_; }
  const SelectionResult& selection() const { return selection_; }
  const std::vector<SelectedFault>& replays() const { return replays_; }

 private:
  void select(const Experiment& experiment,
              const BayesianCampaignConfig& config);

  std::shared_ptr<const SafetyPredictor> predictor_;
  SelectionResult selection_;
  std::vector<SelectedFault> replays_;
};

}  // namespace drivefi::core
