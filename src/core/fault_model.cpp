#include "core/fault_model.h"

#include <sstream>

#include "core/experiment.h"
#include "core/result_sink.h"
#include "util/fnv.h"
#include "util/rng.h"

namespace drivefi::core {

BitFlipModel::BitFlipModel(std::size_t n, std::uint64_t seed, unsigned bits)
    : n_(n), seed_(seed), bits_(bits) {}

RunSpec BitFlipModel::spec(std::size_t run_index,
                           const Experiment& experiment) const {
  util::Rng rng(util::derive_run_seed(seed_, run_index));
  const auto& scenarios = experiment.scenarios();

  RunSpec spec;
  spec.kind = RunSpec::Kind::kBit;
  spec.run_index = run_index;
  spec.scenario_index = rng.uniform_index(scenarios.size());
  spec.target = rng.uniform_index(ads::kFaultTargets.size());
  spec.bits = bits_;
  // Instruction index uniform over a nominal run's retirement count:
  // roughly perception-dominated ~5M instructions per simulated second.
  const double duration = scenarios[spec.scenario_index].duration;
  spec.instruction_index =
      static_cast<std::uint64_t>(rng.uniform(0.0, duration * 5.0e6));
  spec.fault_seed = rng.next_u64();

  std::ostringstream desc;
  desc << scenarios[spec.scenario_index].name << " bitflip "
       << ads::kFaultTargets[spec.target].name << " @instr "
       << spec.instruction_index;
  spec.description = desc.str();
  return spec;
}

std::string BitFlipModel::params() const {
  std::ostringstream out;
  out << "n=" << n_ << " seed=" << seed_ << " bits=" << bits_;
  return out.str();
}

RandomValueModel::RandomValueModel(std::size_t n, std::uint64_t seed)
    : n_(n), seed_(seed) {}

std::string RandomValueModel::params() const {
  std::ostringstream out;
  out << "n=" << n_ << " seed=" << seed_;
  return out.str();
}

RunSpec RandomValueModel::spec(std::size_t run_index,
                               const Experiment& experiment) const {
  util::Rng rng(util::derive_run_seed(seed_, run_index));
  const auto& scenarios = experiment.scenarios();

  RunSpec spec;
  spec.kind = RunSpec::Kind::kValue;
  spec.run_index = run_index;
  // Random faults are TRANSIENT: held for one recompute period, the
  // paper's model of why the high-rate stack masks them ("transient
  // faults have little chance to propagate to actuators before a new
  // system state is recalculated", SS II-C).
  spec.hold_seconds = experiment.transient_hold_seconds();

  CandidateFault& fault = spec.fault;
  fault.scenario_index = rng.uniform_index(scenarios.size());
  fault.target = rng.uniform_index(ads::kFaultTargets.size());
  const ads::FaultTargetRow& target = ads::kFaultTargets[fault.target];
  const double duration = scenarios[fault.scenario_index].duration;
  fault.inject_time = rng.uniform(1.0, duration - 1.0);
  fault.scene_index = static_cast<std::size_t>(
      fault.inject_time * experiment.pipeline_config().scene_hz);
  fault.extreme = rng.bernoulli(0.5) ? Extreme::kMin : Extreme::kMax;
  fault.value =
      fault.extreme == Extreme::kMin ? target.min_value : target.max_value;
  return spec;
}

SelectedFaultModel::SelectedFaultModel(std::vector<SelectedFault> faults,
                                       double hold_seconds_override)
    : faults_(std::move(faults)),
      hold_seconds_override_(hold_seconds_override) {}

RunSpec SelectedFaultModel::spec(std::size_t run_index,
                                 const Experiment& experiment) const {
  RunSpec spec;
  spec.kind = RunSpec::Kind::kValue;
  spec.run_index = run_index;
  spec.fault = faults_.at(run_index).fault;
  // Selected faults replay with the stuck-at hold the predictor scored
  // (the Bayesian injector controls the fault, so it holds it).
  spec.hold_seconds = hold_seconds_override_ >= 0.0
                          ? hold_seconds_override_
                          : experiment.targeted_hold_seconds();
  return spec;
}

std::string SelectedFaultModel::params() const {
  std::ostringstream out;
  out << "faults=" << faults_.size() << " hold_override=";
  if (hold_seconds_override_ >= 0.0)
    out << hold_seconds_override_;
  else
    out << "none";
  return out.str();
}

BayesianFaultModel::BayesianFaultModel(const Experiment& experiment,
                                       BayesianCampaignConfig config) {
  // The fit runs on the selection's threads.
  const ParallelExecutor executor(config.selection.executor);
  predictor_ = std::make_shared<const SafetyPredictor>(
      experiment.goldens(), config.predictor, &executor);
  select(experiment, config);
}

BayesianFaultModel::BayesianFaultModel(
    const Experiment& experiment,
    std::shared_ptr<const SafetyPredictor> predictor,
    BayesianCampaignConfig config)
    : predictor_(std::move(predictor)) {
  select(experiment, config);
}

void BayesianFaultModel::select(const Experiment& experiment,
                                const BayesianCampaignConfig& config) {
  const BayesianFaultSelector selector(*predictor_);
  selection_ = selector.select_critical_faults(
      build_catalog(experiment.scenarios(),
                    experiment.pipeline_config().scene_hz),
      experiment.goldens(), config.selection);
  const std::size_t count =
      config.max_replays == 0
          ? selection_.critical.size()
          : std::min(config.max_replays, selection_.critical.size());
  replays_.assign(selection_.critical.begin(),
                  selection_.critical.begin() +
                      static_cast<std::ptrdiff_t>(count));
}

RunSpec BayesianFaultModel::spec(std::size_t run_index,
                                 const Experiment& experiment) const {
  (void)experiment;
  RunSpec spec;
  spec.kind = RunSpec::Kind::kValue;
  spec.run_index = run_index;
  spec.fault = replays_.at(run_index).fault;
  // F_crit replays validate exactly what the predictor scored: stuck-at
  // for the predictor's own horizon at its own scene rate -- derived from
  // the predictor, not the Experiment's default hold, so a non-default
  // unroll (slices != 4, or a --load-bn'd deeper model) still replays the
  // counterfactual it predicted.
  spec.hold_seconds = static_cast<double>(predictor_->horizon()) /
                      predictor_->config().scene_hz;
  return spec;
}

std::string BayesianFaultModel::params() const {
  // Shards of a Bayesian campaign must replay the SAME F_crit list, but a
  // --load-bn'd predictor (fitted elsewhere) can select differently on an
  // otherwise-identical manifest -- so pin the replay list itself by
  // content hash, not just its shape. The hash takes the target's name, not
  // its row: the row is the table's layout, the name what was corrupted.
  util::Fnv1a fnv;
  for (const SelectedFault& sf : replays_) {
    fnv.add(static_cast<std::uint64_t>(sf.fault.scenario_index));
    fnv.add(static_cast<std::uint64_t>(sf.fault.scene_index));
    fnv.add(ads::kFaultTargets[sf.fault.target].name);
    fnv.add(static_cast<std::uint64_t>(sf.fault.extreme));
    fnv.add(sf.fault.value);
    fnv.add(sf.fault.inject_time);
  }
  std::ostringstream out;
  out << "replays=" << replays_.size() << " replays_hash=" << fnv.hash()
      << " slices=" << predictor_->config().slices
      << " horizon=" << predictor_->horizon();
  return out.str();
}

void BayesianFaultModel::describe(ResultSink& sink) const {
  sink.selection(selection_);
}

}  // namespace drivefi::core
