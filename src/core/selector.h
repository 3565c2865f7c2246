/// \file
/// The Bayesian fault-selection engine (the paper's core contribution,
/// eq. (1)): sweep the fault catalog, and for each candidate compute
/// delta-hat_do(f) by counterfactual BN inference; keep the faults where a
/// safe scene (delta > 0) is predicted to become unsafe (delta-hat <= 0).
/// This replaces full-simulation replay of each fault with one (fast) BN
/// inference, which is the source of the paper's ~3690x acceleration.
///
/// The sweep is a first-class parallel campaign: select_critical_faults
/// shards the catalog into fixed-size chunks over a ParallelExecutor and
/// merges chunk results in chunk order, so the SelectionResult -- critical
/// list, counters, everything except wall_seconds -- is bit-identical at
/// any thread count (enforced by tests/determinism_test.cpp), exactly like
/// the Experiment campaigns.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/bayes_model.h"
#include "core/executor.h"
#include "core/fault_catalog.h"
#include "core/trace.h"

namespace drivefi::core {

struct SelectedFault {
  CandidateFault fault;
  DeltaPrediction prediction;
  double golden_delta_lon = 0.0;  // scene safety before the fault
  double golden_delta_lat = 0.0;
};

struct SelectionResult {
  std::vector<SelectedFault> critical;  // F_crit, most-negative delta first
  std::size_t candidates_total = 0;
  std::size_t candidates_evaluated = 0;
  /// Distinct skip reasons (one lumped counter before): why a candidate
  /// never reached BN inference.
  std::size_t skipped_unmapped = 0;       // target has no BN variable, or
                                          // indices beyond the corpus
  std::size_t skipped_no_window = 0;      // no full prediction window
  std::size_t skipped_no_lead = 0;        // a window scene has no lead
  std::size_t skipped_golden_unsafe = 0;  // scene unsafe without the fault
  double wall_seconds = 0.0;
  std::size_t inference_calls = 0;

  std::size_t candidates_skipped() const {
    return skipped_unmapped + skipped_no_window + skipped_no_lead +
           skipped_golden_unsafe;
  }
};

/// Options for the parallel catalog sweep.
struct SelectionOptions {
  ExecutorConfig executor;  // thread pool; 0 = all hardware threads
  std::size_t chunk = 256;  // candidates per work unit
};

/// Mapping from FaultRegistry target names to BN variables. Targets with no
/// BN counterpart (e.g. raw GPS x) are skipped by the selector, mirroring
/// the paper's restriction to the variables its BN models.
std::map<std::string, std::string> default_target_to_bn_variable();

/// Converts a catalog fault's corrupted value into the BN variable's unit
/// (identity except localization.y, which maps to lane offset).
double fault_value_to_bn_value(const CandidateFault& fault,
                               const std::string& bn_variable);

class BayesianFaultSelector {
 public:
  BayesianFaultSelector(
      const SafetyPredictor& predictor,
      std::map<std::string, std::string> target_map =
          default_target_to_bn_variable());

  /// Evaluate every catalog candidate against the golden traces, sharded
  /// across the executor. Scenes where the golden run was already unsafe
  /// are excluded (the fault must CAUSE the violation). Deterministic:
  /// bit-identical result at any thread count.
  SelectionResult select_critical_faults(
      const FaultCatalog& catalog, const std::vector<GoldenTrace>& traces,
      const SelectionOptions& options = {}) const;

 private:
  const SafetyPredictor& predictor_;
  std::map<std::string, std::string> target_map_;
};

}  // namespace drivefi::core
