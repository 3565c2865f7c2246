/// \file
/// The Bayesian fault-selection engine (the paper's core contribution,
/// eq. (1)): sweep the fault catalog, and for each candidate compute
/// delta-hat_do(f) by counterfactual BN inference; keep the faults where a
/// safe scene (delta > 0) is predicted to become unsafe (delta-hat <= 0).
/// This replaces full-simulation replay of each fault with one (fast) BN
/// inference, which is the source of the paper's ~3690x acceleration.
///
/// The sweep is a first-class parallel campaign: select_critical_faults
/// splits the catalog into chunks of whole frames over a ParallelExecutor,
/// generates each chunk's candidates inside its worker, and merges chunk
/// results in chunk order, so the SelectionResult -- critical list,
/// counters, everything except wall_seconds -- is bit-identical at any
/// thread count (enforced by tests/determinism_test.cpp), exactly like the
/// Experiment campaigns.
#pragma once

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
  /// BN inferences made: one per distinct (scenario, scene, BN variable,
  /// value) among the evaluated candidates. Targets that map to the same
  /// BN variable share a prediction, so this is below candidates_evaluated.
  std::size_t inference_calls = 0;

  std::size_t candidates_skipped() const {
    return skipped_unmapped + skipped_no_window + skipped_no_lead +
           skipped_golden_unsafe;
  }
};

/// Options for the parallel catalog sweep.
struct SelectionOptions {
  ExecutorConfig executor;  // thread pool; 0 = all hardware threads
  std::size_t chunk = 256;  // candidates per work unit, extended to the
                            // end of the chunk's last frame
};

/// F_crit's order: most negative min(delta_lon, delta_lat) first, ties in
/// catalog rank, which is a fault's position in `parts` read part by part.
/// Moves every fault out of `parts` once. One slice of the keys per
/// executor thread is sorted as its own task and the slices are merged;
/// the order is total (distinct ranks, no NaN delta, -0.0 ties +0.0), so
/// the result is the same at any thread count.
std::vector<SelectedFault> order_by_criticality(
    std::vector<std::vector<SelectedFault>>& parts,
    const ParallelExecutor& executor);

class BayesianFaultSelector {
 public:
  explicit BayesianFaultSelector(const SafetyPredictor& predictor)
      : predictor_(predictor) {}

  /// Evaluate every catalog candidate against the golden traces, sharded
  /// across the executor. A candidate is scored through its target row's
  /// BN variable; targets with none (raw GPS x, say) are skipped, as the
  /// paper restricts selection to the variables its BN models. Scenes
  /// where the golden run was already unsafe are excluded (the fault must
  /// CAUSE the violation). Deterministic: bit-identical result at any
  /// thread count.
  SelectionResult select_critical_faults(
      const FaultCatalog& catalog, const std::vector<GoldenTrace>& traces,
      const SelectionOptions& options = {}) const;

 private:
  const SafetyPredictor& predictor_;
};

}  // namespace drivefi::core
