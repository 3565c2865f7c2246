/// \file
/// The ADS-specific temporal Bayesian network (paper Fig. 6) and the
/// counterfactual safety predictor built on it. Topology is derived from
/// the ADS architecture (Fig. 1): within a slice, the world model W_t and
/// measurements M_t feed the planner U_{A,t}, which feeds the PID outputs
/// A_t; across slices the actuation and kinematics propagate (red arrows
/// in the paper's figure). Beyond the paper, the template distinguishes
/// the vehicle's TRUE kinematic state from the ADS's BELIEVED one (see
/// ads_dbn_template) so that do() on a corrupted belief propagates through
/// the control chain rather than teleporting the vehicle.
///
/// Inference runs on the compiled engine (bn/compiled.h) by default: the
/// joint and the per-variable conditioning plans are built once at
/// construction, so each predict() is a couple of small mat-vecs instead
/// of a full joint rebuild + solve. Set SafetyPredictorConfig.use_compiled
/// to false for the exact per-query path (the two agree to < 1e-9 on every
/// prediction; enforced by tests). Predict methods are const, lock-free,
/// and safe to call concurrently from campaign worker threads.
#pragma once

#include <atomic>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "ads/pipeline.h"
#include "bn/compiled.h"
#include "bn/dbn.h"
#include "core/trace.h"
#include "kinematics/bicycle.h"

namespace drivefi::core {

/// The DBN template over the ten scene variables.
bn::DbnTemplate ads_dbn_template();

struct SafetyPredictorConfig {
  /// k-TBN unroll. Slice 0 carries pre-fault evidence, slices 1..k-2 hold
  /// the fault, slice k-1 is the query; the prediction horizon (and the
  /// fault hold the campaign replays) is therefore k-2 slices. k = 3 is
  /// the paper's 3-TBN (one-slice hold); the default k = 4 matches the
  /// campaign runner's two-scene stuck-at hold.
  int slices = 4;
  double scene_hz = 7.5;    // slice spacing
  double amax = 6.0;        // emergency-stop deceleration
  double wheelbase = 2.8;
  double lane_half_width = 1.85;
  double ego_half_width = 0.95;
  /// Route queries through the compiled engine (cached joint + per-variable
  /// plans). false = exact per-query joint()+condition path; used for the
  /// compiled-vs-exact agreement tests and as a numerical reference.
  bool use_compiled = true;
};

/// Counterfactual prediction for one candidate fault at one scene.
struct DeltaPrediction {
  double delta_lon = 0.0;     // predicted safety potential under do(f)
  double delta_lat = 0.0;
  double predicted_v = 0.0;   // M-hat components (paper eq. (2))
  double predicted_y = 0.0;
  double predicted_theta = 0.0;
  bool critical() const { return delta_lon <= 0.0 || delta_lat <= 0.0; }
};

/// Why a prediction was not produced (reported through the optional out
/// parameter of the predict methods; feeds the selector's distinct
/// skipped-candidate counters).
enum class PredictSkip {
  kNone,      // a prediction was produced
  kNoWindow,  // injection scene has no full [k-1, k+horizon] window
  kNoLead,    // a window scene has no tracked lead object
};

class SafetyPredictor {
 public:
  /// Fits the k-TBN on golden traces.
  SafetyPredictor(const std::vector<GoldenTrace>& traces,
                  const SafetyPredictorConfig& config = {});
  /// Uses a pre-fitted network (ablation / reuse-without-refit entry point).
  SafetyPredictor(bn::LinearGaussianNetwork net,
                  const SafetyPredictorConfig& config);

  SafetyPredictor(SafetyPredictor&& other) noexcept;
  SafetyPredictor(const SafetyPredictor&) = delete;
  SafetyPredictor& operator=(const SafetyPredictor&) = delete;

  const bn::LinearGaussianNetwork& network() const { return net_; }
  const SafetyPredictorConfig& config() const { return config_; }

  /// Prediction horizon in scenes: how many slices the fault is held and
  /// how far ahead of the injection scene the query lands.
  int horizon() const { return config_.slices - 2; }

  /// Predict delta-hat_do(f) for a fault injected at scene k of a golden
  /// trace and held for horizon() scenes: evidence is scene k-1 (plus the
  /// unreachable part of scene k), the intervention do(variable = value)
  /// is asserted in every hold slice, and the query is M-hat at scene
  /// k + horizon(), combined with the kinematic stopping model and the
  /// ground-truth envelope there. Returns nullopt when the window is out
  /// of range or any window scene has no lead object; `skip` (optional)
  /// reports which of the two it was.
  std::optional<DeltaPrediction> predict(const GoldenTrace& trace,
                                         std::size_t scene_index,
                                         const std::string& variable,
                                         double value,
                                         PredictSkip* skip = nullptr) const;

  /// Fault-free one-step prediction (used by the E6 accuracy bench): same
  /// window, no intervention.
  std::optional<DeltaPrediction> predict_nominal(
      const GoldenTrace& trace, std::size_t scene_index,
      PredictSkip* skip = nullptr) const;

  /// Ablation: naive conditioning instead of do() -- observes the corrupted
  /// value rather than intervening (demonstrates why causal surgery
  /// matters; the E6 bench reports both).
  std::optional<DeltaPrediction> predict_observational(
      const GoldenTrace& trace, std::size_t scene_index,
      const std::string& variable, double value,
      PredictSkip* skip = nullptr) const;

  /// Number of BN inference calls made so far (for the E1 cost accounting).
  /// Atomic: predictions may run concurrently across campaign workers.
  std::size_t inference_count() const {
    return inference_count_.load(std::memory_order_relaxed);
  }

 private:
  /// Per-variable compiled plans: the (interventions, evidence, query)
  /// structure is fixed per faulted variable, so one causal and one
  /// observational plan per scene variable covers every query the selector
  /// can ask. Built eagerly at construction; read-only afterwards.
  struct VariablePlans {
    std::size_t var_index = 0;               // into scene_variable_names()
    const bn::CompiledQuery* causal = nullptr;
    const bn::CompiledQuery* observational = nullptr;
    std::vector<std::size_t> slice1_kept;    // evidence survivors at slice 1
  };

  void init_compiled();
  std::vector<std::string> query_nodes() const;

  std::optional<DeltaPrediction> predict_impl(
      const GoldenTrace& trace, std::size_t scene_index,
      const std::string& variable, std::optional<double> value,
      bool use_do, PredictSkip* skip) const;
  /// The two inference backends behind predict_impl; both return M-hat in
  /// query_nodes() order for an in-range, lead-valid window.
  std::vector<double> infer_compiled(const GoldenTrace& trace,
                                     std::size_t scene_index,
                                     const std::string& variable,
                                     std::optional<double> value,
                                     bool use_do) const;
  std::vector<double> infer_exact(const GoldenTrace& trace,
                                  std::size_t scene_index,
                                  const std::string& variable,
                                  std::optional<double> value,
                                  bool use_do) const;

  bn::LinearGaussianNetwork net_;
  SafetyPredictorConfig config_;
  std::unique_ptr<bn::CompiledNetwork> compiled_;
  const bn::CompiledQuery* nominal_plan_ = nullptr;
  std::unordered_map<std::string, VariablePlans> plans_;
  mutable std::atomic<std::size_t> inference_count_{0};
};

/// Persistence: a fitted predictor round-trips through the versioned
/// bn::serialize format, with the SafetyPredictorConfig carried as network
/// metadata -- fit once, select anywhere, no refit.
void save_predictor(const SafetyPredictor& predictor, const std::string& path);
SafetyPredictor load_predictor(const std::string& path);

}  // namespace drivefi::core
