#include "core/bayes_model.h"

#include <cmath>
#include <stdexcept>

#include "bn/serialize.h"
#include "kinematics/stopping.h"
#include "util/number_format.h"

namespace drivefi::core {

using bn::Assignment;
using bn::DbnTemplate;

bn::DbnTemplate ads_dbn_template() {
  DbnTemplate t;
  // Declaration order = intra-slice topological order. The template keeps
  // the vehicle's TRUE kinematic state (true_*, the paper's M_t as the
  // mechanical system reports it) distinct from the ADS's BELIEVED values
  // (v, y_off, theta -- localization outputs; lead_* -- the world model).
  // Measurements flow truth -> belief within a slice; control consumes
  // beliefs; physics advances truth across slices from the actuation.
  // This split is what makes interventions causally faithful: do(v = 45)
  // on the *belief* cannot teleport the car to 45 m/s -- it can only
  // endanger it through the actuation the corrupted belief provokes.
  t.add_variable("true_v");
  t.add_variable("true_y_off");
  t.add_variable("true_theta");
  t.add_variable("lead_gap");
  t.add_variable("lead_rel_speed");
  t.add_variable("v");
  t.add_variable("y_off");
  t.add_variable("theta");
  t.add_variable("u_accel");
  t.add_variable("u_steer");
  t.add_variable("throttle");
  t.add_variable("brake");
  t.add_variable("steer");

  // Intra-slice: measurement (truth -> belief).
  t.add_intra_edge("true_v", "v");
  t.add_intra_edge("true_y_off", "y_off");
  t.add_intra_edge("true_theta", "theta");

  // Intra-slice: ADS dataflow (W_t, M_t) -> U_{A,t} -> A_t, over beliefs.
  t.add_intra_edge("lead_gap", "u_accel");
  t.add_intra_edge("lead_rel_speed", "u_accel");
  t.add_intra_edge("v", "u_accel");
  t.add_intra_edge("y_off", "u_steer");
  t.add_intra_edge("theta", "u_steer");
  t.add_intra_edge("u_accel", "throttle");
  t.add_intra_edge("u_accel", "brake");
  t.add_intra_edge("u_steer", "steer");

  // Inter-slice physics (the paper's red arrows): actuation moves truth.
  t.add_inter_edge("true_v", "true_v");
  t.add_inter_edge("throttle", "true_v");
  t.add_inter_edge("brake", "true_v");
  t.add_inter_edge("true_y_off", "true_y_off");
  t.add_inter_edge("true_theta", "true_y_off");
  t.add_inter_edge("true_v", "true_y_off");
  t.add_inter_edge("steer", "true_y_off");
  t.add_inter_edge("true_theta", "true_theta");
  t.add_inter_edge("steer", "true_theta");

  // Inter-slice world model: the lead's relative state evolves with the
  // ego's actuation (braking opens the gap).
  t.add_inter_edge("lead_gap", "lead_gap");
  t.add_inter_edge("lead_rel_speed", "lead_gap");
  t.add_inter_edge("lead_rel_speed", "lead_rel_speed");
  t.add_inter_edge("throttle", "lead_rel_speed");
  t.add_inter_edge("brake", "lead_rel_speed");

  // Inter-slice belief memory (EKF smoothing) and PID smoothing.
  t.add_inter_edge("v", "v");
  t.add_inter_edge("theta", "theta");
  t.add_inter_edge("throttle", "throttle");
  t.add_inter_edge("brake", "brake");
  t.add_inter_edge("steer", "steer");
  return t;
}

SafetyPredictor::SafetyPredictor(const std::vector<GoldenTrace>& traces,
                                 const SafetyPredictorConfig& config)
    : config_(config) {
  const DbnTemplate tmpl = ads_dbn_template();
  // Build a sliding-window dataset directly from the per-trace scene logs
  // (windows must not straddle trace boundaries).
  bn::Dataset unrolled;
  for (int s = 0; s < config.slices; ++s)
    for (const auto& var : tmpl.variables())
      unrolled.columns.push_back(DbnTemplate::slice_name(var, s));

  for (const auto& trace : traces) {
    // Per-trace window extraction over lead-valid scenes.
    std::vector<const ads::SceneRecord*> valid;
    for (const auto& scene : trace.scenes)
      if (scene.lead_gap >= 0.0) valid.push_back(&scene);
    if (valid.size() < static_cast<std::size_t>(config.slices)) continue;
    for (std::size_t start = 0;
         start + static_cast<std::size_t>(config.slices) <= valid.size();
         ++start) {
      std::vector<double> row;
      row.reserve(unrolled.columns.size());
      for (int s = 0; s < config.slices; ++s) {
        const auto values = ads::scene_variable_values(
            *valid[start + static_cast<std::size_t>(s)]);
        row.insert(row.end(), values.begin(), values.end());
      }
      unrolled.add_row(std::move(row));
    }
  }
  net_ = bn::fit_network(tmpl.unrolled_specs(config.slices), unrolled);
  init_compiled();
}

SafetyPredictor::SafetyPredictor(bn::LinearGaussianNetwork net,
                                 const SafetyPredictorConfig& config)
    : net_(std::move(net)), config_(config) {
  init_compiled();
}

SafetyPredictor::SafetyPredictor(SafetyPredictor&& other) noexcept
    : net_(std::move(other.net_)),
      config_(other.config_),
      compiled_(std::move(other.compiled_)),
      nominal_plan_(other.nominal_plan_),
      plans_(std::move(other.plans_)),
      inference_count_(other.inference_count_.load()) {
  // Plans point into *compiled_ (heap-allocated), so they survive the move.
  other.nominal_plan_ = nullptr;
}

std::vector<std::string> SafetyPredictor::query_nodes() const {
  const int query_slice = config_.slices - 1;
  return {DbnTemplate::slice_name("true_v", query_slice),
          DbnTemplate::slice_name("true_y_off", query_slice),
          DbnTemplate::slice_name("true_theta", query_slice),
          DbnTemplate::slice_name("steer", query_slice)};
}

void SafetyPredictor::init_compiled() {
  if (!config_.use_compiled) return;
  compiled_ = std::make_unique<bn::CompiledNetwork>(net_);

  const auto& names = ads::scene_variable_names();
  const int slices = config_.slices;
  const std::vector<std::string> query = query_nodes();

  // Nominal plan: full golden evidence through slice S-2.
  std::vector<std::string> nominal_evidence;
  for (int s = 0; s <= slices - 2; ++s)
    for (const auto& n : names)
      nominal_evidence.push_back(DbnTemplate::slice_name(n, s));
  nominal_plan_ = &compiled_->prepare(nominal_evidence, query);

  for (std::size_t vi = 0; vi < names.size(); ++vi) {
    const std::string& var = names[vi];
    VariablePlans vp;
    vp.var_index = vi;

    // Causal plan: do(var) in every hold slice; slice-0 evidence in full,
    // slice-1 evidence only on nodes the intervention cannot reach (same
    // reachability rule as the exact path -- anything downstream of the
    // fault is inferred, not observed).
    std::vector<std::string> causal_evidence;
    for (const auto& n : names)
      causal_evidence.push_back(DbnTemplate::slice_name(n, 0));
    const bn::NodeId intervened_id = net_.id(DbnTemplate::slice_name(var, 1));
    for (std::size_t i = 0; i < names.size(); ++i) {
      const std::string node = DbnTemplate::slice_name(names[i], 1);
      const bn::NodeId nid = net_.id(node);
      if (nid == intervened_id || net_.dag().reaches(intervened_id, nid))
        continue;
      causal_evidence.push_back(node);
      vp.slice1_kept.push_back(i);
    }
    std::vector<std::string> interventions;
    for (int s = 1; s <= slices - 2; ++s)
      interventions.push_back(DbnTemplate::slice_name(var, s));
    vp.causal = &compiled_->prepare_do(interventions, causal_evidence, query);

    // Observational plan: the corrupted value is CONDITIONED on alongside
    // the full golden evidence of every hold slice.
    std::vector<std::string> obs_evidence;
    for (const auto& n : names)
      obs_evidence.push_back(DbnTemplate::slice_name(n, 0));
    for (int s = 1; s <= slices - 2; ++s) {
      for (const auto& n : names) {
        if (n == var) continue;
        obs_evidence.push_back(DbnTemplate::slice_name(n, s));
      }
      obs_evidence.push_back(DbnTemplate::slice_name(var, s));
    }
    vp.observational = &compiled_->prepare(obs_evidence, query);

    plans_.emplace(var, std::move(vp));
  }
}

std::vector<double> SafetyPredictor::infer_compiled(
    const GoldenTrace& trace, std::size_t scene_index,
    const std::string& variable, std::optional<double> value,
    bool use_do) const {
  const int slices = config_.slices;
  const ads::SceneRecord& prev = trace.scenes[scene_index - 1];
  std::vector<double> evidence = ads::scene_variable_values(prev);

  if (value.has_value() && use_do) {
    const VariablePlans& vp = plans_.at(variable);
    const auto inject_values =
        ads::scene_variable_values(trace.scenes[scene_index]);
    for (std::size_t i : vp.slice1_kept) evidence.push_back(inject_values[i]);
    const std::vector<double> interventions(
        static_cast<std::size_t>(slices - 2), *value);
    return vp.causal->mean(interventions, evidence);
  }

  if (value.has_value()) {
    const VariablePlans& vp = plans_.at(variable);
    for (int s = 1; s <= slices - 2; ++s) {
      const auto values = ads::scene_variable_values(
          trace.scenes[scene_index + static_cast<std::size_t>(s - 1)]);
      for (std::size_t i = 0; i < values.size(); ++i) {
        if (i == vp.var_index) continue;
        evidence.push_back(values[i]);
      }
      evidence.push_back(*value);
    }
    return vp.observational->mean(evidence);
  }

  for (int s = 1; s <= slices - 2; ++s) {
    const auto values = ads::scene_variable_values(
        trace.scenes[scene_index + static_cast<std::size_t>(s - 1)]);
    evidence.insert(evidence.end(), values.begin(), values.end());
  }
  return nominal_plan_->mean(evidence);
}

std::vector<double> SafetyPredictor::infer_exact(
    const GoldenTrace& trace, std::size_t scene_index,
    const std::string& variable, std::optional<double> value,
    bool use_do) const {
  const int slices = config_.slices;
  const ads::SceneRecord& prev = trace.scenes[scene_index - 1];
  const ads::SceneRecord& inject = trace.scenes[scene_index];
  const std::vector<std::string> query = query_nodes();

  const auto& names = ads::scene_variable_names();
  std::vector<Assignment> evidence;
  // Slice 0: full golden evidence.
  {
    const auto values = ads::scene_variable_values(prev);
    for (std::size_t i = 0; i < names.size(); ++i)
      evidence.push_back({DbnTemplate::slice_name(names[i], 0), values[i]});
  }

  if (value.has_value() && use_do) {
    // Slice 1: golden evidence for nodes the intervention cannot reach
    // (anything downstream of the fault is no longer observed).
    const std::string first_intervened = DbnTemplate::slice_name(variable, 1);
    const bn::NodeId intervened_id = net_.id(first_intervened);
    const auto values = ads::scene_variable_values(inject);
    for (std::size_t i = 0; i < names.size(); ++i) {
      const std::string node = DbnTemplate::slice_name(names[i], 1);
      const bn::NodeId nid = net_.id(node);
      if (nid == intervened_id || net_.dag().reaches(intervened_id, nid))
        continue;
      evidence.push_back({node, values[i]});
    }

    std::vector<Assignment> interventions;
    for (int s = 1; s <= slices - 2; ++s)
      interventions.push_back({DbnTemplate::slice_name(variable, s), *value});
    return net_.do_posterior_mean(interventions, evidence, query);
  }

  if (value.has_value()) {
    // Observational ablation (DESIGN.md ablation 3): the naive approach
    // conditions on the corrupted value together with the FULL golden
    // evidence of the injection window -- including the downstream nodes
    // whose golden values reflect the un-faulted world and therefore
    // pull the posterior back toward "nothing happened".
    for (int s = 1; s <= slices - 2; ++s) {
      const auto& scene =
          trace.scenes[scene_index + static_cast<std::size_t>(s - 1)];
      const auto values = ads::scene_variable_values(scene);
      for (std::size_t i = 0; i < names.size(); ++i) {
        if (names[i] == variable) continue;
        evidence.push_back({DbnTemplate::slice_name(names[i], s), values[i]});
      }
      evidence.push_back({DbnTemplate::slice_name(variable, s), *value});
    }
    return net_.posterior_mean(evidence, query);
  }

  // Nominal prediction: golden evidence through slice S-2.
  for (int s = 1; s <= slices - 2; ++s) {
    const auto& scene =
        trace.scenes[scene_index + static_cast<std::size_t>(s - 1)];
    const auto values = ads::scene_variable_values(scene);
    for (std::size_t i = 0; i < names.size(); ++i)
      evidence.push_back({DbnTemplate::slice_name(names[i], s), values[i]});
  }
  return net_.posterior_mean(evidence, query);
}

std::optional<DeltaPrediction> SafetyPredictor::predict_impl(
    const GoldenTrace& trace, std::size_t scene_index,
    const std::string& variable, std::optional<double> value, bool use_do,
    PredictSkip* skip) const {
  // Slice layout of the S-TBN (S = config.slices, S >= 3):
  //   slice 0            : pre-fault evidence (scene k-1)
  //   slices 1 .. S-2    : the fault is held (scenes k .. k+S-3); the
  //                        intervention is asserted in every one of them,
  //                        matching the campaign runner's stuck-at replay
  //   slice S-1          : query (scene k + horizon)
  // Golden evidence is used for slice 0 in full and, in slice 1, for the
  // nodes the intervention cannot causally influence; everything after
  // the fault's onset is inferred, not observed.
  if (skip) *skip = PredictSkip::kNone;
  const int hold = horizon();
  if (scene_index < 1 ||
      scene_index + static_cast<std::size_t>(hold) >= trace.scenes.size()) {
    if (skip) *skip = PredictSkip::kNoWindow;
    return std::nullopt;
  }

  // Scenes k-1 .. k+hold must all have a tracked lead so the window maps
  // onto the lead-valid dataset the network was fitted on.
  for (std::size_t s = scene_index - 1;
       s <= scene_index + static_cast<std::size_t>(hold); ++s)
    if (trace.scenes[s].lead_gap < 0.0) {
      if (skip) *skip = PredictSkip::kNoLead;
      return std::nullopt;
    }

  const ads::SceneRecord& at_query =
      trace.scenes[scene_index + static_cast<std::size_t>(hold)];

  // M-hat (paper eq. (2)): the EV's TRUE kinematic state at the query
  // slice. Only the physical kinematics are queried -- the safety
  // envelope comes from the ground-truth scene, and corrupted *beliefs*
  // endanger the car only through the actuation they provoke, which the
  // truth/belief-split network propagates causally.
  const std::vector<double> m_hat =
      config_.use_compiled
          ? infer_compiled(trace, scene_index, variable, value, use_do)
          : infer_exact(trace, scene_index, variable, value, use_do);
  inference_count_.fetch_add(1, std::memory_order_relaxed);

  DeltaPrediction pred;
  pred.predicted_v = std::max(0.0, m_hat[0]);
  pred.predicted_y = m_hat[1];
  pred.predicted_theta = m_hat[2];
  const double predicted_steer = m_hat[3];

  // d-hat_stop from the kinematic emergency-stop procedure P (eq. (7)),
  // heading measured relative to the lane direction.
  const kinematics::StoppingDistance dstop = kinematics::stopping_distance(
      config_.amax, pred.predicted_v, pred.predicted_theta, predicted_steer,
      config_.wheelbase);

  // d-hat_safe: the ground-truth envelope at the query scene. Over the
  // prediction horizon (a few hundred ms) obstacle motion is unaffected
  // by an ego fault and the ego's own displacement differs from golden by
  // well under a meter, so the golden envelope is the right
  // counterfactual free distance; what the fault changes is d_stop,
  // through the predicted kinematics above.
  const double dsafe_lon = at_query.true_dsafe_lon;
  const double dsafe_lat = std::max(
      0.0, config_.lane_half_width - std::abs(pred.predicted_y) -
               config_.ego_half_width);

  pred.delta_lon = dsafe_lon - dstop.longitudinal;
  pred.delta_lat = dsafe_lat - std::abs(dstop.lateral);
  return pred;
}

std::optional<DeltaPrediction> SafetyPredictor::predict(
    const GoldenTrace& trace, std::size_t scene_index,
    const std::string& variable, double value, PredictSkip* skip) const {
  return predict_impl(trace, scene_index, variable, value, /*use_do=*/true,
                      skip);
}

std::optional<DeltaPrediction> SafetyPredictor::predict_nominal(
    const GoldenTrace& trace, std::size_t scene_index,
    PredictSkip* skip) const {
  return predict_impl(trace, scene_index, "", std::nullopt, /*use_do=*/true,
                      skip);
}

std::optional<DeltaPrediction> SafetyPredictor::predict_observational(
    const GoldenTrace& trace, std::size_t scene_index,
    const std::string& variable, double value, PredictSkip* skip) const {
  return predict_impl(trace, scene_index, variable, value, /*use_do=*/false,
                      skip);
}

void save_predictor(const SafetyPredictor& predictor,
                    const std::string& path) {
  bn::NetworkMeta meta;
  const SafetyPredictorConfig& c = predictor.config();
  meta["slices"] = static_cast<double>(c.slices);
  meta["scene_hz"] = c.scene_hz;
  meta["amax"] = c.amax;
  meta["wheelbase"] = c.wheelbase;
  meta["lane_half_width"] = c.lane_half_width;
  meta["ego_half_width"] = c.ego_half_width;
  bn::save_network_file(predictor.network(), path, meta);
}

SafetyPredictor load_predictor(const std::string& path) {
  bn::NetworkMeta meta;
  bn::LinearGaussianNetwork net = bn::load_network_file(path, &meta);
  SafetyPredictorConfig config;
  const auto get = [&meta](const char* key, double fallback) {
    const auto it = meta.find(key);
    return it != meta.end() ? it->second : fallback;
  };
  config.slices = static_cast<int>(get("slices", config.slices));
  config.scene_hz = get("scene_hz", config.scene_hz);
  config.amax = get("amax", config.amax);
  config.wheelbase = get("wheelbase", config.wheelbase);
  config.lane_half_width = get("lane_half_width", config.lane_half_width);
  config.ego_half_width = get("ego_half_width", config.ego_half_width);
  // Every prediction runs procedure P on these; same bounds as a .scn
  // file's ego_params (docs/FORMATS.md).
  if (config.amax < kinematics::kMinStopDecel || !(config.wheelbase > 0.0))
    throw std::runtime_error(
        "load_predictor: " + path + ": amax must be at least " +
        util::shortest_double(kinematics::kMinStopDecel) +
        " m/s^2 and wheelbase positive");
  return SafetyPredictor(std::move(net), config);
}

}  // namespace drivefi::core
