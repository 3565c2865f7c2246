// Compiled BN inference engine vs the naive per-query path on the 4-slice
// ADS DBN -- the hot loop behind the paper's ~3690x acceleration claim.
// The naive path rebuilds the joint Gaussian and refactors the evidence
// block for EVERY candidate fault; the compiled engine does that work once
// per (intervention, evidence, query) structure and answers each query
// with two small mat-vecs. This bench times the raw counterfactual
// inference both ways (the headline speedup), the SafetyPredictor
// end-to-end (which also pays the RK4 stopping-distance integration, so
// its gain is smaller), and the batched sweep API; checks compiled-vs-
// exact agreement to 1e-9; and emits BENCH_bn_compiled.json. Exits
// nonzero if the inference speedup drops below 10x or agreement fails, so
// CI runs it as a smoke test.
//
//   ./bench_bn_compiled [queries] [out.json]
#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "bn/compiled.h"
#include "bn/dbn.h"
#include "core/bayes_model.h"
#include "core/fault_catalog.h"
#include "core/selector.h"
#include "core/trace.h"
#include "sim/scenario.h"
#include "util/matrix.h"
#include "util/table.h"

using namespace drivefi;

namespace {

struct QueryCase {
  const core::GoldenTrace* trace = nullptr;
  std::size_t scene_index = 0;
  std::string variable;
  double value = 0.0;
  // Prebuilt inference inputs (slice-0 evidence + held intervention), so
  // the timed loops compare inference cost, not input marshalling.
  std::vector<bn::Assignment> evidence_exact;
  std::vector<bn::Assignment> interventions_exact;
  std::vector<double> evidence;
  std::vector<double> interventions;
};

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t max_queries =
      argc > 1 ? static_cast<std::size_t>(std::atoi(argv[1])) : 2000;
  const std::string out_path = argc > 2 ? argv[2] : "BENCH_bn_compiled.json";

  auto suite = sim::base_suite();
  suite.resize(3);
  ads::PipelineConfig config;
  config.seed = 7;
  std::printf("running %zu golden scenarios...\n", suite.size());
  const auto goldens = core::run_golden_suite(suite, config);

  std::printf("fitting the 4-slice ADS DBN...\n");
  core::SafetyPredictorConfig exact_config;
  exact_config.use_compiled = false;
  const core::SafetyPredictor compiled(goldens);          // default engine
  const core::SafetyPredictor exact(compiled.network(), exact_config);
  const bn::LinearGaussianNetwork& net = compiled.network();
  const int slices = compiled.config().slices;
  const auto& names = ads::scene_variable_names();

  const std::vector<std::string> query_nodes = {
      bn::DbnTemplate::slice_name("true_v", slices - 1),
      bn::DbnTemplate::slice_name("true_y_off", slices - 1),
      bn::DbnTemplate::slice_name("true_theta", slices - 1),
      bn::DbnTemplate::slice_name("steer", slices - 1)};

  // Candidate queries straight from the fault catalog: each mapped
  // candidate is one (variable, corrupted value, scene window) do-query,
  // exactly the shape the selection sweep asks.
  const auto catalog = core::build_catalog(suite, 7.5);
  std::vector<QueryCase> cases;
  for (std::size_t i = 0; i < catalog.size(); ++i) {
    const core::CandidateFault fault = catalog.at(i);
    const ads::FaultTargetRow& target = ads::kFaultTargets[fault.target];
    if (target.bn_variable.empty()) continue;
    if (fault.scenario_index >= goldens.size()) continue;
    QueryCase qc;
    qc.trace = &goldens[fault.scenario_index];
    qc.scene_index = fault.scene_index;
    qc.variable = target.bn_variable;
    qc.value = fault.value - target.bn_offset;
    // Keep only windows that actually produce a prediction.
    if (!compiled.predict(*qc.trace, qc.scene_index, qc.variable, qc.value))
      continue;
    const auto prev_values =
        ads::scene_variable_values(qc.trace->scenes[qc.scene_index - 1]);
    qc.evidence.assign(prev_values.begin(), prev_values.end());
    for (std::size_t i = 0; i < names.size(); ++i)
      qc.evidence_exact.push_back(
          {bn::DbnTemplate::slice_name(names[i], 0), prev_values[i]});
    for (int s = 1; s <= slices - 2; ++s) {
      qc.interventions_exact.push_back(
          {bn::DbnTemplate::slice_name(qc.variable, s), qc.value});
      qc.interventions.push_back(qc.value);
    }
    cases.push_back(std::move(qc));
    if (cases.size() >= max_queries) break;
  }
  if (cases.empty()) {
    std::fprintf(stderr, "error: no evaluable queries in the catalog\n");
    return 1;
  }
  std::printf("benchmarking %zu counterfactual do-queries (%zu-node DBN)\n",
              cases.size(), net.node_count());

  // --- headline: raw inference, naive joint()+condition vs compiled ---
  const bn::CompiledNetwork engine(net);
  std::vector<std::string> evidence_nodes;
  for (const auto& v : names)
    evidence_nodes.push_back(bn::DbnTemplate::slice_name(v, 0));
  // One plan per variable, built once and held by pointer -- the
  // per-structure cache is the whole point; the sweep then reuses it for
  // every candidate (exactly how SafetyPredictor holds its plans).
  std::map<std::string, const bn::CompiledQuery*> var_plans;
  for (const ads::FaultTargetRow& target : ads::kFaultTargets) {
    const std::string variable(target.bn_variable);
    if (variable.empty() || var_plans.count(variable)) continue;
    std::vector<std::string> intervention_nodes;
    for (int s = 1; s <= slices - 2; ++s)
      intervention_nodes.push_back(bn::DbnTemplate::slice_name(variable, s));
    var_plans[variable] =
        &engine.prepare_do(intervention_nodes, evidence_nodes, query_nodes);
  }
  const auto plan_for_variable = [&](const std::string& variable)
      -> const bn::CompiledQuery& { return *var_plans.at(variable); };

  const auto t_naive = std::chrono::steady_clock::now();
  std::vector<std::vector<double>> naive_out;
  naive_out.reserve(cases.size());
  for (const auto& qc : cases)
    naive_out.push_back(net.do_posterior_mean(qc.interventions_exact,
                                              qc.evidence_exact, query_nodes));
  const double naive_wall = seconds_since(t_naive);

  const auto t_compiled = std::chrono::steady_clock::now();
  std::vector<std::vector<double>> compiled_out;
  compiled_out.reserve(cases.size());
  for (const auto& qc : cases)
    compiled_out.push_back(
        plan_for_variable(qc.variable).mean(qc.interventions, qc.evidence));
  const double compiled_wall = seconds_since(t_compiled);

  double max_abs_diff = 0.0;
  for (std::size_t i = 0; i < cases.size(); ++i)
    for (std::size_t j = 0; j < query_nodes.size(); ++j)
      max_abs_diff = std::max(
          max_abs_diff, std::abs(naive_out[i][j] - compiled_out[i][j]));

  const double n = static_cast<double>(cases.size());
  const double naive_us = naive_wall / n * 1e6;
  const double compiled_us = compiled_wall / n * 1e6;
  const double speedup = compiled_wall > 0.0 ? naive_wall / compiled_wall : 0.0;

  // --- SafetyPredictor end-to-end (inference + RK4 stopping model) ---
  double predict_max_abs_diff = 0.0;
  const auto t_predict_exact = std::chrono::steady_clock::now();
  std::vector<core::DeltaPrediction> predict_exact;
  predict_exact.reserve(cases.size());
  for (const auto& qc : cases)
    predict_exact.push_back(
        *exact.predict(*qc.trace, qc.scene_index, qc.variable, qc.value));
  const double predict_exact_wall = seconds_since(t_predict_exact);

  const auto t_predict_compiled = std::chrono::steady_clock::now();
  std::vector<core::DeltaPrediction> predict_compiled;
  predict_compiled.reserve(cases.size());
  for (const auto& qc : cases)
    predict_compiled.push_back(
        *compiled.predict(*qc.trace, qc.scene_index, qc.variable, qc.value));
  const double predict_compiled_wall = seconds_since(t_predict_compiled);

  for (std::size_t i = 0; i < cases.size(); ++i) {
    const auto& a = predict_exact[i];
    const auto& b = predict_compiled[i];
    for (double d : {a.delta_lon - b.delta_lon, a.delta_lat - b.delta_lat,
                     a.predicted_v - b.predicted_v,
                     a.predicted_y - b.predicted_y,
                     a.predicted_theta - b.predicted_theta})
      predict_max_abs_diff = std::max(predict_max_abs_diff, std::abs(d));
  }
  const double predict_exact_us = predict_exact_wall / n * 1e6;
  const double predict_compiled_us = predict_compiled_wall / n * 1e6;
  const double predict_speedup = predict_compiled_wall > 0.0
                                     ? predict_exact_wall / predict_compiled_wall
                                     : 0.0;

  // --- batched sweep throughput on one structure ---
  const bn::CompiledQuery& throttle_plan = plan_for_variable("throttle");
  std::vector<std::array<double, ads::kSceneVariableCount>> rows;
  for (const auto& trace : goldens)
    for (std::size_t k = 1; k + 1 < trace.scenes.size(); ++k) {
      if (trace.scenes[k - 1].lead_gap < 0.0) continue;
      rows.push_back(ads::scene_variable_values(trace.scenes[k - 1]));
    }
  util::Matrix evidence(rows.size(), names.size());
  util::Matrix interventions(rows.size(),
                             static_cast<std::size_t>(slices - 2));
  for (std::size_t r = 0; r < rows.size(); ++r) {
    for (std::size_t c = 0; c < names.size(); ++c)
      evidence(r, c) = rows[r][c];
    const double value = static_cast<double>(r % 11) / 10.0;
    for (std::size_t c = 0; c < interventions.cols(); ++c)
      interventions(r, c) = value;
  }
  std::size_t batch_rows = 0;
  double checksum = 0.0;
  const auto t_batch = std::chrono::steady_clock::now();
  while (batch_rows < 2000000) {
    const util::Matrix means = throttle_plan.mean_batch(interventions, evidence);
    checksum += means(0, 0);
    batch_rows += means.rows();
  }
  const double batch_wall = seconds_since(t_batch);
  const double batch_rate =
      batch_wall > 0.0 ? static_cast<double>(batch_rows) / batch_wall : 0.0;

  util::Table table({"path", "us/query", "queries/s"});
  table.add_row({"naive joint()+condition", util::Table::fmt(naive_us, 2),
                 util::Table::fmt(1e6 / std::max(naive_us, 1e-9), 0)});
  table.add_row({"compiled plan", util::Table::fmt(compiled_us, 3),
                 util::Table::fmt(1e6 / std::max(compiled_us, 1e-9), 0)});
  table.add_row({"compiled batched sweep",
                 util::Table::fmt(1e6 / std::max(batch_rate, 1e-9), 3),
                 util::Table::fmt(batch_rate, 0)});
  table.add_row({"predict() exact engine",
                 util::Table::fmt(predict_exact_us, 2),
                 util::Table::fmt(1e6 / std::max(predict_exact_us, 1e-9), 0)});
  table.add_row({"predict() compiled engine",
                 util::Table::fmt(predict_compiled_us, 2),
                 util::Table::fmt(1e6 / std::max(predict_compiled_us, 1e-9),
                                  0)});
  table.print("compiled BN inference vs naive per-query path");
  std::printf("inference speedup: %.1fx (predict() end-to-end: %.1fx -- "
              "includes the RK4 stopping model)\n",
              speedup, predict_speedup);
  std::printf("max |compiled - naive|: %.3g inference, %.3g predict "
              "(checksum %g)\n",
              max_abs_diff, predict_max_abs_diff, checksum);

  std::ofstream out(out_path);
  out << "{\n  \"bench\": \"bn_compiled\",\n"
      << "  \"bn_nodes\": " << net.node_count() << ",\n"
      << "  \"slices\": " << slices << ",\n"
      << "  \"queries\": " << cases.size() << ",\n"
      << "  \"naive_us_per_query\": " << naive_us << ",\n"
      << "  \"compiled_us_per_query\": " << compiled_us << ",\n"
      << "  \"speedup\": " << speedup << ",\n"
      << "  \"predict_naive_us_per_query\": " << predict_exact_us << ",\n"
      << "  \"predict_compiled_us_per_query\": " << predict_compiled_us
      << ",\n"
      << "  \"predict_speedup\": " << predict_speedup << ",\n"
      << "  \"batch_rows\": " << batch_rows << ",\n"
      << "  \"batch_candidates_per_second\": " << batch_rate << ",\n"
      << "  \"max_abs_diff\": " << max_abs_diff << ",\n"
      << "  \"predict_max_abs_diff\": " << predict_max_abs_diff << "\n}\n";
  out.flush();
  if (!out) {
    std::fprintf(stderr, "error: could not write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", out_path.c_str());

  if (max_abs_diff > 1e-9 || predict_max_abs_diff > 1e-9) {
    std::fprintf(stderr, "FATAL: compiled engine diverged from the exact "
                         "solver (%.3g / %.3g > 1e-9)\n",
                 max_abs_diff, predict_max_abs_diff);
    return 1;
  }
  if (speedup < 10.0) {
    std::fprintf(stderr, "FATAL: compiled speedup %.1fx below the 10x "
                         "floor\n", speedup);
    return 1;
  }
  return 0;
}
