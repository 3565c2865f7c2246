#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bn/serialize.h"
#include "core/bayes_model.h"
#include "core/experiment.h"
#include "core/fault_catalog.h"
#include "core/fault_model.h"
#include "core/importance.h"
#include "core/outcome.h"
#include "core/report.h"
#include "core/result_sink.h"
#include "core/scene_library.h"
#include "core/selector.h"
#include "core/trace.h"
#include "kinematics/stopping.h"

namespace drivefi::core {
namespace {

ads::PipelineConfig test_pipeline_config() {
  ads::PipelineConfig config;
  config.seed = 11;
  return config;
}

std::vector<sim::Scenario> small_suite() {
  auto base = sim::base_suite();
  // lead_cruise, lead_brake, example1 -- small but behaviorally diverse.
  return {base[1], base[2], sim::example1_lead_lane_change()};
}

// ---------- Fault catalog ----------

TEST(FaultCatalog, SizeIsCrossProduct) {
  const auto scenarios = small_suite();
  const auto targets = default_target_ranges();
  const auto catalog = build_catalog(scenarios, targets, 7.5);
  std::size_t scenes = 0;
  for (const auto& s : scenarios) scenes += sim::scene_count(s, 7.5);
  EXPECT_EQ(catalog.size(), scenes * targets.size() * 2);
  EXPECT_EQ(catalog.scene_count, scenes);
  EXPECT_EQ(catalog.variable_count, targets.size());
}

TEST(FaultCatalog, ValuesAreRangeExtremes) {
  const auto scenarios = small_suite();
  const auto catalog =
      build_catalog(scenarios, {{"control.throttle", 0.0, 1.0}}, 7.5);
  for (const auto& fault : catalog.faults) {
    if (fault.extreme == Extreme::kMin)
      EXPECT_DOUBLE_EQ(fault.value, 0.0);
    else
      EXPECT_DOUBLE_EQ(fault.value, 1.0);
  }
}

TEST(FaultCatalog, ExhaustiveCostScalesWithCatalog) {
  const auto scenarios = small_suite();
  const auto targets = default_target_ranges();
  const auto catalog = build_catalog(scenarios, targets, 7.5);
  const double cost = exhaustive_cost_seconds(catalog, scenarios, 10.0);
  EXPECT_GT(cost, 0.0);
  // Doubling the speed ratio halves the cost.
  EXPECT_NEAR(exhaustive_cost_seconds(catalog, scenarios, 20.0), cost / 2.0,
              1e-6);
}

TEST(FaultCatalog, DefaultTargetsMatchPipelineRegistry) {
  const auto scenarios = small_suite();
  sim::World world(scenarios[0].world);
  ads::AdsPipeline pipeline(world, test_pipeline_config());
  for (const auto& target : default_target_ranges())
    EXPECT_NE(pipeline.fault_registry().find(target.name), nullptr)
        << target.name;
}

// ---------- Outcome classifier ----------

ads::SceneRecord safe_scene(double t) {
  ads::SceneRecord rec;
  rec.t = t;
  rec.true_delta_lon = 50.0;
  rec.true_delta_lat = 0.8;
  rec.throttle = 0.2;
  return rec;
}

TEST(Outcome, MaskedWhenIdentical) {
  std::vector<ads::SceneRecord> golden{safe_scene(0.0), safe_scene(0.13)};
  const RunResult result = classify_run(golden, golden, false);
  EXPECT_EQ(result.outcome, Outcome::kMasked);
}

TEST(Outcome, SdcWhenActuationDiverges) {
  std::vector<ads::SceneRecord> golden{safe_scene(0.0), safe_scene(0.13)};
  auto injected = golden;
  injected[1].throttle = 0.8;
  const RunResult result = classify_run(golden, injected, false);
  EXPECT_EQ(result.outcome, Outcome::kSdcBenign);
  EXPECT_NEAR(result.max_actuation_divergence, 0.6, 1e-12);
}

TEST(Outcome, HazardOnPersistentDeltaViolation) {
  std::vector<ads::SceneRecord> golden{safe_scene(0.0), safe_scene(0.13),
                                       safe_scene(0.27)};
  auto injected = golden;
  injected[1].true_delta_lon = -2.0;
  injected[2].true_delta_lon = -3.0;
  const RunResult result = classify_run(golden, injected, false);
  EXPECT_EQ(result.outcome, Outcome::kHazard);
  EXPECT_TRUE(result.delta_violated);
  EXPECT_EQ(result.hazard_scene_index, 1u);
}

TEST(Outcome, SingleSceneDeltaBlipIsNotHazard) {
  std::vector<ads::SceneRecord> golden{safe_scene(0.0), safe_scene(0.13),
                                       safe_scene(0.27)};
  auto injected = golden;
  injected[1].true_delta_lon = -2.0;  // recovers at the next scene
  const RunResult result = classify_run(golden, injected, false);
  EXPECT_NE(result.outcome, Outcome::kHazard);
}

TEST(Outcome, HazardOnNewCollision) {
  std::vector<ads::SceneRecord> golden{safe_scene(0.0), safe_scene(0.13)};
  auto injected = golden;
  injected[1].collided = true;
  const RunResult result = classify_run(golden, injected, false);
  EXPECT_EQ(result.outcome, Outcome::kHazard);
  EXPECT_TRUE(result.collided);
}

TEST(Outcome, NoHazardWhenGoldenAlreadyUnsafe) {
  std::vector<ads::SceneRecord> golden{safe_scene(0.0), safe_scene(0.13)};
  golden[1].true_delta_lon = -1.0;  // golden itself unsafe here
  auto injected = golden;
  injected[1].true_delta_lon = -5.0;
  const RunResult result = classify_run(golden, injected, false);
  EXPECT_NE(result.outcome, Outcome::kHazard);
}

TEST(Outcome, HangClassified) {
  std::vector<ads::SceneRecord> golden{safe_scene(0.0)};
  const RunResult result = classify_run(golden, golden, true);
  EXPECT_EQ(result.outcome, Outcome::kHang);
}

TEST(Outcome, HazardDominatesHang) {
  std::vector<ads::SceneRecord> golden{safe_scene(0.0), safe_scene(0.13)};
  auto injected = golden;
  injected[1].collided = true;
  const RunResult result = classify_run(golden, injected, true);
  EXPECT_EQ(result.outcome, Outcome::kHazard);
}

TEST(Outcome, TaxonomyIsPartition) {
  // Any combination of flags maps to exactly one outcome.
  for (int hung = 0; hung <= 1; ++hung) {
    for (double divergence : {0.0, 0.5}) {
      for (int violated : {0, 1}) {
        std::vector<ads::SceneRecord> golden{safe_scene(0.0), safe_scene(0.13)};
        auto injected = golden;
        injected[1].throttle += divergence;
        if (violated) injected[1].true_delta_lon = -1.0;
        const RunResult result = classify_run(golden, injected, hung != 0);
        int matches = 0;
        for (Outcome o : {Outcome::kMasked, Outcome::kSdcBenign,
                          Outcome::kHang, Outcome::kHazard})
          if (result.outcome == o) ++matches;
        EXPECT_EQ(matches, 1);
      }
    }
  }
}

// ---------- Traces & BN dataset ----------

TEST(Trace, GoldenRunProducesScenes) {
  const auto scenarios = small_suite();
  const GoldenTrace trace =
      run_golden(scenarios[0], test_pipeline_config(), 0);
  EXPECT_EQ(trace.scenario_name, scenarios[0].name);
  EXPECT_GT(trace.scenes.size(), 200u);
  EXPECT_GT(trace.wall_seconds, 0.0);
}

TEST(Trace, DatasetSkipsLeadlessScenes) {
  const auto scenarios = small_suite();
  const auto traces =
      run_golden_suite({scenarios[0]}, test_pipeline_config());
  const bn::Dataset with_lead = traces_to_dataset(traces, true);
  const bn::Dataset all = traces_to_dataset(traces, false);
  EXPECT_LT(with_lead.rows.size(), all.rows.size());
  EXPECT_GT(with_lead.rows.size(), 100u);
  for (const auto& row : with_lead.rows) EXPECT_GE(row[0], 0.0);
}

// ---------- Bayesian model ----------

class BayesModelTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    const auto scenarios = small_suite();
    traces_ = new std::vector<GoldenTrace>(
        run_golden_suite(scenarios, test_pipeline_config()));
    predictor_ = new SafetyPredictor(*traces_);
  }
  static void TearDownTestSuite() {
    delete predictor_;
    delete traces_;
    predictor_ = nullptr;
    traces_ = nullptr;
  }

  static std::vector<GoldenTrace>* traces_;
  static SafetyPredictor* predictor_;
};

std::vector<GoldenTrace>* BayesModelTest::traces_ = nullptr;
SafetyPredictor* BayesModelTest::predictor_ = nullptr;

TEST_F(BayesModelTest, TemplateSplitsTruthAndBelief) {
  const bn::DbnTemplate tmpl = ads_dbn_template();
  const auto& vars = tmpl.variables();
  EXPECT_EQ(vars.size(), 13u);
  // Truth nodes exist alongside their believed counterparts.
  for (const char* name : {"true_v", "v", "true_y_off", "y_off",
                           "true_theta", "theta"})
    EXPECT_NE(std::find(vars.begin(), vars.end(), name), vars.end()) << name;
}

TEST_F(BayesModelTest, NetworkUnrollMatchesConfig) {
  EXPECT_EQ(predictor_->network().node_count(),
            13u * static_cast<std::size_t>(predictor_->config().slices));
  EXPECT_EQ(predictor_->horizon(), predictor_->config().slices - 2);
}

TEST_F(BayesModelTest, NominalPredictionTracksGolden) {
  // Horizon-step-ahead prediction of the true speed should be close to
  // the golden true speed.
  const GoldenTrace& trace = (*traces_)[0];
  const auto h = static_cast<std::size_t>(predictor_->horizon());
  int checked = 0;
  double total_err = 0.0;
  for (std::size_t k = 10; k + h < trace.scenes.size() && checked < 50; ++k) {
    const auto pred = predictor_->predict_nominal(trace, k);
    if (!pred) continue;
    total_err += std::abs(pred->predicted_v - trace.scenes[k + h].true_v);
    ++checked;
  }
  ASSERT_GT(checked, 20);
  EXPECT_LT(total_err / checked, 1.0);  // < 1 m/s mean abs error
}

TEST_F(BayesModelTest, ThrottleInterventionRaisesPredictedSpeed) {
  const GoldenTrace& trace = (*traces_)[0];
  // Find a mid-run scene with a lead.
  for (std::size_t k = 50; k + 1 < trace.scenes.size(); ++k) {
    const auto nominal = predictor_->predict_nominal(trace, k);
    const auto boosted = predictor_->predict(trace, k, "throttle", 1.0);
    if (!nominal || !boosted) continue;
    EXPECT_GE(boosted->predicted_v, nominal->predicted_v - 0.05);
    SUCCEED();
    return;
  }
  FAIL() << "no usable scene";
}

TEST_F(BayesModelTest, BrakeInterventionLowersPredictedSpeed) {
  const GoldenTrace& trace = (*traces_)[0];
  for (std::size_t k = 50; k + 1 < trace.scenes.size(); ++k) {
    const auto nominal = predictor_->predict_nominal(trace, k);
    const auto braked = predictor_->predict(trace, k, "brake", 1.0);
    if (!nominal || !braked) continue;
    EXPECT_LE(braked->predicted_v, nominal->predicted_v + 0.05);
    SUCCEED();
    return;
  }
  FAIL() << "no usable scene";
}

TEST_F(BayesModelTest, BeliefCorruptionCannotTeleportTrueSpeed) {
  // do(v = 45) on the BELIEVED speed must not make the predictor think
  // the car physically jumped to 45 m/s; the truth/belief split routes
  // the corruption through the control chain only (the ADS believes it
  // is too fast, so if anything it slows down).
  const GoldenTrace& trace = (*traces_)[0];
  for (std::size_t k = 50; k + 3 < trace.scenes.size(); ++k) {
    const auto nominal = predictor_->predict_nominal(trace, k);
    const auto corrupted = predictor_->predict(trace, k, "v", 45.0);
    if (!nominal || !corrupted) continue;
    EXPECT_LT(std::abs(corrupted->predicted_v - nominal->predicted_v), 5.0);
    EXPECT_LE(corrupted->predicted_v, nominal->predicted_v + 0.5);
    SUCCEED();
    return;
  }
  FAIL() << "no usable scene";
}

TEST_F(BayesModelTest, PredictionWindowBoundsRespected) {
  const GoldenTrace& trace = (*traces_)[0];
  EXPECT_FALSE(predictor_->predict(trace, 0, "throttle", 1.0).has_value());
  EXPECT_FALSE(predictor_
                   ->predict(trace, trace.scenes.size() - 1, "throttle", 1.0)
                   .has_value());
}

TEST_F(BayesModelTest, SkipReasonsReported) {
  const GoldenTrace& trace = (*traces_)[0];
  PredictSkip skip = PredictSkip::kNone;
  EXPECT_FALSE(predictor_->predict(trace, 0, "throttle", 1.0, &skip));
  EXPECT_EQ(skip, PredictSkip::kNoWindow);

  // Poison the lead in a mid-trace window: the same scene must now skip
  // with kNoLead instead.
  GoldenTrace poisoned = trace;
  ASSERT_GT(poisoned.scenes.size(), 62u);
  ASSERT_TRUE(predictor_->predict(poisoned, 60, "throttle", 1.0, &skip));
  EXPECT_EQ(skip, PredictSkip::kNone);
  poisoned.scenes[61].lead_gap = -1.0;
  EXPECT_FALSE(predictor_->predict(poisoned, 60, "throttle", 1.0, &skip));
  EXPECT_EQ(skip, PredictSkip::kNoLead);
}

TEST_F(BayesModelTest, CompiledMatchesExactPathWithinTolerance) {
  // The compiled engine (cached joint + per-variable plans) must agree
  // with the per-query joint()+condition path on every prediction kind,
  // across variables and scenes, to well under the 1e-9 acceptance bound.
  SafetyPredictorConfig exact_config;
  exact_config.use_compiled = false;
  const SafetyPredictor exact(predictor_->network(), exact_config);

  const auto compare = [](const std::optional<DeltaPrediction>& a,
                          const std::optional<DeltaPrediction>& b,
                          const std::string& what) {
    ASSERT_EQ(a.has_value(), b.has_value()) << what;
    if (!a) return;
    EXPECT_NEAR(a->delta_lon, b->delta_lon, 1e-9) << what;
    EXPECT_NEAR(a->delta_lat, b->delta_lat, 1e-9) << what;
    EXPECT_NEAR(a->predicted_v, b->predicted_v, 1e-9) << what;
    EXPECT_NEAR(a->predicted_y, b->predicted_y, 1e-9) << what;
    EXPECT_NEAR(a->predicted_theta, b->predicted_theta, 1e-9) << what;
  };

  int compared = 0;
  for (const auto& trace : *traces_) {
    for (std::size_t k = 1; k < trace.scenes.size(); k += 17) {
      compare(predictor_->predict_nominal(trace, k),
              exact.predict_nominal(trace, k), "nominal");
      for (const auto& [variable, value] :
           std::vector<std::pair<std::string, double>>{{"throttle", 1.0},
                                                       {"brake", 1.0},
                                                       {"v", 45.0},
                                                       {"y_off", 1.5},
                                                       {"lead_gap", 2.0}}) {
        compare(predictor_->predict(trace, k, variable, value),
                exact.predict(trace, k, variable, value), "do " + variable);
        compare(predictor_->predict_observational(trace, k, variable, value),
                exact.predict_observational(trace, k, variable, value),
                "observe " + variable);
        ++compared;
      }
    }
  }
  EXPECT_GT(compared, 50);
}

TEST_F(BayesModelTest, FittedPredictorRoundTripsThroughSerialization) {
  // Fit once, select anywhere: the fitted DBN and its config survive
  // save/load exactly (CPDs bit-equal, predictions bit-equal).
  const std::string path = "predictor_roundtrip_test.bn";
  save_predictor(*predictor_, path);
  const SafetyPredictor loaded = load_predictor(path);

  EXPECT_EQ(loaded.config().slices, predictor_->config().slices);
  EXPECT_DOUBLE_EQ(loaded.config().scene_hz, predictor_->config().scene_hz);
  EXPECT_DOUBLE_EQ(loaded.config().amax, predictor_->config().amax);

  const auto& net = predictor_->network();
  const auto& renet = loaded.network();
  ASSERT_EQ(renet.node_count(), net.node_count());
  for (bn::NodeId i = 0; i < net.node_count(); ++i) {
    const auto& original = net.cpd(i);
    const auto& restored = renet.cpd(renet.id(net.name(i)));
    EXPECT_DOUBLE_EQ(restored.bias, original.bias) << net.name(i);
    EXPECT_DOUBLE_EQ(restored.variance, original.variance) << net.name(i);
    ASSERT_EQ(restored.weights.size(), original.weights.size());
    for (std::size_t j = 0; j < original.weights.size(); ++j)
      EXPECT_DOUBLE_EQ(restored.weights[j], original.weights[j])
          << net.name(i);
  }

  const GoldenTrace& trace = (*traces_)[0];
  for (std::size_t k : {40u, 80u, 120u}) {
    const auto a = predictor_->predict(trace, k, "brake", 1.0);
    const auto b = loaded.predict(trace, k, "brake", 1.0);
    ASSERT_EQ(a.has_value(), b.has_value());
    if (!a) continue;
    EXPECT_DOUBLE_EQ(a->delta_lon, b->delta_lon);
    EXPECT_DOUBLE_EQ(a->predicted_v, b->predicted_v);
  }
  std::remove(path.c_str());
}

TEST_F(BayesModelTest, LoadPredictorRejectsStopParamsProcedurePCannotRun) {
  // Every prediction runs procedure P with the file's amax and wheelbase:
  // P takes v0 / (amax * 5 ms) steps, so a tiny amax stalls selection and
  // a zero one makes every prediction read as safe.
  const std::string path = "predictor_bad_stop_params_test.bn";
  for (const auto& [key, value] : std::vector<std::pair<std::string, double>>{
           {"amax", 0.001}, {"amax", 0.0}, {"wheelbase", 0.0}}) {
    bn::NetworkMeta meta = {{"amax", 6.0}, {"wheelbase", 2.8}};
    meta[key] = value;
    bn::save_network_file(predictor_->network(), path, meta);
    EXPECT_THROW(load_predictor(path), std::runtime_error)
        << key << "=" << value;
  }
  bn::save_network_file(predictor_->network(), path,
                        {{"amax", kinematics::kMinStopDecel}});
  EXPECT_DOUBLE_EQ(load_predictor(path).config().amax,
                   kinematics::kMinStopDecel);
  std::remove(path.c_str());
}

TEST_F(BayesModelTest, InferenceCountAdvances) {
  const std::size_t before = predictor_->inference_count();
  predictor_->predict_nominal((*traces_)[0], 60);
  EXPECT_GE(predictor_->inference_count(), before);
}

// ---------- Selector + campaign (mini end-to-end) ----------

TEST(Selector, TargetMapCoversActuationVariables) {
  const auto map = default_target_to_bn_variable();
  EXPECT_EQ(map.at("control.throttle"), "throttle");
  EXPECT_EQ(map.at("plan.target_accel"), "u_accel");
  EXPECT_FALSE(map.contains("gps.x"));  // unmodeled
}

TEST(Selector, LocalizationYMapsToLaneOffset) {
  CandidateFault fault;
  fault.target = "localization.y";
  fault.value = 12.0;
  EXPECT_NEAR(fault_value_to_bn_value(fault, "y_off"), 12.0 - 3.7, 1e-12);
  fault.target = "control.throttle";
  fault.value = 1.0;
  EXPECT_DOUBLE_EQ(fault_value_to_bn_value(fault, "throttle"), 1.0);
}

TEST(MiniCampaign, EndToEndSelectorAndValidation) {
  // Small but complete DriveFI loop: golden -> fit BN -> select -> replay.
  std::vector<sim::Scenario> scenarios = {sim::base_suite()[2],
                                          sim::example1_lead_lane_change()};
  Experiment experiment(scenarios, test_pipeline_config());
  const auto& goldens = experiment.goldens();
  ASSERT_EQ(goldens.size(), 2u);

  SafetyPredictor predictor(goldens);
  BayesianFaultSelector selector(predictor);

  const auto catalog =
      build_catalog(scenarios, default_target_ranges(), 7.5);
  const SelectionResult selection = selector.select(catalog, goldens);
  EXPECT_GT(selection.candidates_evaluated, 100u);
  EXPECT_EQ(selection.candidates_total, catalog.size());

  // Replay at most 10 selected faults through full simulation.
  std::vector<SelectedFault> top(selection.critical.begin(),
                                 selection.critical.begin() +
                                     std::min<std::size_t>(
                                         10, selection.critical.size()));
  const CampaignStats replay = experiment.run(SelectedFaultModel(top));
  EXPECT_EQ(replay.total(), top.size());

  // Report tables render without crashing and contain the key rows.
  const auto table = validation_table(selection, replay, catalog.scene_count);
  EXPECT_NE(table.to_ascii().find("hazard precision"), std::string::npos);
}

TEST(Selector, SkipReasonAccountingIsExhaustive) {
  std::vector<sim::Scenario> scenarios = {sim::base_suite()[1]};
  Experiment experiment(scenarios, test_pipeline_config());
  const auto& goldens = experiment.goldens();
  SafetyPredictor predictor(goldens);
  BayesianFaultSelector selector(predictor);

  const auto catalog =
      build_catalog(scenarios, default_target_ranges(), 7.5);
  const SelectionResult selection = selector.select(catalog, goldens);

  // Every candidate lands in exactly one bucket.
  EXPECT_EQ(selection.candidates_total, catalog.size());
  EXPECT_EQ(selection.candidates_evaluated + selection.candidates_skipped(),
            selection.candidates_total);
  EXPECT_EQ(selection.candidates_skipped(),
            selection.skipped_unmapped + selection.skipped_no_window +
                selection.skipped_no_lead + selection.skipped_golden_unsafe);
  // The catalog includes unmapped targets (e.g. gps.x) and boundary scenes,
  // so both buckets must be populated on a real corpus.
  EXPECT_GT(selection.skipped_unmapped, 0u);
  EXPECT_GT(selection.skipped_no_window, 0u);
  EXPECT_EQ(selection.inference_calls, selection.candidates_evaluated);
}

TEST(BayesianFaultModelTest, FullLoopEmitsSelectionRecordAndReplays) {
  // The whole DriveFI loop as one Experiment campaign: golden precompute
  // (Experiment ctor) -> fit -> parallel selection -> F_crit replay, with
  // the selection record streamed through the JSONL sink.
  std::vector<sim::Scenario> scenarios = {sim::base_suite()[2],
                                          sim::example1_lead_lane_change()};
  Experiment experiment(scenarios, test_pipeline_config());

  BayesianCampaignConfig config;
  config.max_replays = 6;
  const BayesianFaultModel model(experiment, config);

  EXPECT_EQ(model.selection().candidates_total, model.catalog().size());
  EXPECT_LE(model.run_count(), 6u);
  EXPECT_EQ(model.run_count(),
            std::min<std::size_t>(6, model.selection().critical.size()));

  // Replay hold derives from the predictor it validates (horizon scenes at
  // the predictor's scene rate), not from the Experiment's default hold.
  if (model.run_count() > 0) {
    const RunSpec spec = model.spec(0, experiment);
    EXPECT_DOUBLE_EQ(spec.hold_seconds,
                     static_cast<double>(model.predictor().horizon()) /
                         model.predictor().config().scene_hz);
  }

  std::ostringstream jsonl;
  JsonlSink sink(jsonl);
  const CampaignStats stats = experiment.run(model, {&sink});
  EXPECT_EQ(stats.total(), model.run_count());

  const std::string text = jsonl.str();
  EXPECT_NE(text.find("\"type\":\"selection\""), std::string::npos);
  EXPECT_NE(text.find("\"skipped_no_window\":"), std::string::npos);
  EXPECT_NE(text.find("\"model\":\"bayesian-drivefi\""), std::string::npos);
  // Header precedes the selection record, which precedes the first run.
  EXPECT_LT(text.find("\"type\":\"campaign\""),
            text.find("\"type\":\"selection\""));
  if (model.run_count() > 0) {
    EXPECT_LT(text.find("\"type\":\"selection\""),
              text.find("\"type\":\"run\""));
  }
}

TEST(Campaign, ValueFaultRunsClassify) {
  std::vector<sim::Scenario> scenarios = {sim::base_suite()[1]};
  Experiment experiment(scenarios, test_pipeline_config());

  CandidateFault benign;
  benign.scenario_index = 0;
  benign.scene_index = 75;
  benign.inject_time = 10.0;
  benign.target = "control.throttle";
  benign.extreme = Extreme::kMin;
  benign.value = 0.0;  // killing throttle for a frame is benign
  const RunResult result = experiment.replay_value_fault(
      benign, experiment.targeted_hold_seconds());
  EXPECT_NE(result.outcome, Outcome::kHazard);
}

TEST(Campaign, RandomValueCampaignStats) {
  std::vector<sim::Scenario> scenarios = {sim::base_suite()[1]};
  Experiment experiment(scenarios, test_pipeline_config());
  const CampaignStats stats = experiment.run(RandomValueModel(8, 99));
  EXPECT_EQ(stats.total(), 8u);
  EXPECT_EQ(stats.masked + stats.sdc_benign + stats.hang + stats.hazard, 8u);
  // Records arrive in run-index order regardless of execution order.
  for (std::size_t i = 0; i < stats.records.size(); ++i)
    EXPECT_EQ(stats.records[i].run_index, i);
  const auto table = outcome_table(stats);
  EXPECT_NE(table.to_csv().find("masked"), std::string::npos);
}

TEST(Campaign, RandomBitflipCampaignStats) {
  std::vector<sim::Scenario> scenarios = {sim::base_suite()[1]};
  Experiment experiment(scenarios, test_pipeline_config());
  const CampaignStats stats = experiment.run(BitFlipModel(8, 7));
  EXPECT_EQ(stats.total(), 8u);
  EXPECT_EQ(stats.masked + stats.sdc_benign + stats.hang + stats.hazard, 8u);
}

TEST(Campaign, SinksSeeEveryRecordInOrder) {
  std::vector<sim::Scenario> scenarios = {sim::base_suite()[1]};
  Experiment experiment(scenarios, test_pipeline_config());

  StatsSink stats_sink;
  std::ostringstream csv;
  CsvSink csv_sink(csv);
  std::ostringstream jsonl;
  JsonlSink jsonl_sink(jsonl);
  const CampaignStats stats = experiment.run(
      RandomValueModel(5, 321), {&stats_sink, &csv_sink, &jsonl_sink});

  EXPECT_EQ(stats_sink.stats().total(), stats.total());
  EXPECT_EQ(stats_sink.stats().hazard, stats.hazard);

  // CSV: header + one row per record.
  std::size_t lines = 0;
  std::string line;
  std::istringstream csv_in(csv.str());
  while (std::getline(csv_in, line)) ++lines;
  EXPECT_EQ(lines, stats.total() + 1);

  // JSONL: campaign header + records + summary, streamed in order.
  EXPECT_NE(jsonl.str().find("\"model\":\"random-value\""), std::string::npos);
  EXPECT_NE(jsonl.str().find("\"run_index\":4"), std::string::npos);
  EXPECT_NE(jsonl.str().find("\"type\":\"summary\""), std::string::npos);
}

TEST(Campaign, JsonlSinkEscapesAllControlCharacters) {
  // A pathological description -- embedded quotes, backslashes, newlines,
  // and raw control bytes -- must stay one well-formed JSONL record.
  InjectionRecord record;
  record.run_index = 3;
  record.description =
      std::string("quote\" backslash\\ bell\x07 tab\t cr\r lf\n esc\x1b nul") +
      '\0' + " unit\x1f done";
  std::ostringstream out;
  JsonlSink sink(out);
  sink.consume(record);

  const std::string jsonl = out.str();
  // Exactly one line: the trailing newline of the record itself.
  EXPECT_EQ(std::count(jsonl.begin(), jsonl.end(), '\n'),
            static_cast<std::ptrdiff_t>(1));
  EXPECT_NE(jsonl.find("quote\\\""), std::string::npos);
  EXPECT_NE(jsonl.find("backslash\\\\"), std::string::npos);
  EXPECT_NE(jsonl.find("bell\\u0007"), std::string::npos);
  EXPECT_NE(jsonl.find("tab\\t"), std::string::npos);
  EXPECT_NE(jsonl.find("cr\\r"), std::string::npos);
  EXPECT_NE(jsonl.find("lf\\n"), std::string::npos);
  EXPECT_NE(jsonl.find("esc\\u001b"), std::string::npos);
  EXPECT_NE(jsonl.find("nul\\u0000"), std::string::npos);
  EXPECT_NE(jsonl.find("unit\\u001f"), std::string::npos);
  // No raw control byte survives anywhere in the record.
  const bool raw_control_free = std::all_of(
      jsonl.begin(), jsonl.end(),
      [](char c) { return c == '\n' || static_cast<unsigned char>(c) >= 0x20; });
  EXPECT_TRUE(raw_control_free);
}

TEST(Campaign, MeanRunWallSecondsPositive) {
  std::vector<sim::Scenario> scenarios = {sim::base_suite()[0]};
  Experiment experiment(scenarios, test_pipeline_config());
  EXPECT_GT(experiment.mean_run_wall_seconds(), 0.0);
}

TEST(Campaign, TargetedHoldOutlastsTransientHold) {
  // Random faults are transient (one control period); targeted replays
  // hold for the predictor's horizon. The asymmetry is the paper's: the
  // recompute rate masks transients, the Bayesian injector holds.
  std::vector<sim::Scenario> scenarios = {sim::base_suite()[0]};
  const Experiment experiment(scenarios, test_pipeline_config());
  EXPECT_NEAR(experiment.transient_hold_seconds(), 1.0 / 30.0, 1e-12);
  EXPECT_NEAR(experiment.targeted_hold_seconds(), 2.0 / 7.5, 1e-12);
  EXPECT_GT(experiment.targeted_hold_seconds(),
            experiment.transient_hold_seconds() * 3.0);
  ExperimentOptions options;
  options.hold_scenes = 3.0;
  const Experiment longer(scenarios, test_pipeline_config(), {}, options);
  EXPECT_NEAR(longer.targeted_hold_seconds(), 3.0 / 7.5, 1e-12);
}

// ---------- Scene library (situation mining) ----------

SituationFeatures make_feature(double speed, double gap, double closing,
                               const std::string& target) {
  SituationFeatures f;
  f.ego_speed = speed;
  f.lead_gap = gap;
  f.closing_speed = closing;
  f.time_to_collision = closing > 0.1 ? std::min(30.0, gap / closing) : 30.0;
  f.delta_lon = 5.0;
  f.fault_target = target;
  return f;
}

TEST(SceneLibrary, SeparatesDistinctSituations) {
  // Two well-separated populations: close-follow at highway speed and
  // open-road cruising.
  std::vector<SituationFeatures> features;
  for (int i = 0; i < 20; ++i)
    features.push_back(
        make_feature(33.0 + 0.1 * i, 12.0 + 0.2 * i, 5.0, "control.throttle"));
  for (int i = 0; i < 20; ++i)
    features.push_back(
        make_feature(20.0 + 0.1 * i, 200.0 + i, 0.0, "control.steering"));

  SceneLibraryConfig config;
  config.clusters = 2;
  SceneLibrary library(features, config);

  ASSERT_EQ(library.situations().size(), 2u);
  // Each cluster is pure: all first-population rows share a cluster.
  const std::size_t first = library.assignments()[0];
  for (int i = 0; i < 20; ++i) EXPECT_EQ(library.assignments()[i], first);
  for (int i = 20; i < 40; ++i) EXPECT_NE(library.assignments()[i], first);
  // Support counts match and the dominant fault target is reported.
  EXPECT_EQ(library.situations()[0].support, 20u);
  EXPECT_EQ(library.situations()[1].support, 20u);
}

TEST(SceneLibrary, DeterministicForFixedSeed) {
  std::vector<SituationFeatures> features;
  for (int i = 0; i < 30; ++i)
    features.push_back(make_feature(25.0 + (i % 7), 30.0 + 3.0 * (i % 5),
                                    1.0 + 0.3 * (i % 3), "t"));
  SceneLibraryConfig config;
  config.clusters = 3;
  SceneLibrary a(features, config);
  SceneLibrary b(features, config);
  EXPECT_EQ(a.assignments(), b.assignments());
}

TEST(SceneLibrary, HandlesFewerPointsThanClusters) {
  std::vector<SituationFeatures> features = {
      make_feature(30.0, 20.0, 3.0, "a"), make_feature(10.0, 100.0, 0.0, "b")};
  SceneLibraryConfig config;
  config.clusters = 5;
  SceneLibrary library(features, config);
  EXPECT_LE(library.situations().size(), 2u);
  std::size_t support = 0;
  for (const auto& s : library.situations()) support += s.support;
  EXPECT_EQ(support, 2u);
}

TEST(SceneLibrary, EmptyInputYieldsEmptyLibrary) {
  SceneLibrary library({}, {});
  EXPECT_TRUE(library.situations().empty());
  EXPECT_TRUE(library.assignments().empty());
}

TEST(SceneLibrary, TableRendersOneRowPerSituation) {
  std::vector<SituationFeatures> features;
  for (int i = 0; i < 10; ++i)
    features.push_back(make_feature(33.0, 15.0, 4.0, "control.throttle"));
  SceneLibraryConfig config;
  config.clusters = 1;
  SceneLibrary library(features, config);
  const std::string ascii = library.to_table().to_ascii();
  EXPECT_NE(ascii.find("close-follow"), std::string::npos);
  EXPECT_NE(ascii.find("control.throttle"), std::string::npos);
}

TEST(SceneLibrary, ExtractFeaturesReadsGoldenScenes) {
  GoldenTrace trace;
  trace.scenario_index = 0;
  for (int i = 0; i < 5; ++i) {
    ads::SceneRecord scene;
    scene.true_v = 30.0;
    scene.lead_gap = 40.0;
    scene.lead_rel_speed = -5.0;  // lead slower: closing at 5 m/s
    trace.scenes.push_back(scene);
  }
  SelectedFault fault;
  fault.fault.scenario_index = 0;
  fault.fault.scene_index = 2;
  fault.fault.target = "control.brake";
  fault.golden_delta_lon = 7.0;

  SelectedFault out_of_range = fault;
  out_of_range.fault.scene_index = 99;

  const auto features =
      extract_features({fault, out_of_range}, {trace});
  ASSERT_EQ(features.size(), 1u);  // out-of-range fault skipped
  EXPECT_DOUBLE_EQ(features[0].ego_speed, 30.0);
  EXPECT_DOUBLE_EQ(features[0].lead_gap, 40.0);
  EXPECT_DOUBLE_EQ(features[0].closing_speed, 5.0);
  EXPECT_DOUBLE_EQ(features[0].time_to_collision, 8.0);
  EXPECT_DOUBLE_EQ(features[0].delta_lon, 7.0);
}

// ---------- Importance ranking ----------

SelectedFault make_selected(const std::string& target, double predicted,
                            double golden) {
  SelectedFault sf;
  sf.fault.target = target;
  sf.prediction.delta_lon = predicted;
  sf.prediction.delta_lat = 10.0;
  sf.golden_delta_lon = golden;
  return sf;
}

TEST(Importance, RanksByValidatedHazards) {
  std::vector<SelectedFault> selected = {
      make_selected("control.throttle", -5.0, 3.0),
      make_selected("control.throttle", -4.0, 2.0),
      make_selected("control.steering", -1.0, 6.0),
  };
  CampaignStats replayed;
  InjectionRecord hazard;
  hazard.outcome = Outcome::kHazard;
  InjectionRecord benign;
  benign.outcome = Outcome::kSdcBenign;
  replayed.add(hazard);  // throttle #1
  replayed.add(hazard);  // throttle #2
  replayed.add(benign);  // steering

  const auto report = rank_targets(selected, replayed);
  ASSERT_EQ(report.targets.size(), 2u);
  EXPECT_EQ(report.targets[0].target, "control.throttle");
  EXPECT_EQ(report.targets[0].hazards, 2u);
  EXPECT_DOUBLE_EQ(report.targets[0].hazard_precision, 1.0);
  EXPECT_EQ(report.targets[1].target, "control.steering");
  EXPECT_DOUBLE_EQ(report.targets[1].hazard_precision, 0.0);
  EXPECT_DOUBLE_EQ(report.hazard_share_of_top(1), 1.0);
}

TEST(Importance, SelectionOnlyVariantAggregatesPredictions) {
  std::vector<SelectedFault> selected = {
      make_selected("a", -2.0, 4.0), make_selected("a", -6.0, 8.0),
      make_selected("b", -1.0, 1.0)};
  const auto report = rank_targets(selected);
  ASSERT_EQ(report.targets.size(), 2u);
  // No replay info: ranking falls back to selection counts.
  EXPECT_EQ(report.targets[0].target, "a");
  EXPECT_DOUBLE_EQ(report.targets[0].mean_predicted_delta, -4.0);
  EXPECT_DOUBLE_EQ(report.targets[0].min_predicted_delta, -6.0);
  EXPECT_DOUBLE_EQ(report.targets[0].mean_golden_delta, 6.0);
  EXPECT_EQ(report.targets[0].replayed, 0u);
  EXPECT_DOUBLE_EQ(report.targets[0].hazard_precision, 0.0);
}

TEST(Importance, TableContainsEveryTarget) {
  const auto report = rank_targets(
      {make_selected("x", -1.0, 2.0), make_selected("y", -2.0, 3.0)});
  const std::string csv = report.to_table().to_csv();
  EXPECT_NE(csv.find("x"), std::string::npos);
  EXPECT_NE(csv.find("y"), std::string::npos);
}

TEST(Importance, HazardShareOfTopHandlesEdges) {
  ImportanceReport empty;
  EXPECT_DOUBLE_EQ(empty.hazard_share_of_top(3), 0.0);
}

}  // namespace
}  // namespace drivefi::core
