#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "ads/pipeline.h"
#include "scenario/coverage.h"
#include "scenario/dsl.h"
#include "scenario/generators.h"
#include "sim/scenario.h"

namespace drivefi::scenario {
namespace {

// Full-precision fingerprint of a fault-free run: every scene record plus
// the ADS's believed safety potential at the tick that closed the scene.
// Two runs whose fingerprints match produced bit-identical simulations.
std::string run_fingerprint(const sim::Scenario& scenario,
                            const ads::PipelineConfig& config) {
  sim::World world(scenario.world);
  ads::AdsPipeline pipeline(world, config);
  std::ostringstream out;
  out << std::hexfloat;
  const auto ticks =
      static_cast<long>(std::llround(scenario.duration * config.base_hz));
  for (long i = 0; i < ticks; ++i) {
    const std::size_t scenes_before = pipeline.scenes().size();
    pipeline.step();
    if (pipeline.scenes().size() == scenes_before) continue;
    const ads::SceneRecord& r = pipeline.scenes().back();
    const kinematics::SafetyPotential believed =
        pipeline.believed_safety_potential();
    out << r.t << '|' << r.lead_gap << '|' << r.lead_rel_speed << '|' << r.v
        << '|' << r.y_off << '|' << r.theta << '|' << r.u_accel << '|'
        << r.u_steer << '|' << r.throttle << '|' << r.brake << '|' << r.steer
        << '|' << r.true_delta_lon << '|' << r.true_delta_lat << '|'
        << r.true_v << '|' << believed.longitudinal << '|' << r.collided
        << '|' << r.off_road << '\n';
  }
  return out.str();
}

// ---------- DSL round-trip ----------

TEST(Dsl, RoundTripsEveryBaseSuiteScenarioFieldForField) {
  for (const auto& s : sim::base_suite()) {
    const sim::Scenario reparsed = parse_scenario(serialize(s));
    EXPECT_EQ(reparsed, s) << "round-trip mismatch for " << s.name;
  }
}

TEST(Dsl, RoundTripsTheWholeSuiteInOneDocument) {
  const std::vector<sim::Scenario> suite = sim::base_suite();
  const std::vector<sim::Scenario> reparsed =
      parse_suite(serialize_suite(suite));
  EXPECT_EQ(reparsed, suite);
}

TEST(Dsl, RoundTripReproducesIdenticalSimulationTraces) {
  ads::PipelineConfig config;
  config.seed = 5;
  for (const auto& s : sim::base_suite()) {
    const sim::Scenario reparsed = parse_scenario(serialize(s));
    EXPECT_EQ(run_fingerprint(s, config), run_fingerprint(reparsed, config))
        << "trace diverged after DSL round-trip for " << s.name;
  }
}

TEST(Dsl, RoundTripsQuotedNamesEscapesAndEgoParams) {
  sim::Scenario s = sim::base_suite()[2];
  s.name = "a name with spaces # and \"quotes\"";
  s.description = "backslash \\ quote \" hash # end";
  s.world.ego_params.max_brake_decel = 7.25;
  s.world.ego_params.wheelbase = 3.1;
  EXPECT_EQ(parse_scenario(serialize(s)), s);
  // Newlines and CRs in strings must survive the line-oriented format.
  s.name = "multi\nline name";
  s.description = "first line\nsecond line\r\nthird \\n literal";
  EXPECT_EQ(parse_scenario(serialize(s)), s);
}

TEST(Dsl, SerializesNonFiniteNumbersReadably) {
  sim::Scenario s;
  s.name = "nan_duration";
  s.duration = std::numeric_limits<double>::quiet_NaN();
  const std::string text = serialize(s);
  EXPECT_NE(text.find("duration nan"), std::string::npos);
  EXPECT_TRUE(std::isnan(parse_scenario(text).duration));
  s.duration = std::numeric_limits<double>::infinity();
  EXPECT_EQ(parse_scenario(serialize(s)).duration, s.duration);
}

TEST(Dsl, RejectsOutOfRangeIntegers) {
  EXPECT_THROW(
      parse_scenario("scenario a\n  road lanes=99999999999\nend\n"), ScnError);
  EXPECT_THROW(
      parse_scenario("scenario a\n  ego lane=-99999999999\nend\n"), ScnError);
}

TEST(Dsl, ParsesCommentsBlankLinesAndKeyOrderFreely) {
  const std::string text =
      "# a comment\n"
      "scenario demo\n"
      "\n"
      "  duration 12.5   # trailing comment\n"
      "  ego speed=22 lane=0\n"
      "  road lane_width=3.5 lanes=2\n"
      "  vehicle lead speed=20 gap=30 lane=0\n"
      "    phase speed=5 t=4 accel=3\n"
      "    idm desired_speed=21 time_headway=1.2\n"
      "end\n";
  const sim::Scenario s = parse_scenario(text);
  EXPECT_EQ(s.name, "demo");
  EXPECT_DOUBLE_EQ(s.duration, 12.5);
  EXPECT_EQ(s.world.road.lanes, 2);
  EXPECT_EQ(s.world.ego_lane, 0);
  ASSERT_EQ(s.world.vehicles.size(), 1u);
  const sim::TvConfig& tv = s.world.vehicles[0];
  EXPECT_DOUBLE_EQ(tv.initial_gap, 30.0);
  ASSERT_EQ(tv.phases.size(), 1u);
  EXPECT_FALSE(tv.phases[0].target_lane.has_value());
  ASSERT_TRUE(tv.idm.has_value());
  EXPECT_DOUBLE_EQ(tv.idm->time_headway, 1.2);
  // Unset IDM keys keep their defaults.
  EXPECT_DOUBLE_EQ(tv.idm->min_gap, sim::IdmConfig{}.min_gap);
}

TEST(Dsl, RejectsMalformedInputWithLineNumbers) {
  const auto line_of = [](const std::string& text) -> std::size_t {
    try {
      parse_suite(text);
    } catch (const ScnError& e) {
      return e.line();
    }
    return 0;  // no throw
  };
  EXPECT_EQ(line_of("scenario a\nscenario b\n"), 2u);    // nested
  EXPECT_EQ(line_of("duration 4\n"), 1u);                // outside block
  EXPECT_EQ(line_of("scenario a\n  bogus 1\nend\n"), 2u);
  EXPECT_EQ(line_of("scenario a\n  road lanes=two\nend\n"), 2u);
  EXPECT_EQ(line_of("scenario a\n  road shoulders=1\nend\n"), 2u);
  EXPECT_EQ(line_of("scenario a\n  phase t=0\nend\n"), 2u);  // no vehicle
  // Quoted tokens are data, never structure: "end" must not close a block.
  EXPECT_EQ(line_of("scenario a\n  \"end\"\nend\n"), 2u);
  // Unknown escapes are hard errors, not silent char-swallowing.
  EXPECT_EQ(line_of("scenario a\n  description \"match \\d+\"\nend\n"), 2u);
  EXPECT_EQ(line_of("scenario a\n  description \"dangling\\"), 2u);
  EXPECT_EQ(line_of("scenario a\n  description \"unterminated\n"), 2u);
  EXPECT_EQ(line_of("scenario a\n"), 1u);  // never closed, reports opener
  // Procedure P takes v0 / (amax_comfort * 5 ms) steps per scene: 0.001
  // stalls golden precompute, while 0 or nan make every scene read as
  // safe. The documented floor, 1 m/s^2, parses.
  const auto ego_params_line = [&](const std::string& params) {
    return line_of("scenario a\n  duration 4\n  ego_params " + params +
                   "\nend\n");
  };
  for (const char* bad :
       {"amax_comfort=0.001", "amax_comfort=0", "amax_comfort=nan",
        "amax_comfort=0.999", "wheelbase=0", "wheelbase=-2.8",
        "wheelbase=inf", "max_speed=nan"})
    EXPECT_EQ(ego_params_line(bad), 3u) << bad;
  EXPECT_EQ(ego_params_line("amax_comfort=1"), 0u);
  EXPECT_THROW(parse_scenario(""), ScnError);
  EXPECT_THROW(parse_scenario("scenario a\nend\nscenario b\nend\n"), ScnError);
}

TEST(Dsl, SaveAndLoadSuiteThroughAFile) {
  const std::string path =
      testing::TempDir() + "/drivefi_scenario_roundtrip.scn";
  const std::vector<sim::Scenario> suite = sim::base_suite();
  save_suite(path, suite);
  EXPECT_EQ(load_suite(path), suite);
  std::remove(path.c_str());
  EXPECT_THROW(load_suite(path + ".missing"), std::runtime_error);
}

#ifdef DRIVEFI_SOURCE_DIR
TEST(Dsl, CheckedInBaseSuiteFileMatchesTheLibrary) {
  // examples/scenarios/base_suite.scn is the committed DSL equivalent of
  // sim::base_suite(); regenerate it with examples/scenario_zoo if the
  // library changes.
  const std::vector<sim::Scenario> from_file =
      load_suite(std::string(DRIVEFI_SOURCE_DIR) +
                 "/examples/scenarios/base_suite.scn");
  EXPECT_EQ(from_file, sim::base_suite());
}

TEST(Dsl, CheckedInParametricSuiteFileMatchesTheLibrary) {
  const std::vector<sim::Scenario> from_file =
      load_suite(std::string(DRIVEFI_SOURCE_DIR) +
                 "/examples/scenarios/parametric_7200.scn");
  EXPECT_EQ(from_file, sim::parametric_suite(7200, 7.5));
}
#endif

// ---------- Coverage grid ----------

TEST(Coverage, FeaturesPickTheNearestLeadInTheEgoLane) {
  sim::Scenario s = sim::base_suite()[1];  // lead_cruise: one lead at 50 m
  ScenarioFeatures f = scenario_features(s);
  EXPECT_DOUBLE_EQ(f.ego_speed, 31.0);
  EXPECT_DOUBLE_EQ(f.lead_gap, 50.0);
  EXPECT_DOUBLE_EQ(f.closing_speed, 2.0);
  EXPECT_DOUBLE_EQ(f.ttc, 25.0);

  // A vehicle behind the ego or in another lane is not a lead.
  sim::Scenario open = sim::base_suite()[0];
  f = scenario_features(open);
  EXPECT_LT(f.lead_gap, 0.0);
  EXPECT_DOUBLE_EQ(f.closing_speed, 0.0);
  EXPECT_GT(f.ttc, 1e8);
}

TEST(Coverage, CellIndexingIsBijectiveOverBands) {
  ScenarioCoverage coverage;
  EXPECT_EQ(coverage.total_cells(),
            ScenarioCoverage::kSpeedBands * ScenarioCoverage::kGapBands *
                ScenarioCoverage::kClosingBands * ScenarioCoverage::kTtcBands);
  // Distinct feature bands map to distinct cells.
  ScenarioFeatures slow_far{.ego_speed = 5.0, .lead_gap = 120.0,
                            .closing_speed = 0.0, .ttc = 1e9};
  ScenarioFeatures fast_close{.ego_speed = 35.0, .lead_gap = 5.0,
                              .closing_speed = 20.0, .ttc = 0.25};
  EXPECT_NE(coverage.cell_of(slow_far), coverage.cell_of(fast_close));
  // No-lead scenarios canonicalize closing/TTC: one reachable cell per
  // speed band.
  ScenarioFeatures none_a{.ego_speed = 25.0, .lead_gap = -1.0,
                          .closing_speed = 7.0, .ttc = 2.0};
  ScenarioFeatures none_b{.ego_speed = 25.0, .lead_gap = -1.0,
                          .closing_speed = 0.0, .ttc = 1e9};
  EXPECT_EQ(coverage.cell_of(none_a), coverage.cell_of(none_b));
}

TEST(Coverage, AddAccumulatesAndReports) {
  ScenarioCoverage coverage;
  EXPECT_EQ(coverage.occupied_cells(), 0u);
  const auto suite = sim::base_suite();
  for (const auto& s : suite) coverage.add(s);
  EXPECT_EQ(coverage.scenarios_added(), suite.size());
  EXPECT_GT(coverage.occupied_cells(), 1u);
  EXPECT_LE(coverage.occupied_cells(), suite.size());
  EXPECT_GT(coverage.fraction_covered(), 0.0);

  const std::string record = coverage.jsonl_record();
  EXPECT_NE(record.find("\"type\":\"scenario_coverage\""), std::string::npos);
  EXPECT_NE(record.find("\"cells_occupied\""), std::string::npos);

  // The marginal table accounts for every added scenario in each feature.
  const std::string table = coverage.to_table().to_csv();
  EXPECT_NE(table.find("ego_speed"), std::string::npos);
  EXPECT_NE(table.find("no lead"), std::string::npos);
}

// ---------- Sampler ----------

TEST(Sampler, TwoHundredScenariosAreBitIdenticalAcrossInvocations) {
  const ScenarioSampler a(2024), b(2024);
  const std::vector<sim::Scenario> first = a.sample_suite(200);
  const std::vector<sim::Scenario> second = b.sample_suite(200);
  ASSERT_EQ(first.size(), 200u);
  EXPECT_EQ(first, second);
  // Serialized text (shortest-exact to_chars forms) is byte-identical too.
  EXPECT_EQ(serialize_suite(first), serialize_suite(second));
}

TEST(Sampler, SampleIsAPureFunctionOfSeedAndIndex) {
  const ScenarioSampler sampler(7);
  const sim::Scenario late = sampler.sample(150);
  // Drawing other indices first (in any order) cannot perturb index 150.
  (void)sampler.sample(0);
  (void)sampler.sample(151);
  EXPECT_EQ(sampler.sample(150), late);
  // A different seed draws a different corpus.
  EXPECT_NE(ScenarioSampler(8).sample_suite(20), sampler.sample_suite(20));
}

TEST(Sampler, ProducesAllPrimitivesAndUniqueNames) {
  const ScenarioSampler sampler(99);
  const auto suite = sampler.sample_suite(200);
  std::set<std::string> names;
  std::map<std::string, int> per_generator;
  for (const auto& s : suite) {
    EXPECT_TRUE(names.insert(s.name).second) << "duplicate name " << s.name;
    for (const auto& gen : generators())
      if (s.name.rfind(gen.name + "_s", 0) == 0) ++per_generator[gen.name];
    EXPECT_GE(s.world.ego_lane, 0);
    EXPECT_LT(s.world.ego_lane, s.world.road.lanes);
    for (const auto& tv : s.world.vehicles) {
      EXPECT_GE(tv.initial_lane, 0);
      EXPECT_LT(tv.initial_lane, s.world.road.lanes);
      for (const auto& ph : tv.phases)
        if (ph.target_lane) {
          EXPECT_GE(*ph.target_lane, 0);
          EXPECT_LT(*ph.target_lane, s.world.road.lanes);
        }
    }
  }
  for (const auto& gen : generators())
    EXPECT_GT(per_generator[gen.name], 0)
        << "generator " << gen.name << " never sampled";
}

TEST(Sampler, SampledScenariosRoundTripThroughTheDsl) {
  const auto suite = ScenarioSampler(11).sample_suite(50);
  EXPECT_EQ(parse_suite(serialize_suite(suite)), suite);
}

TEST(Sampler, CoverageGuidedSamplingIsDeterministic) {
  const ScenarioSampler sampler(5150);
  ScenarioCoverage cov_a, cov_b;
  const auto first = sampler.sample_covering(200, cov_a);
  const auto second = sampler.sample_covering(200, cov_b);
  EXPECT_EQ(first, second);
  EXPECT_EQ(cov_a.jsonl_record(), cov_b.jsonl_record());
}

TEST(Sampler, BeatsParametricSuiteCoverageAtEqualScenarioCount) {
  // The acceptance bar: at 200 scenarios, sampled corpora occupy strictly
  // more kinematic-grid cells than the hand-parameterized expansion.
  constexpr std::size_t kCount = 200;
  std::vector<sim::Scenario> parametric = sim::parametric_suite(70000, 7.5);
  ASSERT_GE(parametric.size(), kCount);
  parametric.resize(kCount);
  ScenarioCoverage parametric_cov;
  for (const auto& s : parametric) parametric_cov.add(s);

  const ScenarioSampler sampler(2024);
  ScenarioCoverage uniform_cov;
  for (const auto& s : sampler.sample_suite(kCount)) uniform_cov.add(s);

  ScenarioCoverage guided_cov;
  (void)sampler.sample_covering(kCount, guided_cov);

  EXPECT_GT(uniform_cov.occupied_cells(), parametric_cov.occupied_cells());
  EXPECT_GT(guided_cov.occupied_cells(), parametric_cov.occupied_cells());
  // Preferring empty cells must not do worse than not looking at all.
  EXPECT_GE(guided_cov.occupied_cells(), uniform_cov.occupied_cells());
}

}  // namespace
}  // namespace drivefi::scenario
