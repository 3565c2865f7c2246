#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <memory>
#include <sstream>
#include <thread>
#include <vector>

#include "bn/compiled.h"
#include "bn/dbn.h"
#include "bn/fit.h"
#include "bn/gaussian.h"
#include "bn/graph.h"
#include "bn/network.h"
#include "bn/sampling.h"
#include "bn/serialize.h"
#include "obs/metrics.h"
#include "util/rng.h"
#include "util/stats.h"

namespace drivefi::bn {
namespace {

// ---------- Dag ----------

TEST(Dag, AddNodesAndEdges) {
  Dag dag;
  const NodeId a = dag.add_node("a");
  const NodeId b = dag.add_node("b");
  EXPECT_TRUE(dag.add_edge(a, b));
  EXPECT_TRUE(dag.has_edge(a, b));
  EXPECT_FALSE(dag.add_edge(a, b));  // duplicate
  EXPECT_EQ(dag.find("a"), a);
  EXPECT_FALSE(dag.find("zzz").has_value());
}

TEST(Dag, RejectsCycles) {
  Dag dag;
  const NodeId a = dag.add_node("a");
  const NodeId b = dag.add_node("b");
  const NodeId c = dag.add_node("c");
  EXPECT_TRUE(dag.add_edge(a, b));
  EXPECT_TRUE(dag.add_edge(b, c));
  EXPECT_FALSE(dag.add_edge(c, a));  // would close the cycle
  EXPECT_FALSE(dag.add_edge(a, a));  // self loop
}

TEST(Dag, TopologicalOrderRespectsEdges) {
  Dag dag;
  const NodeId a = dag.add_node("a");
  const NodeId b = dag.add_node("b");
  const NodeId c = dag.add_node("c");
  dag.add_edge(a, c);
  dag.add_edge(b, c);
  const auto order = dag.topological_order();
  ASSERT_EQ(order.size(), 3u);
  std::size_t pos_a = 0, pos_b = 0, pos_c = 0;
  for (std::size_t i = 0; i < order.size(); ++i) {
    if (order[i] == a) pos_a = i;
    if (order[i] == b) pos_b = i;
    if (order[i] == c) pos_c = i;
  }
  EXPECT_LT(pos_a, pos_c);
  EXPECT_LT(pos_b, pos_c);
}

TEST(Dag, SeverParentsImplementsDoSurgery) {
  Dag dag;
  const NodeId a = dag.add_node("a");
  const NodeId b = dag.add_node("b");
  dag.add_edge(a, b);
  dag.sever_parents(b);
  EXPECT_TRUE(dag.parents(b).empty());
  EXPECT_FALSE(dag.reaches(a, b));
}

// ---------- MultivariateGaussian ----------

TEST(Gaussian, ConditionBivariateHandComputed) {
  // X ~ N(1, 2), Y = X + noise: cov = [[2, 2], [2, 3]], mu = [1, 2].
  MultivariateGaussian joint(util::Vector{1.0, 2.0},
                             util::Matrix{{2.0, 2.0}, {2.0, 3.0}});
  // Condition on Y = 4: E[X|Y=4] = 1 + (2/3)(4-2) = 7/3,
  // Var[X|Y] = 2 - 4/3 = 2/3.
  const auto cond = joint.condition({{1, 4.0}});
  ASSERT_EQ(cond.dim(), 1u);
  EXPECT_NEAR(cond.mean()[0], 7.0 / 3.0, 1e-10);
  EXPECT_NEAR(cond.covariance()(0, 0), 2.0 / 3.0, 1e-10);
}

TEST(Gaussian, MarginalPreservesEntries) {
  MultivariateGaussian joint(
      util::Vector{1.0, 2.0, 3.0},
      util::Matrix{{2.0, 0.5, 0.1}, {0.5, 1.0, 0.2}, {0.1, 0.2, 3.0}});
  const auto marg = joint.marginal({2, 0});
  EXPECT_DOUBLE_EQ(marg.mean()[0], 3.0);
  EXPECT_DOUBLE_EQ(marg.mean()[1], 1.0);
  EXPECT_DOUBLE_EQ(marg.covariance()(0, 1), 0.1);
}

TEST(Gaussian, ConditioningReducesVariance) {
  MultivariateGaussian joint(util::Vector{0.0, 0.0},
                             util::Matrix{{1.0, 0.8}, {0.8, 1.0}});
  const auto cond = joint.condition({{1, 1.0}});
  EXPECT_LT(cond.covariance()(0, 0), 1.0);
}

TEST(Gaussian, LogPdfStandardNormal) {
  MultivariateGaussian g(util::Vector{0.0}, util::Matrix{{1.0}});
  EXPECT_NEAR(g.log_pdf(util::Vector{0.0}),
              -0.5 * std::log(2.0 * M_PI), 1e-9);
}

// ---------- LinearGaussianNetwork ----------

LinearGaussianNetwork chain_network() {
  // x ~ N(1, 1); y = 2x + 1 + N(0, 0.5); z = -y + N(0, 0.25)
  LinearGaussianNetwork net;
  net.add_node("x", {}, {}, 1.0, 1.0);
  net.add_node("y", {"x"}, {2.0}, 1.0, 0.5);
  net.add_node("z", {"y"}, {-1.0}, 0.0, 0.25);
  return net;
}

TEST(LinearGaussian, JointMeanAndCovariance) {
  const auto joint = chain_network().joint();
  // E[x]=1, E[y]=3, E[z]=-3.
  EXPECT_NEAR(joint.mean()[0], 1.0, 1e-12);
  EXPECT_NEAR(joint.mean()[1], 3.0, 1e-12);
  EXPECT_NEAR(joint.mean()[2], -3.0, 1e-12);
  // Var(x)=1; Var(y)=4*1+0.5=4.5; Var(z)=4.5+0.25=4.75.
  EXPECT_NEAR(joint.covariance()(0, 0), 1.0, 1e-12);
  EXPECT_NEAR(joint.covariance()(1, 1), 4.5, 1e-12);
  EXPECT_NEAR(joint.covariance()(2, 2), 4.75, 1e-12);
  // cov(x,y)=2; cov(y,z)=-4.5; cov(x,z)=-2.
  EXPECT_NEAR(joint.covariance()(0, 1), 2.0, 1e-12);
  EXPECT_NEAR(joint.covariance()(1, 2), -4.5, 1e-12);
  EXPECT_NEAR(joint.covariance()(0, 2), -2.0, 1e-12);
}

TEST(LinearGaussian, PosteriorMeanOnChain) {
  const auto net = chain_network();
  // Given x = 2: E[y] = 5, E[z] = -5.
  const auto mean = net.posterior_mean({{"x", 2.0}}, {"y", "z"});
  EXPECT_NEAR(mean[0], 5.0, 1e-10);
  EXPECT_NEAR(mean[1], -5.0, 1e-10);
}

TEST(LinearGaussian, SamplingMatchesJoint) {
  const auto net = chain_network();
  util::Rng rng(3);
  double sum_y = 0.0, sum_y2 = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const auto values = net.sample(rng);
    sum_y += values[1];
    sum_y2 += values[1] * values[1];
  }
  const double mean = sum_y / n;
  const double var = sum_y2 / n - mean * mean;
  EXPECT_NEAR(mean, 3.0, 0.05);
  EXPECT_NEAR(var, 4.5, 0.15);
}

// The canonical do-vs-observe distinction: confounder w -> x, w -> y with
// no direct x -> y edge. Observing x changes belief about y (through w);
// intervening on x must NOT (x has no causal path to y).
TEST(LinearGaussian, DoDiffersFromObserveUnderConfounding) {
  LinearGaussianNetwork net;
  net.add_node("w", {}, {}, 0.0, 1.0);
  net.add_node("x", {"w"}, {1.0}, 0.0, 0.1);
  net.add_node("y", {"w"}, {1.0}, 0.0, 0.1);

  const auto observed = net.posterior_mean({{"x", 2.0}}, {"y"});
  EXPECT_GT(observed[0], 1.0);  // back-door correlation

  const auto intervened = net.do_posterior_mean({{"x", 2.0}}, {}, {"y"});
  EXPECT_NEAR(intervened[0], 0.0, 1e-10);  // causal effect is zero
}

TEST(LinearGaussian, DoPropagatesAlongCausalPath) {
  const auto net = chain_network();
  const auto intervened = net.do_posterior_mean({{"y", 10.0}}, {}, {"z"});
  EXPECT_NEAR(intervened[0], -10.0, 1e-10);
}

TEST(LinearGaussian, InterveneCutsUpstreamInference) {
  const auto net = chain_network();
  // After do(y=10), y carries no information about x.
  const auto mutilated = net.intervene({{"y", 10.0}});
  const auto mean = mutilated.posterior_mean({{"y", 10.0}}, {"x"});
  EXPECT_NEAR(mean[0], 1.0, 1e-10);  // prior mean of x
}

TEST(LinearGaussian, DoPosteriorDropsConflictingEvidence) {
  const auto net = chain_network();
  // Evidence on y should be overridden by do(y=...).
  const auto mean =
      net.do_posterior_mean({{"y", 10.0}}, {{"y", -5.0}}, {"z"});
  EXPECT_NEAR(mean[0], -10.0, 1e-10);
}

// Hand-computed 3-node check of do_posterior_mean with BOTH an
// intervention and evidence in play: confounder w -> x and w -> y, plus a
// direct causal edge x -> y.
//   w ~ N(0, 1);  x = w + N(0, 1);  y = x + w + N(0, 1).
// Under do(x = 2) the w -> x edge is severed, so
//   E[y | do(x=2), w=1] = 2 + 1       = 3   (structural equation)
//   E[y | do(x=2)]      = 2 + E[w]    = 2
// whereas OBSERVING x = 2 back-infers w: E[w | x=2] = cov/var = 1/2 * 2
// = 1, so E[y | x=2] = 2 + 1 = 3 even without w evidence.
TEST(LinearGaussian, DoPosteriorMeanHandComputedThreeNode) {
  LinearGaussianNetwork net;
  net.add_node("w", {}, {}, 0.0, 1.0);
  net.add_node("x", {"w"}, {1.0}, 0.0, 1.0);
  net.add_node("y", {"x", "w"}, {1.0, 1.0}, 0.0, 1.0);

  const auto with_evidence =
      net.do_posterior_mean({{"x", 2.0}}, {{"w", 1.0}}, {"y"});
  EXPECT_NEAR(with_evidence[0], 3.0, 1e-12);

  const auto without_evidence = net.do_posterior_mean({{"x", 2.0}}, {}, {"y"});
  EXPECT_NEAR(without_evidence[0], 2.0, 1e-12);

  const auto observed = net.posterior_mean({{"x", 2.0}}, {"y"});
  EXPECT_NEAR(observed[0], 3.0, 1e-10);
}

// Nodes with no path from the intervention site keep their posterior
// mean; nodes downstream of it move.
TEST(LinearGaussian, InterventionOnlyMovesDConnectedNodes) {
  LinearGaussianNetwork net;
  net.add_node("a", {}, {}, 0.0, 1.0);
  net.add_node("b", {"a"}, {0.7}, 0.0, 0.5);
  net.add_node("c", {"b"}, {0.9}, 0.0, 0.5);
  net.add_node("d", {}, {}, 2.0, 1.0);  // disconnected from a/b/c

  const auto base = net.posterior_mean({}, {"c", "d"});
  const auto after = net.do_posterior_mean({{"b", 3.0}}, {}, {"c", "d"});
  EXPECT_NE(after[0], base[0]);             // c is downstream of do(b)
  EXPECT_DOUBLE_EQ(after[1], base[1]);      // d is d-separated
}

// ---------- Fitting ----------

TEST(Fit, RecoversSyntheticCoefficients) {
  // Ground truth: y = 3x - 2 + N(0, 0.2^2).
  LinearGaussianNetwork truth;
  truth.add_node("x", {}, {}, 5.0, 2.0);
  truth.add_node("y", {"x"}, {3.0}, -2.0, 0.04);

  util::Rng rng(17);
  Dataset data;
  data.columns = {"x", "y"};
  for (int i = 0; i < 5000; ++i) {
    const auto values = truth.sample(rng);
    data.add_row({values[0], values[1]});
  }

  const auto fitted = fit_network({{"x", {}}, {"y", {"x"}}}, data);
  const auto& cpd = fitted.cpd(fitted.id("y"));
  EXPECT_NEAR(cpd.weights[0], 3.0, 0.02);
  EXPECT_NEAR(cpd.bias, -2.0, 0.12);
  EXPECT_NEAR(cpd.variance, 0.04, 0.01);
}

TEST(Fit, RootNodeUsesSampleMoments) {
  Dataset data;
  data.columns = {"x"};
  for (double v : {1.0, 2.0, 3.0, 4.0, 5.0}) data.add_row({v});
  const auto net = fit_network({{"x", {}}}, data);
  const auto& cpd = net.cpd(net.id("x"));
  EXPECT_NEAR(cpd.bias, 3.0, 1e-12);
  EXPECT_NEAR(cpd.variance, 2.0, 1e-12);  // MLE (divide by n)
}

TEST(Fit, MultiParentRecovery) {
  util::Rng rng(23);
  Dataset data;
  data.columns = {"a", "b", "c"};
  for (int i = 0; i < 5000; ++i) {
    const double a = rng.gaussian(0.0, 1.0);
    const double b = rng.gaussian(2.0, 1.5);
    const double c = 0.5 * a - 1.5 * b + 4.0 + rng.gaussian(0.0, 0.1);
    data.add_row({a, b, c});
  }
  const auto net =
      fit_network({{"a", {}}, {"b", {}}, {"c", {"a", "b"}}}, data);
  const auto& cpd = net.cpd(net.id("c"));
  EXPECT_NEAR(cpd.weights[0], 0.5, 0.02);
  EXPECT_NEAR(cpd.weights[1], -1.5, 0.02);
  EXPECT_NEAR(cpd.bias, 4.0, 0.05);
}

TEST(Fit, DiagnosticsReportGoodFit) {
  util::Rng rng(29);
  Dataset data;
  data.columns = {"x", "y"};
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.gaussian(0.0, 1.0);
    data.add_row({x, 2.0 * x + rng.gaussian(0.0, 0.01)});
  }
  const auto net = fit_network({{"x", {}}, {"y", {"x"}}}, data);
  const auto diags = evaluate_fit(net, data);
  ASSERT_EQ(diags.size(), 2u);
  EXPECT_GT(diags[1].r2, 0.99);
}

// Parameterized property: fitting recovers weights across noise levels.
class FitNoiseSweep : public ::testing::TestWithParam<double> {};

TEST_P(FitNoiseSweep, WeightRecoveredWithinTolerance) {
  const double noise = GetParam();
  util::Rng rng(101 + static_cast<std::uint64_t>(noise * 1000));
  Dataset data;
  data.columns = {"x", "y"};
  for (int i = 0; i < 8000; ++i) {
    const double x = rng.gaussian(1.0, 2.0);
    data.add_row({x, -1.2 * x + 0.7 + rng.gaussian(0.0, noise)});
  }
  const auto net = fit_network({{"x", {}}, {"y", {"x"}}}, data);
  EXPECT_NEAR(net.cpd(net.id("y")).weights[0], -1.2, 0.05 + noise * 0.02);
}

INSTANTIATE_TEST_SUITE_P(NoiseLevels, FitNoiseSweep,
                         ::testing::Values(0.01, 0.1, 0.5, 1.0));

// ---------- DBN ----------

DbnTemplate simple_template() {
  DbnTemplate t;
  t.add_variable("u");
  t.add_variable("v");
  t.add_intra_edge("u", "v");
  t.add_inter_edge("v", "v");
  t.add_inter_edge("u", "u");
  return t;
}

TEST(Dbn, UnrolledSpecsShape) {
  const auto specs = simple_template().unrolled_specs(3);
  ASSERT_EQ(specs.size(), 6u);
  EXPECT_EQ(specs[0].name, "u@0");
  EXPECT_TRUE(specs[0].parents.empty());
  EXPECT_EQ(specs[1].name, "v@0");
  ASSERT_EQ(specs[1].parents.size(), 1u);
  EXPECT_EQ(specs[1].parents[0], "u@0");
  // Slice 1's v has intra parent u@1 and inter parent v@0.
  const auto& v1 = specs[3];
  EXPECT_EQ(v1.name, "v@1");
  ASSERT_EQ(v1.parents.size(), 2u);
  EXPECT_EQ(v1.parents[0], "u@1");
  EXPECT_EQ(v1.parents[1], "v@0");
}

TEST(Dbn, UnrolledDatasetWindows) {
  Dataset trace;
  trace.columns = {"u", "v"};
  for (int i = 0; i < 5; ++i)
    trace.add_row({static_cast<double>(i), static_cast<double>(10 * i)});
  const auto unrolled = simple_template().unrolled_dataset(trace, 3);
  ASSERT_EQ(unrolled.rows.size(), 3u);  // windows [0..2],[1..3],[2..4]
  EXPECT_EQ(unrolled.columns.size(), 6u);
  // Window 1: u@0 = 1, v@2 = 30.
  EXPECT_DOUBLE_EQ(unrolled.rows[1][0], 1.0);
  EXPECT_DOUBLE_EQ(unrolled.rows[1][5], 30.0);
}

TEST(Dbn, FitAndPredictAr1) {
  // v_t = 0.9 v_{t-1} + 1 + noise; check the fitted inter weight.
  util::Rng rng(7);
  Dataset trace;
  trace.columns = {"u", "v"};
  double v = 10.0;
  for (int i = 0; i < 3000; ++i) {
    trace.add_row({0.0, v});
    v = 0.9 * v + 1.0 + rng.gaussian(0.0, 0.05);
  }
  DbnTemplate t;
  t.add_variable("u");
  t.add_variable("v");
  t.add_inter_edge("v", "v");
  const auto net = t.fit(trace, 2);
  const auto& cpd = net.cpd(net.id("v@1"));
  ASSERT_EQ(cpd.weights.size(), 1u);
  EXPECT_NEAR(cpd.weights[0], 0.9, 0.03);
}

// ---------- Approximate inference (sampling) ----------

LinearGaussianNetwork small_chain() {
  LinearGaussianNetwork net;
  net.add_node("x", {}, {}, 1.0, 1.0);
  net.add_node("y", {"x"}, {2.0}, 0.5, 0.25);
  net.add_node("z", {"y"}, {-1.0}, 0.0, 0.5);
  return net;
}

TEST(Sampling, LikelihoodWeightingMatchesExactPosterior) {
  const auto net = small_chain();
  const std::vector<Assignment> evidence = {{"z", -3.0}};
  const std::vector<std::string> query = {"x", "y"};
  const auto exact = net.posterior_mean(evidence, query);

  util::Rng rng(17);
  SamplingConfig config;
  config.samples = 20000;
  const auto approx = likelihood_weighting(net, evidence, query, rng, config);
  ASSERT_EQ(approx.mean.size(), 2u);
  EXPECT_NEAR(approx.mean[0], exact[0], 0.1);
  EXPECT_NEAR(approx.mean[1], exact[1], 0.1);
  EXPECT_GT(approx.effective_samples, 100.0);
}

TEST(Sampling, GibbsMatchesExactPosterior) {
  const auto net = small_chain();
  const std::vector<Assignment> evidence = {{"z", -3.0}};
  const std::vector<std::string> query = {"x", "y"};
  const auto exact = net.posterior_mean(evidence, query);

  util::Rng rng(23);
  SamplingConfig config;
  config.samples = 5000;
  config.burn_in = 500;
  const auto approx = gibbs(net, evidence, query, rng, config);
  EXPECT_NEAR(approx.mean[0], exact[0], 0.1);
  EXPECT_NEAR(approx.mean[1], exact[1], 0.1);
}

TEST(Sampling, PriorMeanWithoutEvidence) {
  const auto net = small_chain();
  util::Rng rng(5);
  const auto lw = likelihood_weighting(net, {}, {"y"}, rng);
  // Prior mean of y = 2 * E[x] + 0.5 = 2.5.
  EXPECT_NEAR(lw.mean[0], 2.5, 0.15);
}

TEST(Sampling, DeterministicEvidenceRejectsInfeasibleParticles) {
  LinearGaussianNetwork net;
  net.add_node("x", {}, {}, 0.0, 1.0);
  net.add_node("y", {"x"}, {1.0}, 0.0, 0.0);  // y == x deterministically
  util::Rng rng(3);
  // Evidence y = 0.4 contradicts almost every sampled x; the estimator
  // must discard infeasible particles and report near-zero ESS rather
  // than producing garbage.
  const auto lw = likelihood_weighting(net, {{"y", 0.4}}, {"x"}, rng);
  EXPECT_LT(lw.effective_samples, 1.0);
}

TEST(Sampling, GibbsHandlesDeterministicDownstreamNode) {
  LinearGaussianNetwork net;
  net.add_node("x", {}, {}, 1.0, 1.0);
  net.add_node("y", {"x"}, {3.0}, 0.0, 0.0);  // y = 3x deterministically
  util::Rng rng(9);
  SamplingConfig config;
  config.samples = 2000;
  const auto result = gibbs(net, {}, {"y"}, rng, config);
  EXPECT_NEAR(result.mean[0], 3.0, 0.25);
}

// ---------- Serialization ----------

TEST(Serialize, RoundTripPreservesCpds) {
  const auto net = small_chain();
  std::stringstream buffer;
  save_network(net, buffer);
  const auto loaded = load_network(buffer);

  ASSERT_EQ(loaded.node_count(), net.node_count());
  for (const auto& name : {"x", "y", "z"}) {
    const auto& original = net.cpd(net.id(name));
    const auto& restored = loaded.cpd(loaded.id(name));
    EXPECT_DOUBLE_EQ(restored.bias, original.bias) << name;
    EXPECT_DOUBLE_EQ(restored.variance, original.variance) << name;
    ASSERT_EQ(restored.weights.size(), original.weights.size()) << name;
    for (std::size_t i = 0; i < original.weights.size(); ++i)
      EXPECT_DOUBLE_EQ(restored.weights[i], original.weights[i]) << name;
  }
}

TEST(Serialize, RoundTripPreservesInference) {
  const auto net = small_chain();
  std::stringstream buffer;
  save_network(net, buffer);
  const auto loaded = load_network(buffer);
  const std::vector<Assignment> evidence = {{"z", 1.0}};
  const auto a = net.posterior_mean(evidence, {"x"});
  const auto b = loaded.posterior_mean(evidence, {"x"});
  EXPECT_DOUBLE_EQ(a[0], b[0]);
}

TEST(Serialize, RejectsBadMagic) {
  std::stringstream buffer("not-a-network 1\n");
  EXPECT_THROW(load_network(buffer), std::runtime_error);
}

TEST(Serialize, RejectsUnknownVersion) {
  std::stringstream buffer("drivefi-bn 99\n");
  EXPECT_THROW(load_network(buffer), std::runtime_error);
}

TEST(Serialize, RejectsTruncatedRecord) {
  std::stringstream buffer("drivefi-bn 1\nnode x 0.0\n");
  EXPECT_THROW(load_network(buffer), std::runtime_error);
}

TEST(Serialize, RejectsForwardParentReference) {
  std::stringstream buffer(
      "drivefi-bn 1\n"
      "node y 0.0 1.0 1 x 2.0\n"
      "node x 0.0 1.0 0\n");
  EXPECT_THROW(load_network(buffer), std::runtime_error);
}

TEST(Serialize, MetaRoundTripsWithNetwork) {
  const auto net = small_chain();
  NetworkMeta meta = {{"slices", 4.0}, {"scene_hz", 7.5}, {"amax", 6.0}};
  std::stringstream buffer;
  save_network(net, buffer, meta);
  EXPECT_NE(buffer.str().find("drivefi-bn 2"), std::string::npos);

  NetworkMeta restored;
  const auto loaded = load_network(buffer, &restored);
  EXPECT_EQ(restored, meta);
  EXPECT_EQ(loaded.node_count(), net.node_count());
}

TEST(Serialize, EmptyMetaKeepsVersionOneByteStream) {
  const auto net = small_chain();
  std::stringstream buffer;
  save_network(net, buffer);
  EXPECT_NE(buffer.str().find("drivefi-bn 1"), std::string::npos);
  EXPECT_EQ(buffer.str().find("meta"), std::string::npos);

  // Loading a v1 file with a meta out-param yields an empty map.
  NetworkMeta restored = {{"stale", 1.0}};
  load_network(buffer, &restored);
  EXPECT_TRUE(restored.empty());
}

TEST(Serialize, RejectsInvalidMetaBeforeWritingAnything) {
  // A bad meta map must fail BEFORE any bytes hit the stream -- a
  // half-written meta section would be permanently unloadable.
  const auto net = small_chain();
  for (const NetworkMeta& bad :
       {NetworkMeta{{"", 1.0}}, NetworkMeta{{"two words", 1.0}},
        NetworkMeta{{"nan_value", std::nan("")}}}) {
    std::stringstream buffer;
    EXPECT_THROW(save_network(net, buffer, bad), std::runtime_error);
    EXPECT_TRUE(buffer.str().empty());
  }
}

TEST(Serialize, RejectsMetaInVersionOneFile) {
  std::stringstream buffer(
      "drivefi-bn 1\n"
      "meta 1 slices 4\n"
      "node x 0.0 1.0 0\n");
  EXPECT_THROW(load_network(buffer), std::runtime_error);
}

TEST(Serialize, RejectsTruncatedMeta) {
  std::stringstream buffer("drivefi-bn 2\nmeta 2 slices 4\n");
  EXPECT_THROW(load_network(buffer), std::runtime_error);
}

// ---------- Compiled inference engine ----------

TEST(Compiled, ObservationalPlanMatchesExactConditioning) {
  const auto net = small_chain();
  const CompiledNetwork compiled(net);
  const auto& plan = compiled.prepare({"z"}, {"x", "y"});
  for (double z : {-3.0, 0.0, 1.7, 42.0}) {
    const auto exact = net.posterior_mean({{"z", z}}, {"x", "y"});
    const auto fast = plan.mean({z});
    ASSERT_EQ(fast.size(), 2u);
    EXPECT_NEAR(fast[0], exact[0], 1e-12) << z;
    EXPECT_NEAR(fast[1], exact[1], 1e-12) << z;
  }
}

TEST(Compiled, DoPlanMatchesExactCounterfactual) {
  // Confounded net where do() and observe differ; the compiled do-plan
  // must reproduce the exact graph-surgery path for any (value, evidence).
  LinearGaussianNetwork net;
  net.add_node("w", {}, {}, 0.5, 1.0);
  net.add_node("x", {"w"}, {1.0}, 0.0, 1.0);
  net.add_node("y", {"x", "w"}, {1.0, 1.0}, 0.25, 1.0);
  net.add_node("z", {"y"}, {-2.0}, 0.0, 0.5);

  const CompiledNetwork compiled(net);
  const auto& plan = compiled.prepare_do({"x"}, {"w"}, {"y", "z"});
  for (double x : {-1.0, 0.0, 2.0})
    for (double w : {-2.0, 1.0}) {
      const auto exact = net.do_posterior_mean({{"x", x}}, {{"w", w}},
                                               {"y", "z"});
      const auto fast = plan.mean({x}, {w});
      EXPECT_NEAR(fast[0], exact[0], 1e-12) << x << "," << w;
      EXPECT_NEAR(fast[1], exact[1], 1e-12) << x << "," << w;
    }
}

TEST(Compiled, PosteriorCovarianceMatchesExact) {
  const auto net = small_chain();
  const CompiledNetwork compiled(net);
  const auto& plan = compiled.prepare({"z"}, {"x", "y"});
  const auto exact = net.posterior({{"z", 1.0}}, {"x", "y"});
  for (std::size_t r = 0; r < 2; ++r)
    for (std::size_t c = 0; c < 2; ++c)
      EXPECT_NEAR(plan.posterior_covariance()(r, c),
                  exact.covariance()(r, c), 1e-10);
}

TEST(Compiled, PlansAreCachedPerStructure) {
  const auto net = small_chain();
  const CompiledNetwork compiled(net);
  const auto& a = compiled.prepare({"x"}, {"z"});
  const auto& b = compiled.prepare({"x"}, {"z"});
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(compiled.plan_count(), 1u);
  compiled.prepare_do({"y"}, {"x"}, {"z"});
  EXPECT_EQ(compiled.plan_count(), 2u);
}

TEST(Compiled, ConcurrentRequestsForOneStructureShareOnePlan) {
  // A plan compiles outside the cache lock. Threads that ask for one
  // structure at once all get the plan that was inserted, and the cache
  // counts one miss and a hit for every other request, however the
  // requests interleave. The chain is long enough that a plan takes a
  // while to compile: conditioning on every other node factors a 60 x 60
  // block.
  const auto node_name = [](std::size_t i) {
    std::string name("n");
    name += std::to_string(i);
    return name;
  };
  LinearGaussianNetwork net;
  net.add_node(node_name(0), {}, {}, 0.0, 1.0);
  for (std::size_t i = 1; i < 121; ++i)
    net.add_node(node_name(i), {node_name(i - 1)}, {0.9}, 0.1, 0.5);
  std::vector<std::string> evidence;
  for (std::size_t i = 0; i < 120; i += 2) evidence.push_back(node_name(i));
  const std::vector<std::string> interventions = {node_name(61)};
  const std::vector<std::string> query = {node_name(120)};

  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kRounds = 20;
  std::vector<std::unique_ptr<CompiledNetwork>> networks;
  for (std::size_t round = 0; round < kRounds; ++round)
    networks.push_back(std::make_unique<CompiledNetwork>(net));
  std::vector<std::vector<const CompiledQuery*>> plans(
      kRounds, std::vector<const CompiledQuery*>(kThreads));
  obs::Counter& misses = obs::metrics().counter("bn.plan_cache_misses");
  obs::Counter& hits = obs::metrics().counter("bn.plan_cache_hits");
  const std::uint64_t misses_before = misses.value();
  const std::uint64_t hits_before = hits.value();
  {
    // A barrier before each round lines the threads' requests up.
    std::atomic<std::size_t> arrived{0};
    std::vector<std::jthread> threads;
    for (std::size_t t = 0; t < kThreads; ++t)
      threads.emplace_back([&, t] {
        for (std::size_t round = 0; round < kRounds; ++round) {
          arrived.fetch_add(1);
          while (arrived.load() < (round + 1) * kThreads)
            std::this_thread::yield();
          plans[round][t] =
              &networks[round]->prepare_do(interventions, evidence, query);
        }
      });
  }
  EXPECT_EQ(misses.value() - misses_before, kRounds);
  EXPECT_EQ(hits.value() - hits_before, kRounds * (kThreads - 1));
  for (std::size_t round = 0; round < kRounds; ++round) {
    EXPECT_EQ(networks[round]->plan_count(), 1u);
    for (const CompiledQuery* plan : plans[round])
      EXPECT_EQ(plan, plans[round][0]);
  }
}

TEST(Compiled, RejectsOverlappingStructure) {
  const auto net = small_chain();
  const CompiledNetwork compiled(net);
  EXPECT_THROW(compiled.prepare({"x"}, {"x"}), std::invalid_argument);
  EXPECT_THROW(compiled.prepare_do({"y"}, {"y"}, {"z"}),
               std::invalid_argument);
}

TEST(Compiled, NoEvidencePlanReturnsPriorOrInterventionalMean) {
  const auto net = small_chain();
  const CompiledNetwork compiled(net);
  const auto& prior = compiled.prepare({}, {"y"});
  // small_chain prior: E[y] = 2 E[x] + 0.5 = 2.5.
  EXPECT_NEAR(prior.mean(std::vector<double>{})[0], 2.5, 1e-12);
  const auto& surgery = compiled.prepare_do({"y"}, {}, {"z"});
  EXPECT_NEAR(surgery.mean({10.0}, {})[0], -10.0, 1e-12);
}

TEST(Compiled, BatchedSweepMatchesScalarQueries) {
  LinearGaussianNetwork net;
  net.add_node("a", {}, {}, 1.0, 2.0);
  net.add_node("b", {"a"}, {0.8}, -0.5, 1.0);
  net.add_node("c", {"a", "b"}, {0.3, -1.1}, 0.0, 0.5);
  net.add_node("d", {"c"}, {2.0}, 1.0, 0.25);

  const CompiledNetwork compiled(net);
  const auto& plan = compiled.prepare_do({"b"}, {"a"}, {"c", "d"});

  util::Rng rng(71);
  const std::size_t rows = 64;
  util::Matrix iv(rows, 1);
  util::Matrix ev(rows, 1);
  for (std::size_t r = 0; r < rows; ++r) {
    iv(r, 0) = rng.uniform(-4.0, 4.0);
    ev(r, 0) = rng.uniform(-4.0, 4.0);
  }
  const util::Matrix batch = plan.mean_batch(iv, ev);
  ASSERT_EQ(batch.rows(), rows);
  ASSERT_EQ(batch.cols(), 2u);
  for (std::size_t r = 0; r < rows; ++r) {
    const auto scalar = plan.mean({iv(r, 0)}, {ev(r, 0)});
    EXPECT_DOUBLE_EQ(batch(r, 0), scalar[0]);
    EXPECT_DOUBLE_EQ(batch(r, 1), scalar[1]);
  }
}

// Randomized agreement sweep: random chain+confounder networks, random
// (interventions, evidence, query) partitions, random values -- compiled
// must track the exact path within the 1e-9 acceptance bound.
TEST(Compiled, AgreesWithExactAcrossRandomNetworks) {
  // Node names built via append rather than operator+ to dodge GCC 12's
  // -Wrestrict false positive (PR105329) under -O2 -Werror.
  const auto node_name = [](std::size_t i) {
    std::string name("n");
    name += std::to_string(i);
    return name;
  };
  for (std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    util::Rng rng(seed);
    const std::size_t n = 8 + rng.uniform_index(25);
    LinearGaussianNetwork net;
    for (std::size_t i = 0; i < n; ++i) {
      const std::string name = node_name(i);
      if (i == 0) {
        net.add_node(name, {}, {}, rng.uniform(-1, 1), 1.0);
      } else if (i == 1) {
        net.add_node(name, {"n0"}, {rng.uniform(-1, 1)}, 0.1, 0.5);
      } else {
        net.add_node(name, {node_name(i - 1), node_name(i - 2)},
                     {rng.uniform(-0.8, 0.8), rng.uniform(-0.3, 0.3)},
                     rng.uniform(-0.2, 0.2), 0.3);
      }
    }

    // Partition: one intervened node mid-chain, a few evidence nodes
    // upstream, two query nodes downstream.
    const std::size_t mid = n / 2;
    const std::vector<std::string> interventions = {node_name(mid)};
    std::vector<std::string> evidence = {"n0"};
    if (mid > 2) evidence.push_back("n2");
    const std::vector<std::string> query = {node_name(n - 1),
                                            node_name(n - 2)};

    const CompiledNetwork compiled(net);
    const auto& plan = compiled.prepare_do(interventions, evidence, query);
    for (int trial = 0; trial < 10; ++trial) {
      std::vector<Assignment> iv_exact, ev_exact;
      std::vector<double> iv, ev;
      for (const auto& name : interventions) {
        const double v = rng.uniform(-5.0, 5.0);
        iv_exact.push_back({name, v});
        iv.push_back(v);
      }
      for (const auto& name : evidence) {
        const double v = rng.uniform(-5.0, 5.0);
        ev_exact.push_back({name, v});
        ev.push_back(v);
      }
      const auto exact = net.do_posterior_mean(iv_exact, ev_exact, query);
      const auto fast = plan.mean(iv, ev);
      ASSERT_EQ(fast.size(), exact.size());
      for (std::size_t i = 0; i < exact.size(); ++i)
        EXPECT_NEAR(fast[i], exact[i], 1e-9)
            << "seed " << seed << " trial " << trial << " q" << i;
    }
  }
}

// ---------- Linear-Gaussian structural properties ----------

// The posterior mean of a linear-Gaussian network is an affine function
// of the evidence values: E[q | e] = A e + b. Verify superposition.
TEST(GaussianProperty, PosteriorMeanIsAffineInEvidence) {
  const auto net = small_chain();
  auto mean_given_z = [&](double z) {
    return net.posterior_mean({{"z", z}}, {"x"})[0];
  };
  const double at0 = mean_given_z(0.0);
  const double at1 = mean_given_z(1.0);
  const double at2 = mean_given_z(2.0);
  // Equal spacing of evidence -> equal spacing of posterior means.
  EXPECT_NEAR(at2 - at1, at1 - at0, 1e-9);
}

// Ancestral sampling must agree with the compiled joint's moments.
TEST(GaussianProperty, SampleMomentsMatchJoint) {
  const auto net = small_chain();
  const auto joint = net.joint();
  util::Rng rng(31);
  util::RunningStats x_stats, z_stats;
  for (int i = 0; i < 40000; ++i) {
    const auto values = net.sample(rng);
    x_stats.add(values[net.id("x")]);
    z_stats.add(values[net.id("z")]);
  }
  EXPECT_NEAR(x_stats.mean(), joint.mean()[net.id("x")], 0.03);
  EXPECT_NEAR(z_stats.mean(), joint.mean()[net.id("z")], 0.06);
  EXPECT_NEAR(x_stats.variance(),
              joint.covariance()(net.id("x"), net.id("x")), 0.05);
  EXPECT_NEAR(z_stats.variance(),
              joint.covariance()(net.id("z"), net.id("z")), 0.15);
}

// do() on a root node equals conditioning on it (no incoming edges to
// sever), a standard identity of the do-calculus.
TEST(GaussianProperty, DoOnRootEqualsObserve) {
  const auto net = small_chain();
  const auto via_do = net.do_posterior_mean({{"x", 2.0}}, {}, {"z"});
  const auto via_observe = net.posterior_mean({{"x", 2.0}}, {"z"});
  EXPECT_NEAR(via_do[0], via_observe[0], 1e-9);
}

// Intervening on a mediator blocks upstream back-inference: under
// do(y = c), x keeps its prior mean regardless of c.
TEST(GaussianProperty, DoOnMediatorLeavesAncestorsAtPrior) {
  const auto net = small_chain();
  const auto prior = net.posterior_mean({}, {"x"});
  for (double c : {-3.0, 0.0, 4.0}) {
    const auto after = net.do_posterior_mean({{"y", c}}, {}, {"x"});
    EXPECT_NEAR(after[0], prior[0], 1e-9) << c;
  }
  // Observing the same value DOES move x (back-inference).
  const auto observed = net.posterior_mean({{"y", -3.0}}, {"x"});
  EXPECT_GT(std::abs(observed[0] - prior[0]), 0.1);
}

}  // namespace
}  // namespace drivefi::bn
