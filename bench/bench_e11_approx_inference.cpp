// E11 (extension) -- exact vs approximate posterior inference on the
// fitted ADS 3-TBN shape. The paper's engine relies on "rapid
// probabilistic inference"; this bench quantifies the design choice of an
// exact joint-Gaussian solver by pitting it against likelihood weighting
// and Gibbs sampling on the same query: accuracy (vs the exact mean) and
// wall-clock per query.
#include <benchmark/benchmark.h>

#include <cmath>

#include "bn/dbn.h"
#include "bn/network.h"
#include "bn/sampling.h"
#include "core/bayes_model.h"
#include "util/rng.h"

using namespace drivefi;

namespace {

// A synthetic 3-TBN with the ADS template's topology and plausible
// coefficients (fitting real traces inside a microbenchmark would swamp
// the measurement).
bn::LinearGaussianNetwork synthetic_ads_tbn() {
  const bn::DbnTemplate tmpl = core::ads_dbn_template();
  const auto specs = tmpl.unrolled_specs(3);
  bn::LinearGaussianNetwork net;
  util::Rng rng(71);
  for (const auto& spec : specs) {
    std::vector<double> weights;
    for (std::size_t i = 0; i < spec.parents.size(); ++i)
      weights.push_back(rng.uniform(0.05, 0.4));
    net.add_node(spec.name, spec.parents, weights, rng.uniform(-0.2, 0.2),
                 0.3);
  }
  return net;
}

std::vector<bn::Assignment> slice0_evidence(
    const bn::LinearGaussianNetwork& net) {
  std::vector<bn::Assignment> evidence;
  util::Rng rng(5);
  for (std::size_t i = 0; i < net.node_count(); ++i) {
    const std::string& name = net.name(i);
    if (name.ends_with("@0"))
      evidence.push_back({name, rng.uniform(-1.0, 1.0)});
  }
  return evidence;
}

const std::vector<std::string> kQuery = {"v@2", "y_off@2", "theta@2"};

void bm_exact_posterior(benchmark::State& state) {
  const auto net = synthetic_ads_tbn();
  const auto evidence = slice0_evidence(net);
  for (auto _ : state) {
    auto mean = net.posterior_mean(evidence, kQuery);
    benchmark::DoNotOptimize(mean);
  }
}
BENCHMARK(bm_exact_posterior);

void bm_likelihood_weighting(benchmark::State& state) {
  const auto net = synthetic_ads_tbn();
  const auto evidence = slice0_evidence(net);
  const auto exact = net.posterior_mean(evidence, kQuery);
  util::Rng rng(11);
  bn::SamplingConfig config;
  config.samples = static_cast<std::size_t>(state.range(0));
  double err = 0.0;
  for (auto _ : state) {
    const auto approx =
        bn::likelihood_weighting(net, evidence, kQuery, rng, config);
    benchmark::DoNotOptimize(approx);
    err = std::abs(approx.mean[0] - exact[0]);
  }
  state.counters["abs_err_v"] = err;
}
BENCHMARK(bm_likelihood_weighting)->Arg(100)->Arg(1000)->Arg(10000);

void bm_gibbs(benchmark::State& state) {
  const auto net = synthetic_ads_tbn();
  const auto evidence = slice0_evidence(net);
  const auto exact = net.posterior_mean(evidence, kQuery);
  util::Rng rng(13);
  bn::SamplingConfig config;
  config.samples = static_cast<std::size_t>(state.range(0));
  config.burn_in = config.samples / 10;
  double err = 0.0;
  for (auto _ : state) {
    const auto approx = bn::gibbs(net, evidence, kQuery, rng, config);
    benchmark::DoNotOptimize(approx);
    err = std::abs(approx.mean[0] - exact[0]);
  }
  state.counters["abs_err_v"] = err;
}
BENCHMARK(bm_gibbs)->Arg(100)->Arg(1000);

}  // namespace

BENCHMARK_MAIN();
