// E6 -- Counterfactual accuracy of the 3-TBN (paper Fig. 3/6, §III-B):
// how well does M-hat_{t+1} from BN inference match the ground-truth
// simulator, both fault-free and under interventions? Also runs the
// do-vs-observe ablation. Includes google-benchmark timings of a single
// prediction.
#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdio>
#include <memory>

#include "core/bayes_model.h"
#include "core/selector.h"
#include "core/trace.h"
#include "sim/scenario.h"
#include "util/stats.h"
#include "util/table.h"

using namespace drivefi;

namespace {

struct Fixture {
  std::vector<core::GoldenTrace> goldens;
  std::unique_ptr<core::SafetyPredictor> predictor;

  Fixture() {
    auto suite = sim::base_suite();
    suite.resize(5);
    ads::PipelineConfig config;
    config.seed = 61;
    goldens = core::run_golden_suite(suite, config);
    predictor = std::make_unique<core::SafetyPredictor>(goldens);
  }
};

Fixture& fixture() {
  static Fixture f;
  return f;
}

void report_accuracy() {
  auto& f = fixture();

  // Fault-free horizon-step prediction error per kinematic variable.
  util::RunningStats err_v, err_y, err_theta;
  util::RunningStats delta_err;
  std::size_t sign_agree = 0, sign_total = 0;
  const auto horizon = static_cast<std::size_t>(f.predictor->horizon());
  for (const auto& trace : f.goldens) {
    for (std::size_t k = 5; k + horizon < trace.scenes.size(); k += 3) {
      const auto pred = f.predictor->predict_nominal(trace, k);
      if (!pred) continue;
      const auto& next = trace.scenes[k + horizon];
      err_v.add(std::abs(pred->predicted_v - next.true_v));
      err_y.add(std::abs(pred->predicted_y - next.true_y_off));
      err_theta.add(std::abs(pred->predicted_theta - next.true_theta));
      delta_err.add(std::abs(pred->delta_lon - next.true_delta_lon));
      // Sign agreement on delta -- the quantity that defines F_crit.
      if ((pred->delta_lon > 0.0) == (next.true_delta_lon > 0.0))
        ++sign_agree;
      ++sign_total;
    }
  }

  util::Table table({"quantity", "MAE", "n"});
  table.add_row({"v (m/s)", util::Table::fmt(err_v.mean(), 3),
                 util::Table::fmt_int(static_cast<long long>(err_v.count()))});
  table.add_row({"y_off (m)", util::Table::fmt(err_y.mean(), 3),
                 util::Table::fmt_int(static_cast<long long>(err_y.count()))});
  table.add_row({"theta (rad)", util::Table::fmt(err_theta.mean(), 4),
                 util::Table::fmt_int(
                     static_cast<long long>(err_theta.count()))});
  table.add_row({"delta_lon (m)", util::Table::fmt(delta_err.mean(), 2),
                 util::Table::fmt_int(
                     static_cast<long long>(delta_err.count()))});
  table.print("E6: fault-free one-step prediction error (M-hat vs truth)");

  std::printf("delta-sign agreement: %.2f%% (%zu/%zu)\n",
              100.0 * static_cast<double>(sign_agree) /
                  static_cast<double>(std::max<std::size_t>(1, sign_total)),
              sign_agree, sign_total);

  // do() vs observational conditioning under a brake intervention: the
  // do-prediction must track the causal slowdown; naive conditioning is
  // contaminated by the (pre-fault) downstream evidence.
  util::RunningStats do_effect, obs_effect;
  for (const auto& trace : f.goldens) {
    for (std::size_t k = 10; k + 1 < trace.scenes.size(); k += 7) {
      const auto nominal = f.predictor->predict_nominal(trace, k);
      const auto with_do = f.predictor->predict(trace, k, "brake", 1.0);
      const auto with_obs =
          f.predictor->predict_observational(trace, k, "brake", 1.0);
      if (!nominal || !with_do || !with_obs) continue;
      do_effect.add(nominal->predicted_v - with_do->predicted_v);
      obs_effect.add(nominal->predicted_v - with_obs->predicted_v);
    }
  }
  util::Table ablation({"inference", "mean predicted slowdown (m/s)", "n"});
  ablation.add_row({"do(brake=1)  [causal]",
                    util::Table::fmt(do_effect.mean(), 3),
                    util::Table::fmt_int(
                        static_cast<long long>(do_effect.count()))});
  ablation.add_row({"observe brake=1 [naive]",
                    util::Table::fmt(obs_effect.mean(), 3),
                    util::Table::fmt_int(
                        static_cast<long long>(obs_effect.count()))});
  ablation.print("E6 ablation: do-operator vs naive conditioning");
}

void bm_predict_nominal(benchmark::State& state) {
  auto& f = fixture();
  // goldens[1] (lead_cruise) has a tracked lead throughout, so every call
  // performs a real inference rather than bailing on the lead-gap guard.
  const auto& trace = f.goldens[1];
  std::size_t k = 10;
  for (auto _ : state) {
    auto pred = f.predictor->predict_nominal(trace, k);
    benchmark::DoNotOptimize(pred);
    k = 10 + (k + 1) % 50;
  }
}
BENCHMARK(bm_predict_nominal);

void bm_predict_do(benchmark::State& state) {
  auto& f = fixture();
  const auto& trace = f.goldens[1];
  std::size_t k = 10;
  for (auto _ : state) {
    auto pred = f.predictor->predict(trace, k, "throttle", 1.0);
    benchmark::DoNotOptimize(pred);
    k = 10 + (k + 1) % 50;
  }
}
BENCHMARK(bm_predict_do);

}  // namespace

int main(int argc, char** argv) {
  report_accuracy();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
