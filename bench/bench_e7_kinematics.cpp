// E7 -- Stopping-distance engine (paper §III-A, Fig. 5, eq. (7)): the
// numerical procedure P vs the closed form on straight-line motion, the
// d_stop sweep over initial speed and steering angle, and RK4 integration
// throughput.
#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdio>

#include "kinematics/stopping.h"
#include "util/table.h"

using namespace drivefi;

namespace {

void report_tables() {
  // Accuracy vs closed form.
  util::Table accuracy({"v0 (m/s)", "P(.) dstop (m)", "v0^2/2a (m)",
                        "rel err"});
  for (double v0 : {5.0, 10.0, 15.0, 20.0, 25.0, 30.0, 33.5, 40.0}) {
    const auto d = kinematics::stopping_distance(6.0, v0, 0.0, 0.0, 2.8);
    const double closed = kinematics::stopping_distance_straight(6.0, v0);
    accuracy.add_row({util::Table::fmt(v0, 1),
                      util::Table::fmt(d.longitudinal, 4),
                      util::Table::fmt(closed, 4),
                      util::Table::fmt(std::abs(d.longitudinal - closed) /
                                           closed,
                                       9)});
  }
  accuracy.print("E7: numerical P(.) vs closed form (straight line)");

  // d_stop as a function of steering angle at highway speed: the lateral
  // component that drives lateral delta.
  util::Table sweep({"phi0 (rad)", "dstop_lon (m)", "lat, lane-hold (m)",
                     "lat, paper-frozen (m)", "stop time (s)"});
  for (double phi : {0.0, 0.02, 0.05, 0.1, 0.15, 0.2, 0.3}) {
    const auto held = kinematics::stopping_distance(6.0, 33.5, 0.0, phi, 2.8);
    // Paper-pure variant: dphi/dt = 0 for the whole stop (eq. (5)).
    const auto frozen =
        kinematics::stopping_distance(6.0, 33.5, 0.0, phi, 2.8, 0.0);
    sweep.add_row({util::Table::fmt(phi, 2),
                   util::Table::fmt(held.longitudinal, 1),
                   util::Table::fmt(held.lateral, 2),
                   util::Table::fmt(frozen.lateral, 1),
                   util::Table::fmt(held.stop_time, 2)});
  }
  sweep.print("E7: emergency-stop lateral displacement, lane-hold stop vs "
              "the paper's frozen steering (33.5 m/s, amax = 6)");
}

// Procedure P as every caller runs it: the default release rate, at
// amax = 6 and L = 2.8, over the two input shapes P gets. Golden
// scenes and replays call it on near-straight, lane-centred states;
// Bayesian selection calls it on predicted states out to a heading of 0.8
// and a steering angle of -0.57 rad.
void bm_stopping_distance(benchmark::State& state) {
  struct Shape {
    double theta0, phi0;
    const char* label;
  };
  static constexpr Shape kShapes[] = {{0.005, 0.003, "golden-like"},
                                      {0.8, -0.57, "selection extreme"}};
  const double v0 = static_cast<double>(state.range(0));
  const Shape& shape = kShapes[state.range(1)];
  for (auto _ : state) {
    auto d =
        kinematics::stopping_distance(6.0, v0, shape.theta0, shape.phi0, 2.8);
    benchmark::DoNotOptimize(d);
  }
  state.SetLabel(shape.label);
}
BENCHMARK(bm_stopping_distance)->ArgsProduct({{10, 20, 30}, {0, 1}});

void bm_bicycle_step(benchmark::State& state) {
  kinematics::VehicleState s;
  s.v = 30.0;
  kinematics::VehicleParams params;
  kinematics::Actuation act;
  act.throttle = 0.3;
  act.steering = 0.02;
  for (auto _ : state) {
    s = kinematics::step(s, act, params, 1.0 / 120.0);
    benchmark::DoNotOptimize(s);
    if (s.x > 1e9) s.x = 0.0;
  }
}
BENCHMARK(bm_bicycle_step);

}  // namespace

int main(int argc, char** argv) {
  report_tables();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
