#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "runtime/channel.h"
#include "runtime/scheduler.h"

namespace drivefi::runtime {
namespace {

struct TestMsg {
  double value = 0.0;
  int id = 0;
};

// ---------- Channel ----------

TEST(Channel, PublishAndRead) {
  Channel<TestMsg> ch("test");
  EXPECT_FALSE(ch.has_message());
  TestMsg msg{3.5, 1};
  ch.publish(msg, 0.1);
  ASSERT_TRUE(ch.has_message());
  EXPECT_DOUBLE_EQ(ch.latest().value, 3.5);
  EXPECT_EQ(ch.sequence(), 1u);
  EXPECT_DOUBLE_EQ(ch.last_publish_time(), 0.1);
}

TEST(Channel, LatestValueSemantics) {
  Channel<TestMsg> ch("test");
  TestMsg first{1.0, 1};
  TestMsg second{2.0, 2};
  ch.publish(first, 0.0);
  ch.publish(second, 0.1);
  EXPECT_EQ(ch.latest().id, 2);
  EXPECT_EQ(ch.sequence(), 2u);
}

TEST(Channel, AgeTracksStaleness) {
  Channel<TestMsg> ch("test");
  EXPECT_GT(ch.age(0.0), 1e17);  // no message: infinitely stale
  TestMsg msg{1.0, 1};
  ch.publish(msg, 1.0);
  EXPECT_NEAR(ch.age(1.5), 0.5, 1e-12);
}

TEST(Channel, MutableLatestAllowsInPlaceCorruption) {
  Channel<TestMsg> ch("test");
  TestMsg msg{1.0, 1};
  ch.publish(msg, 0.0);
  ch.mutable_latest().value = 99.0;  // what the fault injector does
  EXPECT_DOUBLE_EQ(ch.latest().value, 99.0);
}

TEST(Channel, PublishSwapsInTheMessageAndHandsBackThePrevious) {
  // A producer that refills one buffer each tick: publish swaps the buffer
  // with the latest message, so the producer gets the previous message and
  // its heap storage back instead of allocating a new list.
  struct ListMsg {
    int id = 0;
    std::vector<int> items;
  };
  Channel<ListMsg> ch("list");

  ListMsg buffer{1, {10, 11}};
  ch.publish(buffer, 0.25);
  EXPECT_EQ(ch.sequence(), 1u);
  EXPECT_DOUBLE_EQ(ch.last_publish_time(), 0.25);
  EXPECT_EQ(ch.latest().id, 1);
  EXPECT_EQ(ch.latest().items, (std::vector<int>{10, 11}));
  // Before the first publish there is no previous message: a default one.
  EXPECT_EQ(buffer.id, 0);
  EXPECT_TRUE(buffer.items.empty());

  const int* first_storage = ch.latest().items.data();
  buffer.id = 2;
  buffer.items.assign({20});
  ch.publish(buffer, 0.5);
  EXPECT_EQ(ch.sequence(), 2u);
  EXPECT_DOUBLE_EQ(ch.last_publish_time(), 0.5);
  EXPECT_EQ(ch.latest().id, 2);
  EXPECT_EQ(ch.latest().items, (std::vector<int>{20}));
  // The previous message comes back whole, storage included.
  EXPECT_EQ(buffer.id, 1);
  EXPECT_EQ(buffer.items, (std::vector<int>{10, 11}));
  EXPECT_EQ(buffer.items.data(), first_storage);
}

// ---------- Scheduler ----------

TEST(Scheduler, RatesDivideBase) {
  Scheduler sched(120.0);
  std::vector<double> fast_times;
  std::vector<double> slow_times;
  sched.add_module("fast", 60.0, [&](double t) { fast_times.push_back(t); });
  sched.add_module("slow", 10.0, [&](double t) { slow_times.push_back(t); });
  sched.run_for(1.0);
  EXPECT_EQ(fast_times.size(), 60u);
  EXPECT_EQ(slow_times.size(), 10u);
  // First firing at t = 0.
  EXPECT_DOUBLE_EQ(fast_times[0], 0.0);
  // Spacing of slow module = 0.1 s.
  EXPECT_NEAR(slow_times[1] - slow_times[0], 0.1, 1e-12);
}

TEST(Scheduler, RegistrationOrderWithinTick) {
  Scheduler sched(100.0);
  std::vector<std::string> order;
  sched.add_module("first", 100.0, [&](double) { order.push_back("first"); });
  sched.add_module("second", 100.0,
                   [&](double) { order.push_back("second"); });
  sched.step();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], "first");
  EXPECT_EQ(order[1], "second");
}

TEST(Scheduler, DisableStopsTicks) {
  Scheduler sched(100.0);
  int count = 0;
  sched.add_module("mod", 100.0, [&](double) { ++count; });
  sched.run_for(0.1);
  EXPECT_EQ(count, 10);
  sched.set_enabled("mod", false);
  EXPECT_FALSE(sched.enabled("mod"));
  sched.run_for(0.1);
  EXPECT_EQ(count, 10);  // unchanged
  sched.set_enabled("mod", true);
  sched.run_for(0.1);
  EXPECT_EQ(count, 20);
}

TEST(Scheduler, DeterministicReplay) {
  auto run = [] {
    Scheduler sched(120.0);
    std::vector<std::pair<std::string, double>> trace;
    sched.add_module("a", 30.0,
                     [&](double t) { trace.emplace_back("a", t); });
    sched.add_module("b", 40.0,
                     [&](double t) { trace.emplace_back("b", t); });
    sched.run_for(2.0);
    return trace;
  };
  EXPECT_EQ(run(), run());
}

TEST(Scheduler, RejectsRatesThatDoNotDivideBase) {
  Scheduler sched(120.0);
  // 70 Hz on a 120 Hz base would silently round to the 60 Hz divisor and
  // skew campaign timing; it must be rejected instead.
  EXPECT_THROW(sched.add_module("bad", 70.0, [](double) {}),
               std::invalid_argument);
  EXPECT_THROW(sched.add_module("zero", 0.0, [](double) {}),
               std::invalid_argument);
  EXPECT_THROW(sched.add_module("negative", -30.0, [](double) {}),
               std::invalid_argument);
  EXPECT_THROW(sched.add_module("too_fast", 240.0, [](double) {}),
               std::invalid_argument);
  // Non-integer rates that DO divide the base exactly stay legal (the
  // scene recorder runs at 7.5 Hz on the 120 Hz base).
  EXPECT_NO_THROW(sched.add_module("scene", 7.5, [](double) {}));
  EXPECT_NO_THROW(sched.add_module("base", 120.0, [](double) {}));
}

TEST(Scheduler, RestoreAtUnalignedTicksFiresAsAnUninterruptedRun) {
  // Each module keeps the next tick it is due at, derived from the tick
  // counter. A restore to a tick that no period divides, with a module
  // disabled across it and re-enabled later, must fire the same modules
  // at the same ticks as a scheduler that was never interrupted.
  struct Firing {
    std::string module;
    std::uint64_t tick;
    bool operator==(const Firing&) const = default;
  };
  auto make = [](std::vector<Firing>& fired) {
    auto sched = std::make_unique<Scheduler>(120.0);
    for (const auto& [name, hz] :
         std::vector<std::pair<std::string, double>>{
             {"imu", 60.0}, {"gps", 10.0}, {"perception", 30.0},
             {"scene", 7.5}, {"base", 120.0}}) {
      Scheduler* s = sched.get();
      sched->add_module(name, hz, [&fired, name = name, s](double) {
        fired.push_back({name, s->tick()});
      });
    }
    return sched;
  };
  // The schedule both runs follow: "perception" is down for ticks
  // [37, 95) and the run is checkpointed at three unaligned ticks.
  auto drive = [](Scheduler& sched, std::uint64_t until) {
    while (sched.tick() < until) {
      if (sched.tick() == 37) sched.set_enabled("perception", false);
      if (sched.tick() == 95) sched.set_enabled("perception", true);
      sched.step();
    }
  };

  std::vector<Firing> reference;
  const auto uninterrupted = make(reference);
  drive(*uninterrupted, 200);

  for (const std::uint64_t checkpoint : {13u, 53u, 101u}) {
    // Run a source scheduler to the checkpoint and snapshot it; a fresh
    // scheduler, first stepped off to a different unaligned tick, restores
    // the snapshot and runs on.
    std::vector<Firing> ignored;
    const auto source = make(ignored);
    drive(*source, checkpoint);
    const Scheduler::Snapshot snap = source->snapshot();

    std::vector<Firing> fired;
    const auto resumed = make(fired);
    drive(*resumed, 7);
    resumed->restore(snap);
    fired.clear();
    drive(*resumed, 200);

    std::vector<Firing> expected;
    for (const Firing& f : reference)
      if (f.tick >= checkpoint) expected.push_back(f);
    ASSERT_EQ(fired.size(), expected.size()) << "checkpoint " << checkpoint;
    for (std::size_t i = 0; i < fired.size(); ++i)
      ASSERT_EQ(fired[i], expected[i])
          << "checkpoint " << checkpoint << ", firing " << i << ": "
          << fired[i].module << "@" << fired[i].tick << " vs "
          << expected[i].module << "@" << expected[i].tick;
  }
  // The reference really had the outage and the re-enable in it.
  auto perception_at = [&](std::uint64_t tick) {
    return std::count(reference.begin(), reference.end(),
                      Firing{"perception", tick}) == 1;
  };
  EXPECT_TRUE(perception_at(36));
  EXPECT_FALSE(perception_at(40));
  EXPECT_FALSE(perception_at(92));
  EXPECT_TRUE(perception_at(96));
}

TEST(Scheduler, NowAdvancesByDt) {
  Scheduler sched(50.0);
  EXPECT_DOUBLE_EQ(sched.now(), 0.0);
  sched.step();
  EXPECT_DOUBLE_EQ(sched.now(), 0.02);
  EXPECT_EQ(sched.tick(), 1u);
}

}  // namespace
}  // namespace drivefi::runtime
