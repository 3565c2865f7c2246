// Deterministic rate scheduler. Modules register at fixed rates; the
// scheduler advances in integer base ticks and fires each module whenever
// its period divides the tick, in registration order. Each module keeps
// the next tick it is due at, so a tick costs one comparison per module
// rather than a division. Determinism matters:
// a fault-injection campaign must be exactly replayable from its seed, and
// module ordering is part of the ADS dataflow (sensors before perception
// before planning before control).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace drivefi::runtime {

class Scheduler {
 public:
  // Mutable scheduler state: the tick counter and per-module enable flags
  // (by registration index). The module list and rates are configuration,
  // not state -- a snapshot only restores into a scheduler with the same
  // registrations.
  struct Snapshot {
    std::uint64_t tick = 0;
    std::vector<std::uint8_t> enabled;

    bool operator==(const Snapshot&) const = default;
  };

  explicit Scheduler(double base_hz = 120.0) : base_hz_(base_hz) {}

  Snapshot snapshot() const;
  // Requires the same module registrations as at snapshot time (asserted).
  void restore(const Snapshot& snap);
  bool state_equals(const Snapshot& snap) const;

  double base_hz() const { return base_hz_; }
  double dt() const { return 1.0 / base_hz_; }
  double now() const { return static_cast<double>(tick_) * dt(); }
  std::uint64_t tick() const { return tick_; }

  // Callback receives the current simulation time. rate_hz must evenly
  // divide base_hz: a rate that would silently round to a different
  // integer divisor skews campaign timing, so it is rejected with
  // std::invalid_argument instead.
  void add_module(const std::string& name, double rate_hz,
                  std::function<void(double)> tick_fn);

  // A module can be disabled to model a crash/hang: it stops ticking but
  // its channels retain (stale) data.
  void set_enabled(const std::string& name, bool enabled);
  bool enabled(const std::string& name) const;

  // Invoked after every module firing (not just once per base tick). Fault
  // injectors use this to give value corruptions stuck-at semantics: a
  // corrupted variable stays corrupted for the fault's hold window even if
  // its producer republishes in between, which is how a latched memory
  // fault behaves underneath a running dataflow.
  void set_post_module_hook(std::function<void(double)> hook);

  // Advance one base tick, firing due modules.
  void step();
  // Advance by whole seconds' worth of ticks.
  void run_for(double seconds);

 private:
  struct Entry {
    std::string name;
    std::uint64_t period_ticks;
    std::function<void(double)> tick_fn;
    bool enabled = true;
    // The first multiple of period_ticks at or after tick_; derived from
    // tick_, so snapshots leave it out and restore() recomputes it.
    std::uint64_t next_due = 0;
  };

  double base_hz_;
  std::uint64_t tick_ = 0;
  std::vector<Entry> entries_;
  std::function<void(double)> post_module_hook_;
};

}  // namespace drivefi::runtime
