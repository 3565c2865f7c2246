#include "runtime/scheduler.h"

#include <cassert>
#include <cmath>
#include <stdexcept>

namespace drivefi::runtime {

namespace {

std::uint64_t next_multiple(std::uint64_t tick, std::uint64_t period) {
  return (tick + period - 1) / period * period;
}

}  // namespace

Scheduler::Snapshot Scheduler::snapshot() const {
  Snapshot snap;
  snap.tick = tick_;
  snap.enabled.reserve(entries_.size());
  for (const auto& e : entries_)
    snap.enabled.push_back(e.enabled ? 1 : 0);
  return snap;
}

void Scheduler::restore(const Snapshot& snap) {
  assert(snap.enabled.size() == entries_.size() &&
         "Scheduler::restore: module registrations differ from snapshot");
  tick_ = snap.tick;
  for (std::size_t i = 0; i < entries_.size() && i < snap.enabled.size(); ++i)
    entries_[i].enabled = snap.enabled[i] != 0;
  for (auto& e : entries_) e.next_due = next_multiple(tick_, e.period_ticks);
}

bool Scheduler::state_equals(const Snapshot& snap) const {
  if (tick_ != snap.tick || snap.enabled.size() != entries_.size())
    return false;
  for (std::size_t i = 0; i < entries_.size(); ++i)
    if (entries_[i].enabled != (snap.enabled[i] != 0)) return false;
  return true;
}

void Scheduler::add_module(const std::string& name, double rate_hz,
                           std::function<void(double)> tick_fn) {
  if (!(rate_hz > 0.0) || rate_hz > base_hz_)
    throw std::invalid_argument("Scheduler::add_module(\"" + name +
                                "\"): rate " + std::to_string(rate_hz) +
                                " Hz must be in (0, " +
                                std::to_string(base_hz_) + "] Hz");
  const double ratio = base_hz_ / rate_hz;
  const auto period = static_cast<std::uint64_t>(std::llround(ratio));
  // Tolerate only floating-point representation error (e.g. 120/7.5), not
  // real mismatches: 70 Hz on a 120 Hz base would silently tick at 60 Hz
  // and skew every campaign's timing.
  if (period < 1 || std::abs(ratio - static_cast<double>(period)) > 1e-9 * ratio)
    throw std::invalid_argument(
        "Scheduler::add_module(\"" + name + "\"): rate " +
        std::to_string(rate_hz) + " Hz does not evenly divide the " +
        std::to_string(base_hz_) + " Hz base rate");
  entries_.push_back({name, period, std::move(tick_fn), true,
                      next_multiple(tick_, period)});
}

void Scheduler::set_enabled(const std::string& name, bool enabled) {
  for (auto& e : entries_)
    if (e.name == name) e.enabled = enabled;
}

bool Scheduler::enabled(const std::string& name) const {
  for (const auto& e : entries_)
    if (e.name == name) return e.enabled;
  return false;
}

void Scheduler::set_post_module_hook(std::function<void(double)> hook) {
  post_module_hook_ = std::move(hook);
}

void Scheduler::step() {
  const double t = now();
  for (auto& e : entries_) {
    if (e.next_due != tick_) continue;
    e.next_due += e.period_ticks;
    if (!e.enabled) continue;
    e.tick_fn(t);
    if (post_module_hook_) post_module_hook_(t);
  }
  ++tick_;
}

void Scheduler::run_for(double seconds) {
  const auto ticks = static_cast<std::uint64_t>(std::llround(seconds * base_hz_));
  for (std::uint64_t i = 0; i < ticks; ++i) step();
}

}  // namespace drivefi::runtime
