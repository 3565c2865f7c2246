// Typed single-writer pub/sub channel, modeled on the latest-value
// semantics of Apollo's Cyber RT: consumers read the most recent message;
// there is no queueing (an ADS always acts on the freshest state). Value
// faults corrupt the latest message in place through
// AdsPipeline::set_target_value, which reaches it with mutable_latest():
// the paper's injector corrupts "the variables that store ADS outputs"
// (§II-C).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>

namespace drivefi::runtime {

template <typename T>
class Channel {
 public:
  // Complete mutable state of a channel: the latest message plus the
  // publish bookkeeping. Snapshot/restore round-trips resume the channel
  // exactly (age(), sequence() and consumers all see the same history),
  // which is what forked replays restore from golden checkpoints.
  struct Snapshot {
    std::optional<T> latest;
    std::uint64_t sequence = 0;
    double last_publish_time = -1.0;

    bool operator==(const Snapshot&) const = default;
  };

  explicit Channel(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }

  Snapshot snapshot() const { return {latest_, sequence_, last_publish_time_}; }

  void restore(const Snapshot& snap) {
    latest_ = snap.latest;
    sequence_ = snap.sequence;
    last_publish_time_ = snap.last_publish_time;
  }

  // Publishes `message` by swapping it with the latest message, so the
  // producer gets the previous message back in `message` (a default T
  // before the first publish). A producer that refills the same buffer
  // each tick thereby reuses the channel's heap storage instead of
  // allocating; for a trivially copyable T the swap costs what a move does.
  void publish(T& message, double now) {
    if (!latest_) latest_.emplace();
    std::swap(*latest_, message);
    ++sequence_;
    last_publish_time_ = now;
  }

  bool has_message() const { return latest_.has_value(); }
  const T& latest() const { return *latest_; }
  T& mutable_latest() { return *latest_; }
  std::uint64_t sequence() const { return sequence_; }
  double last_publish_time() const { return last_publish_time_; }

  // Age of the freshest message; stale channels are how module hangs
  // manifest to consumers.
  double age(double now) const {
    return has_message() ? now - last_publish_time_ : 1e18;
  }

 private:
  std::string name_;
  std::optional<T> latest_;
  std::uint64_t sequence_ = 0;
  double last_publish_time_ = -1.0;
};

}  // namespace drivefi::runtime
