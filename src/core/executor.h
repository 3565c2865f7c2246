/// \file
/// Deterministic parallel campaign execution on one work queue. Every
/// parallel phase -- golden precompute, the Bayesian catalog sweep, and
/// the replay tree's trunk and tail tasks -- pushes its tasks onto a
/// TaskQueue that the calling thread and its helpers drain together.
/// ParallelExecutor::run_ordered is the indexed form: it runs produce(i)
/// for every i and delivers results to the consumer in strictly increasing
/// i order. Because every run derives its own seed from (campaign_seed,
/// run_index) and the consumer sees index order, a campaign's output is
/// bit-identical regardless of thread count or completion order.
///
/// The reorder buffer is an OrderedEmitter: producers deposit completed
/// results into their own pre-allocated slot without taking any lock (an
/// atomic ready flag publishes the slot), and exactly one thread at a time
/// drains the contiguously-ready head to the consumer. Earlier versions
/// serialized every deposit through the emit mutex, so under real
/// multicore load producers convoyed behind whichever thread happened to
/// be inside the consumer; now only drain ownership is contended.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "obs/metrics.h"

namespace drivefi::core {

struct ExecutorConfig {
  /// 0 means std::thread::hardware_concurrency (at least 1).
  unsigned threads = 0;
};

/// Resolves a thread-count request against the machine (0 -> all hardware
/// threads; never less than 1).
unsigned resolve_thread_count(unsigned requested);

/// In-order delivery of out-of-order completions. `n` slots are allocated
/// up front; each position is deposited exactly once (from any thread) and
/// the consumer sees positions 0,1,2,... with no gaps. Deposits are
/// lock-free: the slot write is published by a seq_cst ready flag, and
/// drain ownership is a seq_cst exchange, so whenever a depositor fails to
/// become the drainer, the current drainer is guaranteed to observe the
/// new slot on its post-release recheck (no lost wakeups). The consumer
/// runs single-threaded (mutual exclusion via drain ownership), so it may
/// touch unsynchronized state -- same contract as run_ordered always had.
template <typename Result>
class OrderedEmitter {
 public:
  OrderedEmitter(std::size_t n, std::function<void(Result&&)> consume)
      : n_(n),
        consume_(std::move(consume)),
        slots_(n),
        ready_(std::make_unique<std::atomic<unsigned char>[]>(n)),
        queue_wait_(obs::metrics().histogram("executor.queue_wait_seconds")),
        consume_time_(obs::metrics().histogram("executor.consume_seconds")) {
    for (std::size_t i = 0; i < n_; ++i)
      ready_[i].store(0, std::memory_order_relaxed);
  }

  /// Deposits the result for output position `pos` and drains whatever is
  /// contiguously ready. A consumer exception is captured (first one wins),
  /// cancels emission, and is rethrown by finish().
  void deposit(std::size_t pos, Result&& result) {
    slots_[pos] = Timed{std::move(result), std::chrono::steady_clock::now()};
    ready_[pos].store(1);  // seq_cst: publishes the slot (see drain())
    drain();
  }

  /// Records a producer-side error: first error wins, emission cancels.
  void fail(std::exception_ptr error) {
    {
      std::lock_guard<std::mutex> lock(error_mutex_);
      if (!first_error_) first_error_ = error;
    }
    cancelled_.store(true);
  }

  bool cancelled() const { return cancelled_.load(std::memory_order_relaxed); }

  /// After all producers finished: rethrows the first captured error.
  void finish() {
    if (cancelled_.load()) {
      std::lock_guard<std::mutex> lock(error_mutex_);
      if (first_error_) std::rethrow_exception(first_error_);
    }
  }

 private:
  struct Timed {
    Result result;
    std::chrono::steady_clock::time_point ready;
  };

  bool head_ready() const {
    const std::size_t head = next_emit_.load();
    return head < n_ && ready_[head].load() != 0;
  }

  void drain() {
    // Ownership handoff: whoever exchanges draining_ false->true emits the
    // ready head. Everything here is seq_cst, which closes the classic
    // lost-wakeup race: if a depositor's exchange fails, the owner's
    // release of draining_ precedes that exchange in the total order, so
    // the owner's post-release head_ready() recheck (the loop condition)
    // is ordered after the depositor's ready-flag store and must see it.
    while (!cancelled_.load(std::memory_order_relaxed) && head_ready()) {
      if (draining_.exchange(true)) return;  // owner rechecks after release
      while (!cancelled_.load(std::memory_order_relaxed) && head_ready()) {
        const std::size_t head = next_emit_.load();
        // The slot is taken out of the buffer BEFORE consume so a throwing
        // sink can never re-deliver a moved-from record.
        Timed ready = std::move(*slots_[head]);
        slots_[head].reset();
        next_emit_.store(head + 1);
        const auto consume_start = std::chrono::steady_clock::now();
        queue_wait_.observe(
            std::chrono::duration<double>(consume_start - ready.ready)
                .count());
        try {
          consume_(std::move(ready.result));
        } catch (...) {
          fail(std::current_exception());
          break;
        }
        consume_time_.observe(std::chrono::duration<double>(
                                  std::chrono::steady_clock::now() -
                                  consume_start)
                                  .count());
      }
      draining_.store(false);
    }
  }

  std::size_t n_;
  std::function<void(Result&&)> consume_;
  std::vector<std::optional<Timed>> slots_;
  std::unique_ptr<std::atomic<unsigned char>[]> ready_;
  std::atomic<std::size_t> next_emit_{0};
  std::atomic<bool> draining_{false};
  std::atomic<bool> cancelled_{false};
  std::mutex error_mutex_;
  std::exception_ptr first_error_;
  obs::Histogram& queue_wait_;
  obs::Histogram& consume_time_;
};

/// The pool's one work queue. Tasks run on a fixed set of threads -- the
/// caller of run() plus helpers -- until nothing is queued or running.
/// Running tasks may push more: push_back appends, push_front prepends a
/// batch in order (the replay tree drains one group's tails, freeing its
/// snapshots, before it starts another trunk). Tasks must not throw; they
/// report errors through their own channel (OrderedEmitter::fail) and may
/// cancel() the rest. Idle workers block on a condition variable, and the
/// blocked time feeds the executor.idle_wait_seconds histogram, so queue
/// starvation is visible in --metrics-out.
class TaskQueue {
 public:
  TaskQueue();

  void push_back(std::function<void()> task);
  void push_front(std::vector<std::function<void()>> tasks);

  /// Drops every queued task. Running tasks finish; then run() returns.
  void cancel();

  /// Works the queue on `threads` threads (the calling thread and
  /// threads - 1 helpers; at least the caller) until every task, including
  /// the ones tasks push, has run or the queue is cancelled.
  void run(unsigned threads);

 private:
  void work();

  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> tasks_;
  std::size_t outstanding_ = 0;  ///< queued + running
  bool cancelled_ = false;
  obs::Histogram& idle_wait_;
};

class ParallelExecutor {
 public:
  explicit ParallelExecutor(ExecutorConfig config = {})
      : threads_(resolve_thread_count(config.threads)) {}

  unsigned threads() const { return threads_; }

  /// Runs produce(i) for every i in [0, n) across the pool, in arbitrary
  /// order, and calls consume(result) exactly once per run in strictly
  /// increasing i order. consume always executes single-threaded (drain
  /// ownership in the OrderedEmitter), so it may touch unsynchronized
  /// state (stats, streams); produce runs concurrently and must be
  /// re-entrant. The first exception thrown by produce or consume cancels
  /// outstanding work and emission, and is rethrown on the calling thread.
  template <typename Result>
  void run_ordered(std::size_t n,
                   const std::function<Result(std::size_t)>& produce,
                   const std::function<void(Result&&)>& consume) const {
    OrderedEmitter<Result> emitter(n, consume);
    TaskQueue queue;
    for (std::size_t i = 0; i < n; ++i) {
      queue.push_back([&, i] {
        if (emitter.cancelled()) return;
        try {
          emitter.deposit(i, produce(i));
        } catch (...) {
          emitter.fail(std::current_exception());
          queue.cancel();
        }
      });
    }
    queue.run(static_cast<unsigned>(std::min<std::size_t>(threads_, n)));
    emitter.finish();
  }

 private:
  unsigned threads_;
};

}  // namespace drivefi::core
