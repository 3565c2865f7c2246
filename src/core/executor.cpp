#include "core/executor.h"

#include <thread>

namespace drivefi::core {

unsigned resolve_thread_count(unsigned requested) {
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

TaskQueue::TaskQueue()
    : idle_wait_(obs::metrics().histogram("executor.idle_wait_seconds")) {}

void TaskQueue::push_back(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    tasks_.push_back(std::move(task));
    ++outstanding_;
  }
  cv_.notify_one();
}

void TaskQueue::push_front(std::vector<std::function<void()>> tasks) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto it = tasks.rbegin(); it != tasks.rend(); ++it)
      tasks_.push_front(std::move(*it));
    outstanding_ += tasks.size();
  }
  cv_.notify_all();
}

void TaskQueue::cancel() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    cancelled_ = true;
    outstanding_ -= tasks_.size();
    tasks_.clear();
  }
  cv_.notify_all();
}

void TaskQueue::run(unsigned threads) {
  // jthread joins on destruction, so the helpers finish before the tasks'
  // captures go out of scope even if starting one of them throws.
  std::vector<std::jthread> helpers;
  for (unsigned w = 1; w < threads; ++w)
    helpers.emplace_back([this] { work(); });
  work();
}

void TaskQueue::work() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    if (!cancelled_ && tasks_.empty() && outstanding_ > 0) {
      // Running tasks may still push more; wait for work or drain-out.
      const auto idle_start = std::chrono::steady_clock::now();
      cv_.wait(lock, [&] {
        return cancelled_ || !tasks_.empty() || outstanding_ == 0;
      });
      idle_wait_.observe(std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - idle_start)
                             .count());
    }
    if (cancelled_ || (tasks_.empty() && outstanding_ == 0)) return;
    if (tasks_.empty()) continue;
    std::function<void()> task = std::move(tasks_.front());
    tasks_.pop_front();
    lock.unlock();
    task();  // tasks capture their own exceptions
    lock.lock();
    --outstanding_;
    if (outstanding_ == 0 && tasks_.empty()) cv_.notify_all();
  }
}

}  // namespace drivefi::core
