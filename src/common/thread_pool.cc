#include "common/thread_pool.h"

#include <stdexcept>

#include "common/check.h"

namespace pmw {

ThreadPool::ThreadPool(int num_threads) : num_threads_(num_threads) {
  PMW_CHECK_GE(num_threads, 1);
  workers_.reserve(static_cast<size_t>(num_threads));
  for (int i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() { Shutdown(); }

void ThreadPool::Shutdown() {
  // call_once serializes the join: repeat calls return once the first
  // completes, so Shutdown-then-destructor (or two racing Shutdowns) is
  // safe and every caller observes a fully drained pool.
  std::call_once(shutdown_once_, [this] {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      shutting_down_ = true;
    }
    task_ready_.notify_all();
    for (std::thread& worker : workers_) worker.join();
    workers_.clear();
  });
}

long long ThreadPool::tasks_completed() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return completed_;
}

void ThreadPool::Enqueue(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (shutting_down_) {
      throw std::runtime_error(
          "ThreadPool::Submit after shutdown began: nothing was scheduled");
    }
    queue_.push_back(std::move(task));
  }
  task_ready_.notify_one();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      task_ready_.wait(
          lock, [this] { return shutting_down_ || !queue_.empty(); });
      // Shutdown drains: workers only exit once the queue is empty, so
      // every task submitted before shutdown began is completed.
      if (queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();  // exceptions are captured by the packaged_task wrapper
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++completed_;
    }
  }
}

void ForkJoin(ThreadPool* pool, int n, const std::function<void(int)>& fn) {
  if (pool == nullptr || n <= 1) {
    for (int i = 0; i < n; ++i) fn(i);
    return;
  }
  std::vector<std::future<void>> pending;
  pending.reserve(static_cast<size_t>(n) - 1);
  try {
    for (int i = 1; i < n; ++i) {
      pending.push_back(pool->Submit([&fn, i] { fn(i); }));
    }
    fn(0);  // the caller would otherwise just block on the join
  } catch (...) {
    // The submitted indices still reference the caller's frame.
    for (std::future<void>& f : pending) f.wait();
    throw;
  }
  // Join every index before get() may rethrow, lowest index first.
  for (std::future<void>& f : pending) f.wait();
  for (std::future<void>& f : pending) f.get();
}

}  // namespace pmw
