// A fixed-size thread pool: the concurrency substrate for the serving
// stack (ROADMAP scaling arc). Deliberately minimal — a locked deque, a
// condition variable, and N worker threads — because the serving layer's
// determinism argument wants scheduling to be irrelevant: work items must
// be pure functions of their inputs, so *which* worker runs one never
// matters, only that all of them finish (futures provide the join).
//
// Shutdown ordering: Shutdown() (which the destructor calls) stops
// accepting new work, lets the workers drain every task already queued,
// then joins. A task submitted before shutdown began therefore always
// runs to completion. Submit after shutdown has begun is an explicit,
// documented error: it throws std::runtime_error and schedules nothing —
// consistent with the pool's exception story (task errors already travel
// through futures as exceptions) and testable without a death test
// (tests/thread_pool_test.cc covers it).
//
// Exceptions: tasks run inside std::packaged_task, so anything a task
// throws is captured into its future and rethrown from future::get() on
// the caller's thread — a worker never dies and never takes the process
// down with it.
//
// ForkJoin (below) is the one fan-out the serving stack builds on: the
// parallel prepare (serve/shard_executor.h) and the MW update's per-shard
// phases (serve/pmw_service.h) both go through it, and it is the only
// caller of Submit in src/.

#ifndef PMWCM_COMMON_THREAD_POOL_H_
#define PMWCM_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace pmw {

class ThreadPool {
 public:
  /// Starts `num_threads` workers (>= 1).
  explicit ThreadPool(int num_threads);

  /// Equivalent to Shutdown().
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Stops accepting work, drains every queued task, joins every worker.
  /// Idempotent; after it returns, Submit throws (see class comment).
  void Shutdown();

  int size() const { return num_threads_; }

  /// Tasks that have finished running (for tests and load reporting).
  /// Bumped by the worker *after* the task's future becomes ready, so it
  /// can momentarily lag a caller that just observed the result.
  long long tasks_completed() const;

  /// Schedules `task` on some worker and returns the future for its
  /// result. Exceptions escape through future::get(), never a worker.
  /// Throws std::runtime_error if shutdown has begun (documented error;
  /// nothing is scheduled).
  template <typename F>
  auto Submit(F&& task)
      -> std::future<std::invoke_result_t<std::decay_t<F>>> {
    using R = std::invoke_result_t<std::decay_t<F>>;
    // packaged_task is move-only but std::function requires copyable
    // callables; shared_ptr bridges the two.
    auto packaged = std::make_shared<std::packaged_task<R()>>(
        std::forward<F>(task));
    std::future<R> future = packaged->get_future();
    Enqueue([packaged] { (*packaged)(); });
    return future;
  }

 private:
  void Enqueue(std::function<void()> task);
  void WorkerLoop();

  mutable std::mutex mutex_;
  std::condition_variable task_ready_;
  std::deque<std::function<void()>> queue_;
  long long completed_ = 0;
  bool shutting_down_ = false;
  std::once_flag shutdown_once_;
  int num_threads_ = 0;  // fixed at construction; survives Shutdown
  std::vector<std::thread> workers_;
};

/// Runs fn(i) for every i in [0, n) and returns once all of them finished:
/// fn(0) on the calling thread, fn(1..n-1) on `pool`'s workers. With a
/// null pool or n <= 1 every index runs inline in index order, and an
/// exception from fn(i) propagates at once. Otherwise every submitted
/// index is joined before any exception escapes, so fn may reference the
/// caller's frame, and the one rethrown is the first of: a throwing
/// Submit (a shut-down pool throws std::runtime_error before anything
/// ran), fn(0), the lowest failing worker index.
void ForkJoin(ThreadPool* pool, int n, const std::function<void(int)>& fn);

}  // namespace pmw

#endif  // PMWCM_COMMON_THREAD_POOL_H_
