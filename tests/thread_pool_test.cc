// ThreadPool unit + concurrency stress tests: result delivery, FIFO order
// on a single worker, exception propagation through futures, shutdown
// draining, a many-producers / many-tasks stress run, and ForkJoin's
// contract (every index once, index 0 on the caller, inline without a
// pool, join before rethrow, lowest failing index wins). The TSan CI job
// rebuilds this binary with -fsanitize=thread, so every synchronization
// claim in common/thread_pool.h is machine-checked, not just argued.

#include "common/thread_pool.h"

#include <atomic>
#include <chrono>
#include <future>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"

namespace pmw {
namespace {

TEST(ThreadPoolTest, DeliversResultsThroughFutures) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4);

  std::vector<std::future<int>> futures;
  for (int i = 0; i < 64; ++i) {
    futures.push_back(pool.Submit([i] { return i * i; }));
  }
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(futures[static_cast<size_t>(i)].get(), i * i);
  }
}

TEST(ThreadPoolTest, SingleWorkerRunsTasksInSubmissionOrder) {
  ThreadPool pool(1);
  std::vector<int> order;
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 100; ++i) {
    futures.push_back(pool.Submit([&order, i] { order.push_back(i); }));
  }
  for (auto& f : futures) f.get();

  ASSERT_EQ(order.size(), 100u);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(order[static_cast<size_t>(i)], i);
  }
}

TEST(ThreadPoolTest, ExceptionPropagatesToCallerNotWorker) {
  ThreadPool pool(2);
  std::future<int> bad = pool.Submit(
      []() -> int { throw std::runtime_error("task failed"); });
  EXPECT_THROW(bad.get(), std::runtime_error);

  // The worker that ran the throwing task is still alive and serving.
  std::future<int> good = pool.Submit([] { return 7; });
  EXPECT_EQ(good.get(), 7);
}

TEST(ThreadPoolTest, ExceptionMessageSurvivesTheHop) {
  ThreadPool pool(1);
  std::future<void> f =
      pool.Submit([] { throw std::runtime_error("detail: shard 3"); });
  try {
    f.get();
    FAIL() << "expected the task's exception";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()), "detail: shard 3");
  }
}

TEST(ThreadPoolTest, DestructorDrainsEveryQueuedTask) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 500; ++i) {
      // Fire-and-forget: futures dropped on purpose; the shutdown
      // contract alone must guarantee completion.
      pool.Submit([&ran] {
        ran.fetch_add(1, std::memory_order_relaxed);
      });
    }
    // Destructor runs here: stop accepting, drain, join.
  }
  EXPECT_EQ(ran.load(), 500);
}

TEST(ThreadPoolTest, StressThousandsOfTasksManyProducers) {
  constexpr int kProducers = 8;
  constexpr int kTasksPerProducer = 1000;
  ThreadPool pool(4);
  std::atomic<long long> sum{0};

  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&pool, &sum, p] {
      std::vector<std::future<void>> futures;
      futures.reserve(kTasksPerProducer);
      for (int i = 0; i < kTasksPerProducer; ++i) {
        futures.push_back(pool.Submit([&sum, p, i] {
          sum.fetch_add(p * kTasksPerProducer + i,
                        std::memory_order_relaxed);
        }));
      }
      for (auto& f : futures) f.get();
    });
  }
  for (std::thread& t : producers) t.join();

  const long long n = static_cast<long long>(kProducers) * kTasksPerProducer;
  EXPECT_EQ(sum.load(), n * (n - 1) / 2);
  // tasks_completed lags future readiness by design; wait for quiescence.
  while (pool.tasks_completed() < n) std::this_thread::yield();
  EXPECT_EQ(pool.tasks_completed(), n);
}

TEST(ThreadPoolTest, SubmitAfterShutdownThrowsAndSchedulesNothing) {
  // The contract is explicit (common/thread_pool.h): Submit after
  // shutdown began is a documented error — std::runtime_error, nothing
  // scheduled — not undefined behavior.
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 16; ++i) {
    futures.push_back(pool.Submit(
        [&ran] { ran.fetch_add(1, std::memory_order_relaxed); }));
  }
  pool.Shutdown();
  // Everything accepted before shutdown ran to completion...
  for (auto& f : futures) f.get();
  EXPECT_EQ(ran.load(), 16);

  // ...and late work is refused loudly, without scheduling.
  EXPECT_THROW(pool.Submit([&ran] { ran.fetch_add(1); }), std::runtime_error);
  EXPECT_EQ(ran.load(), 16);
  EXPECT_EQ(pool.tasks_completed(), 16);
  // size() reports the construction-time width even after the join.
  EXPECT_EQ(pool.size(), 2);
}

TEST(ThreadPoolTest, ShutdownIsIdempotent) {
  ThreadPool pool(2);
  std::future<int> f = pool.Submit([] { return 5; });
  pool.Shutdown();
  pool.Shutdown();  // second call is a no-op, not a crash or double-join
  EXPECT_EQ(f.get(), 5);
  EXPECT_THROW(pool.Submit([] {}), std::runtime_error);
  // Destructor runs afterwards: a third (implicit) shutdown.
}

TEST(ThreadPoolTest, TwoWorkersCanBlockOnEachOther) {
  ThreadPool pool(2);
  // Two tasks that each wait for the other to have started: they can only
  // both finish if two workers run them concurrently.
  std::promise<void> a_started, b_started;
  std::shared_future<void> a_ready = a_started.get_future().share();
  std::shared_future<void> b_ready = b_started.get_future().share();
  std::future<void> a = pool.Submit([&a_started, b_ready] {
    a_started.set_value();
    b_ready.wait();
  });
  std::future<void> b = pool.Submit([&b_started, a_ready] {
    b_started.set_value();
    a_ready.wait();
  });
  EXPECT_EQ(a.wait_for(std::chrono::seconds(30)),
            std::future_status::ready);
  EXPECT_EQ(b.wait_for(std::chrono::seconds(30)),
            std::future_status::ready);
  a.get();
  b.get();
}

TEST(ForkJoinTest, RunsEveryIndexOnceWithIndexZeroOnTheCaller) {
  constexpr int kIndices = 16;  // more indices than workers
  std::vector<std::atomic<int>> runs(kIndices);
  std::thread::id index_zero_thread;
  ThreadPool pool(4);
  ForkJoin(&pool, kIndices, [&](int i) {
    runs[static_cast<size_t>(i)].fetch_add(1);
    if (i == 0) index_zero_thread = std::this_thread::get_id();
  });
  for (int i = 0; i < kIndices; ++i) {
    EXPECT_EQ(runs[static_cast<size_t>(i)].load(), 1) << "index " << i;
  }
  EXPECT_EQ(index_zero_thread, std::this_thread::get_id());
}

TEST(ForkJoinTest, RunsInlineInOrderWithoutAPoolOrWithOneIndex) {
  std::vector<int> order;
  std::vector<std::thread::id> threads;
  const auto record = [&](int i) {
    order.push_back(i);
    threads.push_back(std::this_thread::get_id());
  };
  ForkJoin(nullptr, 5, record);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));

  ThreadPool pool(2);
  ForkJoin(&pool, 1, record);
  ForkJoin(&pool, 0, record);  // nothing to run
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 0}));
  for (const std::thread::id& id : threads) {
    EXPECT_EQ(id, std::this_thread::get_id());
  }
}

// The indices that do not throw sleep before setting their flag, so a
// ForkJoin that rethrew before joining would be caught with flags unset.
TEST(ForkJoinTest, WorkerFailureSurfacesAfterEveryIndexFinished) {
  std::atomic<bool> finished[4] = {false, false, false, false};
  ThreadPool pool(3);
  try {
    ForkJoin(&pool, 4, [&finished](int i) {
      if (i == 2) throw std::runtime_error("index 2");
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      finished[i].store(true);
    });
    FAIL() << "expected index 2's exception";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()), "index 2");
  }
  for (int i : {0, 1, 3}) EXPECT_TRUE(finished[i].load()) << "index " << i;
}

TEST(ForkJoinTest, IndexZeroFailureSurfacesAfterEveryIndexFinished) {
  std::atomic<bool> finished[4] = {false, false, false, false};
  ThreadPool pool(3);
  try {
    ForkJoin(&pool, 4, [&finished](int i) {
      if (i == 0) throw std::runtime_error("index 0");
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      finished[i].store(true);
    });
    FAIL() << "expected index 0's exception";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()), "index 0");
  }
  for (int i : {1, 2, 3}) EXPECT_TRUE(finished[i].load()) << "index " << i;
}

TEST(ForkJoinTest, TheLowestFailingIndexIsRethrown) {
  ThreadPool pool(3);
  // Index 3 fails first and index 1 last; index 1 still wins.
  try {
    ForkJoin(&pool, 4, [](int i) {
      if (i == 0) return;
      std::this_thread::sleep_for(std::chrono::milliseconds(20 * (4 - i)));
      throw std::runtime_error("index " + std::to_string(i));
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()), "index 1");
  }
  // Index 0 outranks every worker index.
  try {
    ForkJoin(&pool, 4, [](int i) {
      throw std::runtime_error("index " + std::to_string(i));
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()), "index 0");
  }
}

TEST(ForkJoinTest, ShutDownPoolThrowsAndRunsNothing) {
  std::atomic<int> ran{0};
  ThreadPool pool(2);
  pool.Shutdown();
  EXPECT_THROW(ForkJoin(&pool, 3, [&ran](int) { ran.fetch_add(1); }),
               std::runtime_error);
  EXPECT_EQ(ran.load(), 0);
  EXPECT_EQ(pool.tasks_completed(), 0);
}

}  // namespace
}  // namespace pmw
