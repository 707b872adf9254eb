// MpscQueue unit + concurrency tests: FIFO order, bounded backpressure,
// the group-commit pop (a batch is what is already queued, capped at
// max_items, never a wait for more), each drain waking backpressured
// producers, close/drain semantics, a rejected push leaving its item
// untouched, and a many-producers stress run checking per-producer order
// preservation. The TSan CI job
// rebuilds this binary, so the queue's synchronization claims are
// machine-checked.

#include "common/mpsc_queue.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "gtest/gtest.h"

namespace pmw {
namespace {

TEST(MpscQueueTest, FifoOrderThroughBatches) {
  MpscQueue<int> queue(16);
  for (int i = 0; i < 10; ++i) {
    int item = i;
    ASSERT_TRUE(queue.Push(item));
  }
  EXPECT_EQ(queue.size(), 10u);

  std::vector<int> out;
  ASSERT_TRUE(queue.PopBatch(&out, 4));
  ASSERT_TRUE(queue.PopBatch(&out, 100));
  ASSERT_EQ(out.size(), 10u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(out[static_cast<size_t>(i)], i);
  }
}

TEST(MpscQueueTest, MaxItemsBoundsTheBatch) {
  MpscQueue<int> queue(16);
  for (int i = 0; i < 10; ++i) {
    int item = i;
    ASSERT_TRUE(queue.Push(item));
  }
  std::vector<int> out;
  ASSERT_TRUE(queue.PopBatch(&out, 4));
  EXPECT_EQ(out.size(), 4u);
  EXPECT_EQ(queue.size(), 6u);
}

TEST(MpscQueueTest, CloseDrainsThenSignalsDone) {
  MpscQueue<int> queue(8);
  for (int i = 0; i < 3; ++i) {
    int item = i;
    ASSERT_TRUE(queue.Push(item));
  }
  queue.Close();

  int late = 99;
  EXPECT_FALSE(queue.Push(late));
  EXPECT_EQ(late, 99);  // untouched on rejection

  std::vector<int> out;
  ASSERT_TRUE(queue.PopBatch(&out, 100));
  EXPECT_EQ(out.size(), 3u);
  // Drained: now the consumer learns the stream ended.
  EXPECT_FALSE(queue.PopBatch(&out, 100));
}

TEST(MpscQueueTest, BlockedProducerWakesOnClose) {
  MpscQueue<int> queue(1);
  int first = 1;
  ASSERT_TRUE(queue.Push(first));

  std::atomic<bool> push_returned{false};
  std::atomic<bool> push_result{true};
  std::thread producer([&queue, &push_returned, &push_result] {
    int item = 2;
    push_result.store(queue.Push(item));  // blocks: queue is full
    push_returned.store(true);
  });
  // Give the producer a moment to block, then close underneath it.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  queue.Close();
  producer.join();
  EXPECT_TRUE(push_returned.load());
  EXPECT_FALSE(push_result.load());
}

TEST(MpscQueueTest, BlockedConsumerWakesOnPush) {
  MpscQueue<int> queue(4);
  std::vector<int> out;
  std::thread consumer([&queue, &out] {
    // Blocks until the producer below delivers.
    queue.PopBatch(&out, 4);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  int item = 42;
  ASSERT_TRUE(queue.Push(item));
  consumer.join();
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], 42);
}

TEST(MpscQueueTest, LoneItemComesBackAlone) {
  // Group commit: a pop that asks for 8 takes the one queued item and
  // returns with it instead of waiting for the batch to fill.
  MpscQueue<int> queue(8);
  int item = 7;
  ASSERT_TRUE(queue.Push(item));
  std::vector<int> out;
  ASSERT_TRUE(queue.PopBatch(&out, 8));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], 7);
  EXPECT_EQ(queue.size(), 0u);
}

TEST(MpscQueueTest, EachDrainWakesBackpressuredProducers) {
  // A producer pushes 8 items through a capacity-2 queue. The consumer
  // pauses before each pop, so the producer fills the queue and blocks;
  // only the drain's wake-up lets it go on. Every batch holds at most
  // what the queue can (2), and the 8 items arrive in order over
  // successive pops. A drain that failed to wake the producer would
  // leave it blocked for good: the watchdog then closes the queue after
  // 10 s, the pops end early, and the size check fails instead of
  // hanging.
  MpscQueue<int> queue(2);
  std::thread producer([&queue] {
    for (int i = 0; i < 8; ++i) {
      int item = i;
      if (!queue.Push(item)) return;  // closed by the watchdog
    }
  });
  std::mutex mutex;
  std::condition_variable done_cv;
  bool done = false;
  std::thread watchdog([&] {
    std::unique_lock<std::mutex> lock(mutex);
    if (!done_cv.wait_for(lock, std::chrono::seconds(10),
                          [&done] { return done; })) {
      queue.Close();
    }
  });

  std::vector<int> all;
  std::vector<int> batch;
  while (all.size() < 8) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    batch.clear();
    if (!queue.PopBatch(&batch, 8)) break;  // closed and drained
    EXPECT_LE(batch.size(), 2u);
    all.insert(all.end(), batch.begin(), batch.end());
  }
  {
    std::lock_guard<std::mutex> lock(mutex);
    done = true;
  }
  done_cv.notify_all();
  watchdog.join();
  producer.join();

  ASSERT_EQ(all.size(), 8u);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(all[static_cast<size_t>(i)], i);
  }
}

TEST(MpscQueueTest, ManyProducersPreservePerProducerOrder) {
  constexpr int kProducers = 8;
  constexpr int kPerProducer = 1000;
  // Tiny capacity so producers constantly hit backpressure.
  MpscQueue<std::pair<int, int>> queue(4);

  std::atomic<int> pushed{0};  // gtest assertions stay on the main thread
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([p, &queue, &pushed] {
      for (int i = 0; i < kPerProducer; ++i) {
        std::pair<int, int> item{p, i};
        if (queue.Push(item)) pushed.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  std::vector<std::pair<int, int>> all;
  std::vector<std::pair<int, int>> batch;
  while (all.size() < static_cast<size_t>(kProducers * kPerProducer)) {
    batch.clear();
    ASSERT_TRUE(queue.PopBatch(&batch, 32));
    for (auto& item : batch) all.push_back(item);
  }
  for (std::thread& t : producers) t.join();
  EXPECT_EQ(pushed.load(), kProducers * kPerProducer);
  queue.Close();
  ASSERT_FALSE(queue.PopBatch(&batch, 1));

  // Per-producer FIFO: each producer's items appear in submission order
  // (the global interleaving is arbitrary).
  std::vector<int> next(kProducers, 0);
  for (const auto& [p, i] : all) {
    EXPECT_EQ(i, next[static_cast<size_t>(p)]);
    next[static_cast<size_t>(p)] = i + 1;
  }
  for (int p = 0; p < kProducers; ++p) {
    EXPECT_EQ(next[static_cast<size_t>(p)], kPerProducer);
  }
}

}  // namespace
}  // namespace pmw
