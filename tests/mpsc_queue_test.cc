// MpscQueue unit + concurrency tests: FIFO order, bounded backpressure,
// batch-pop flush policy (max-batch or deadline), close/drain semantics,
// a rejected push leaving its item untouched, and a many-producers
// stress run checking per-producer order preservation. The TSan CI job
// rebuilds this binary, so the queue's synchronization claims are
// machine-checked.

#include "common/mpsc_queue.h"

#include <atomic>
#include <chrono>
#include <thread>
#include <utility>
#include <vector>

#include "gtest/gtest.h"

namespace pmw {
namespace {

using std::chrono::microseconds;

TEST(MpscQueueTest, FifoOrderThroughBatches) {
  MpscQueue<int> queue(16);
  for (int i = 0; i < 10; ++i) {
    int item = i;
    ASSERT_TRUE(queue.Push(item));
  }
  EXPECT_EQ(queue.size(), 10u);

  std::vector<int> out;
  ASSERT_TRUE(queue.PopBatch(&out, 4, microseconds(0)));
  ASSERT_TRUE(queue.PopBatch(&out, 100, microseconds(0)));
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
  ASSERT_TRUE(queue.PopBatch(&out, 4, microseconds(0)));
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
  ASSERT_TRUE(queue.PopBatch(&out, 100, microseconds(0)));
  EXPECT_EQ(out.size(), 3u);
  // Drained: now the consumer learns the stream ended.
  EXPECT_FALSE(queue.PopBatch(&out, 100, microseconds(0)));
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
    queue.PopBatch(&out, 4, microseconds(0));
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  int item = 42;
  ASSERT_TRUE(queue.Push(item));
  consumer.join();
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], 42);
}

TEST(MpscQueueTest, DeadlineFlushesPartialBatch) {
  MpscQueue<int> queue(8);
  int item = 7;
  ASSERT_TRUE(queue.Push(item));
  std::vector<int> out;
  // Asks for 8 but only 1 is coming; the deadline must flush it.
  ASSERT_TRUE(queue.PopBatch(&out, 8, microseconds(2000)));
  EXPECT_EQ(out.size(), 1u);
}

TEST(MpscQueueTest, LingerCoalescesABurstIntoOneBatch) {
  MpscQueue<int> queue(64);
  int first = 0;
  ASSERT_TRUE(queue.Push(first));
  std::thread producer([&queue] {
    for (int i = 1; i < 8; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      int item = i;
      queue.Push(item);
    }
  });
  std::vector<int> out;
  // A generous deadline lets the trickle coalesce; flush fires on the
  // max-batch bound, not the clock.
  ASSERT_TRUE(queue.PopBatch(&out, 8, std::chrono::microseconds(2000000)));
  producer.join();
  EXPECT_EQ(out.size(), 8u);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(out[static_cast<size_t>(i)], i);
  }
}

TEST(MpscQueueTest, LingerReleasesBackpressuredProducers) {
  // Regression: the consumer must wake blocked producers for the space a
  // drain frees *before* lingering, or a backpressured batch could never
  // grow past the queue capacity and every batch would burn the full
  // deadline. One PopBatch here must collect more items than the queue
  // can hold — only possible if pushers run mid-linger.
  MpscQueue<int> queue(2);
  for (int i = 0; i < 2; ++i) {
    int item = i;
    ASSERT_TRUE(queue.Push(item));
  }
  std::thread producer([&queue] {
    for (int i = 2; i < 8; ++i) {
      int item = i;
      queue.Push(item);  // blocks until the consumer frees space
    }
  });
  std::vector<int> out;
  ASSERT_TRUE(queue.PopBatch(&out, 8, std::chrono::microseconds(2000000)));
  producer.join();
  ASSERT_EQ(out.size(), 8u);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(out[static_cast<size_t>(i)], i);
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
    ASSERT_TRUE(queue.PopBatch(&batch, 32, microseconds(100)));
    for (auto& item : batch) all.push_back(item);
  }
  for (std::thread& t : producers) t.join();
  EXPECT_EQ(pushed.load(), kProducers * kPerProducer);
  queue.Close();
  ASSERT_FALSE(queue.PopBatch(&batch, 1, microseconds(0)));

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
