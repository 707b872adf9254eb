// A bounded multi-producer / single-consumer request queue: the fan-in
// point of the async serving front-end (frontend/dispatcher.h). Many
// client threads push requests; one dispatcher thread drains them in
// batches and feeds the single-writer serving loop.
//
// Lock discipline is deliberately minimal rather than lock-free: one
// mutex and two condition variables, with the consumer amortizing the
// lock over a whole batch (PopBatch drains every available item under a
// single acquisition) instead of paying it per element. Producers only
// contend on push, and the arrival order the consumer observes is the
// queue's FIFO order — which is what makes the front-end's transcripts
// replayable: per-producer program order is preserved, and the global
// interleaving is fixed at enqueue time, before any serving work runs.
//
// Ownership on rejection: Push/TryPush take the item by lvalue reference
// and move from it only on success. A rejected item (queue closed, or
// full for TryPush) is left untouched, so callers can salvage move-only
// payloads — the dispatcher fulfills a request's promise with a typed
// shutdown error instead of letting it break.

#ifndef PMWCM_COMMON_MPSC_QUEUE_H_
#define PMWCM_COMMON_MPSC_QUEUE_H_

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <utility>
#include <vector>

#include "common/check.h"

namespace pmw {

template <typename T>
class MpscQueue {
 public:
  enum class PushResult { kOk, kFull, kClosed };

  /// A queue holding at most `capacity` items (>= 1). Producers pushing
  /// into a full queue block (Push) or bounce (TryPush) — backpressure,
  /// never unbounded growth.
  explicit MpscQueue(size_t capacity) : capacity_(capacity) {
    PMW_CHECK_GE(capacity, size_t{1});
  }

  MpscQueue(const MpscQueue&) = delete;
  MpscQueue& operator=(const MpscQueue&) = delete;

  /// Blocks until there is space (or the queue closes). Returns true and
  /// moves from `item` on success; returns false with `item` untouched
  /// when the queue is closed.
  bool Push(T& item) {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      can_push_.wait(
          lock, [this] { return items_.size() < capacity_ || closed_; });
      if (closed_) return false;
      items_.push_back(std::move(item));
    }
    can_pop_.notify_one();
    return true;
  }

  /// Non-blocking push. Moves from `item` only on kOk.
  PushResult TryPush(T& item) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (closed_) return PushResult::kClosed;
      if (items_.size() >= capacity_) return PushResult::kFull;
      items_.push_back(std::move(item));
    }
    can_pop_.notify_one();
    return PushResult::kOk;
  }

  /// Consumer side (one thread). Blocks until at least one item is
  /// available (or the queue is closed and drained), then appends up to
  /// `max_items` to `*out`. After the first item arrives the consumer
  /// lingers up to `max_wait` for the batch to fill — the dispatcher's
  /// flush-on-max-batch-or-deadline policy — so a burst coalesces into
  /// one batch while a lone request still flushes promptly. Returns false
  /// only when the queue is closed and empty (the drain is complete).
  bool PopBatch(std::vector<T>* out, size_t max_items,
                std::chrono::microseconds max_wait) {
    PMW_CHECK_GE(max_items, size_t{1});
    size_t popped = 0;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      can_pop_.wait(lock, [this] { return !items_.empty() || closed_; });
      if (items_.empty()) return false;  // closed and fully drained
      const auto deadline = std::chrono::steady_clock::now() + max_wait;
      for (;;) {
        const size_t before = popped;
        while (!items_.empty() && popped < max_items) {
          out->push_back(std::move(items_.front()));
          items_.pop_front();
          ++popped;
        }
        // Wake producers *before* lingering: under backpressure the only
        // way more items can arrive during the linger is if the blocked
        // pushers learn about the space this drain just freed.
        if (popped > before) can_push_.notify_all();
        if (popped >= max_items || closed_ ||
            max_wait <= std::chrono::microseconds::zero()) {
          break;
        }
        // Linger for more of the batch; a timeout flushes what we have.
        if (!can_pop_.wait_until(lock, deadline, [this] {
              return !items_.empty() || closed_;
            })) {
          break;
        }
      }
    }
    return true;
  }

  /// Closes the queue: every blocked producer wakes and fails, the
  /// consumer drains what was already queued, then PopBatch returns
  /// false. Idempotent.
  void Close() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      closed_ = true;
    }
    can_push_.notify_all();
    can_pop_.notify_all();
  }

  bool closed() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return closed_;
  }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return items_.size();
  }

  size_t capacity() const { return capacity_; }

 private:
  const size_t capacity_;
  mutable std::mutex mutex_;
  std::condition_variable can_push_;  // producers: space freed or closed
  std::condition_variable can_pop_;   // consumer: item arrived or closed
  std::deque<T> items_;
  bool closed_ = false;
};

}  // namespace pmw

#endif  // PMWCM_COMMON_MPSC_QUEUE_H_
