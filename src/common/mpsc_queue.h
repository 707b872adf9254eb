// A bounded multi-producer / single-consumer request queue: the fan-in
// point of the async serving front-end (frontend/dispatcher.h). Many
// client threads push requests; one dispatcher thread drains them in
// batches and feeds the single-writer serving loop.
//
// Lock discipline is deliberately minimal rather than lock-free: one
// mutex and two condition variables, with the consumer amortizing the
// lock over a whole batch (PopBatch drains every available item under a
// single acquisition) instead of paying it per element. The consumer
// never waits for a batch to fill: batches form only from what queued up
// while the consumer was busy (group commit). Producers only
// contend on push, and the arrival order the consumer observes is the
// queue's FIFO order — which is what makes the front-end's transcripts
// replayable: per-producer program order is preserved, and the global
// interleaving is fixed at enqueue time, before any serving work runs.
//
// Ownership on rejection: Push takes the item by lvalue reference and
// moves from it only on success. An item rejected by a closed queue is
// left untouched, so callers can salvage move-only payloads — the
// dispatcher fulfills a request's promise with a typed shutdown error
// instead of letting it break.

#ifndef PMWCM_COMMON_MPSC_QUEUE_H_
#define PMWCM_COMMON_MPSC_QUEUE_H_

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
  /// A queue holding at most `capacity` items (>= 1). Producers pushing
  /// into a full queue block — backpressure, never unbounded growth.
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

  /// Consumer side (one thread). Blocks until at least one item is
  /// available (or the queue is closed and drained), then moves up to
  /// `max_items` of what is already queued to `*out` and returns at once.
  /// It never lingers for more: this is the dispatcher's group commit, so
  /// a batch holds exactly what arrived while the writer was busy with the
  /// previous one, and a request reaching an idle writer is served alone.
  /// Returns false only when the queue is closed and empty (the drain is
  /// complete).
  bool PopBatch(std::vector<T>* out, size_t max_items) {
    PMW_CHECK_GE(max_items, size_t{1});
    {
      std::unique_lock<std::mutex> lock(mutex_);
      can_pop_.wait(lock, [this] { return !items_.empty() || closed_; });
      if (items_.empty()) return false;  // closed and fully drained
      for (size_t popped = 0; !items_.empty() && popped < max_items;
           ++popped) {
        out->push_back(std::move(items_.front()));
        items_.pop_front();
      }
    }
    // The drain freed space: wake every producer blocked on a full queue.
    can_push_.notify_all();
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

  size_t size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return items_.size();
  }

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
