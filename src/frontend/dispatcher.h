// INTERNAL — the asynchronous multi-analyst engine behind the public
// pmw::api surface. Since PR 4 the one public serving surface is
// api::Client / api::ServerEndpoint (src/api/); examples and external
// callers must not include this header or call Submit directly (CI's
// examples-smoke job enforces the include rule). Tests and benchmarks
// may, to pin the engine's behavior and measure the api layer's overhead
// against it.
//
//   analysts --Submit--> MpscQueue --PopBatch--> Dispatcher thread
//        --AnswerBatch--> serve::PmwService --> futures resolve
//
// Many analyst threads call Submit concurrently; each admitted request
// enters a bounded MPSC queue (common/mpsc_queue.h) and comes back as a
// std::future. One dispatcher thread drains the queue into
// dynamically-sized batches by group commit — each batch is whatever
// queued while the previous one was being served, up to max_batch, and a
// request reaching an idle dispatcher is served at once, never held back
// for company — and feeds them to PmwService::AnswerBatch, which
// preserves arrival order through its single-writer commit loop. The
// composition keeps the serving layer's guarantee end to end: the
// transcript (answers + privacy ledger) is bit-identical to feeding the
// same arrival-ordered sequence through sequential PmwCm
// (tests/frontend_test.cc replays the recorded arrival log to prove it).
//
// Admission control happens in Submit, before the queue: a
// QuotaManager rejection resolves the future immediately with a typed
// error and costs zero privacy budget.

#ifndef PMWCM_FRONTEND_DISPATCHER_H_
#define PMWCM_FRONTEND_DISPATCHER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/mpsc_queue.h"
#include "common/result.h"
#include "convex/cm_query.h"
#include "frontend/quota_manager.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/pmw_service.h"

namespace pmw {
namespace frontend {

struct DispatcherOptions {
  /// Bound on queued (admitted, not yet served) requests; full-queue
  /// submits block — backpressure, never unbounded growth.
  size_t queue_capacity = 1024;
  /// Cap on requests per batch. A batch carries what queued while the
  /// previous one was served (group commit); it never waits to fill.
  size_t max_batch = 64;
  /// Record the ids of committed requests in commit order (ArrivalLog);
  /// tests replay the log through sequential PmwCm.
  bool record_arrival_log = false;
  /// Span sink (not owned). The api endpoint always passes its trace
  /// ring; null (bare-dispatcher tests) records none. The dispatcher
  /// assembles each served request's span tree — queue wait, batch
  /// prepare, commit with its solve/MW halves, per-shard MW — and
  /// publishes it here AFTER resolving the request's promise, so
  /// tracing sits strictly outside the answer path.
  obs::TraceRecorder* trace_recorder = nullptr;
};

/// What a Submit future resolves with: the released theta (or typed
/// error) plus the serving metadata the api layer forwards to clients.
struct Served {
  Result<convex::Vec> answer;
  /// Meaningful only when the request reached the service (default
  /// elsewhere, e.g. quota/deadline/shutdown rejections).
  serve::QueryOutcome outcome;
  /// Latency split, in microseconds (what the pmw_frontend_queue_wait_us
  /// and pmw_frontend_serve_us histograms observe): queue wait until the
  /// request's batch formed, and the batch's serving wall time. Zero for
  /// requests that never reached the queue (quota/shutdown rejections);
  /// expired requests carry their queue wait with serve_us = 0.
  uint64_t queue_wait_us = 0;
  uint64_t serve_us = 0;
  /// True iff the dispatcher handed the request to AnswerBatch: it is a
  /// transcript entry (its id is in ArrivalLog), error or not. False for
  /// quota, shutdown and deadline rejections, which the mechanism never
  /// saw.
  bool committed = false;

  Served(Result<convex::Vec> a) : answer(std::move(a)) {}  // NOLINT
  Served(Result<convex::Vec> a, serve::QueryOutcome o)
      : answer(std::move(a)), outcome(o) {}
};

class Dispatcher {
 public:
  /// `service` must outlive the dispatcher and must not be driven by
  /// anyone else while the dispatcher runs (it is the single writer).
  /// `quota` is optional (null disables admission control) and not
  /// owned. The dispatcher thread starts immediately.
  Dispatcher(serve::PmwService* service, QuotaManager* quota,
             const DispatcherOptions& options = {});

  /// Shutdown().
  ~Dispatcher();

  Dispatcher(const Dispatcher&) = delete;
  Dispatcher& operator=(const Dispatcher&) = delete;

  /// Submits one query on behalf of `analyst_id`. Thread-safe; blocks
  /// only when the queue is full. The future resolves with the released
  /// theta or a typed error (quota rejection, deadline expiry, mechanism
  /// kHalted / kBudgetExhausted, or shutdown). If `request_id` is
  /// non-null it receives the request's unique id (what ArrivalLog
  /// records). A non-default `deadline` bounds how long the request may
  /// wait in the queue: if it expires before the dispatcher hands the
  /// request to the service, the future resolves with kDeadlineExpired,
  /// the quota slot is refunded, and the mechanism never sees the query
  /// (zero privacy cost).
  std::future<Served> Submit(
      const std::string& analyst_id, const convex::CmQuery& query,
      uint64_t* request_id = nullptr,
      std::chrono::steady_clock::time_point deadline = {});

  /// Stops accepting work, serves everything already queued, and joins
  /// the dispatcher thread. Idempotent and safe to call from any thread.
  void Shutdown();

  /// Ids of committed requests in commit (arrival) order. Complete only
  /// after Shutdown; empty unless options.record_arrival_log.
  std::vector<uint64_t> ArrivalLog() const;

  serve::PmwService& service() { return *service_; }

 private:
  struct Request {
    uint64_t id = 0;
    std::string analyst_id;
    convex::CmQuery query;
    /// steady_clock epoch (the default) means no deadline.
    std::chrono::steady_clock::time_point deadline{};
    /// When the request passed admission and entered the queue; the
    /// dispatch loop turns it into the queue-wait half of the latency
    /// split.
    std::chrono::steady_clock::time_point enqueued_at{};
    std::promise<Served> promise;
  };

  void DispatchLoop();

  /// Registry handles (instruments live in the service's registry, so
  /// one scrape covers both layers); resolved once at construction.
  struct Instruments {
    obs::Counter* submitted = nullptr;
    obs::Counter* admitted = nullptr;
    obs::Counter* quota_rejected = nullptr;
    obs::Counter* shutdown_rejected = nullptr;
    obs::Counter* deadline_expired = nullptr;
    obs::Counter* batches = nullptr;
    obs::Histogram* batch_fill = nullptr;
    obs::Histogram* queue_wait_us = nullptr;
    obs::Histogram* serve_us = nullptr;
  };

  serve::PmwService* service_;
  QuotaManager* quota_;
  const DispatcherOptions options_;
  Instruments m_;
  MpscQueue<Request> queue_;
  std::atomic<uint64_t> next_id_{0};
  std::atomic<bool> shutdown_{false};
  std::mutex shutdown_mutex_;  // serializes Shutdown callers
  /// Taken only when options_.record_arrival_log is set.
  mutable std::mutex arrival_log_mutex_;
  std::vector<uint64_t> arrival_log_;
  std::thread dispatcher_;  // last member: starts in the constructor
};

}  // namespace frontend
}  // namespace pmw

#endif  // PMWCM_FRONTEND_DISPATCHER_H_
