#include "frontend/dispatcher.h"

#include <utility>

#include "common/check.h"

namespace pmw {
namespace frontend {

Dispatcher::Dispatcher(serve::PmwService* service, QuotaManager* quota,
                       const DispatcherOptions& options)
    : service_(service),
      quota_(quota),
      options_(options),
      queue_(options.queue_capacity) {
  PMW_CHECK(service != nullptr);
  PMW_CHECK_GE(options.max_batch, size_t{1});
  // Frontend instruments live in the service's registry so one scrape
  // covers the whole stack; handles resolved once, here.
  obs::Registry& registry = service_->registry();
  m_.submitted = registry.GetCounter("pmw_frontend_submitted_total");
  m_.admitted = registry.GetCounter("pmw_frontend_admitted_total");
  m_.quota_rejected =
      registry.GetCounter("pmw_frontend_quota_rejected_total");
  m_.shutdown_rejected =
      registry.GetCounter("pmw_frontend_shutdown_rejected_total");
  m_.deadline_expired =
      registry.GetCounter("pmw_frontend_deadline_expired_total");
  m_.batches = registry.GetCounter("pmw_frontend_batches_total");
  m_.batch_fill = registry.GetHistogram(
      "pmw_frontend_batch_fill", obs::Histogram::LogBuckets(1.0, 2.0, 12));
  // 1us .. ~8.4s in x2 steps: queue waits and batch serve times.
  m_.queue_wait_us = registry.GetHistogram(
      "pmw_frontend_queue_wait_us", obs::Histogram::LogBuckets(1.0, 2.0, 24));
  m_.serve_us = registry.GetHistogram(
      "pmw_frontend_serve_us", obs::Histogram::LogBuckets(1.0, 2.0, 24));
  dispatcher_ = std::thread([this] { DispatchLoop(); });
}

Dispatcher::~Dispatcher() { Shutdown(); }

std::future<Served> Dispatcher::Submit(
    const std::string& analyst_id, const convex::CmQuery& query,
    uint64_t* request_id, std::chrono::steady_clock::time_point deadline) {
  Request request;
  request.id = next_id_.fetch_add(1, std::memory_order_relaxed);
  request.analyst_id = analyst_id;
  request.query = query;
  request.deadline = deadline;
  std::future<Served> future = request.promise.get_future();
  if (request_id != nullptr) *request_id = request.id;
  m_.submitted->Add(1);

  if (shutdown_.load(std::memory_order_acquire)) {
    m_.shutdown_rejected->Add(1);
    request.promise.set_value(Served(
        Status(StatusCode::kShutdown, "frontend: dispatcher is shut down")));
    return future;
  }

  // Admission control before the queue: a rejected request never reaches
  // the mechanism, so it cannot consume privacy budget or a query slot.
  if (quota_ != nullptr) {
    Status admit = quota_->Admit(analyst_id);
    if (!admit.ok()) {
      m_.quota_rejected->Add(1);
      request.promise.set_value(Served(std::move(admit)));
      return future;
    }
  }

  request.enqueued_at = std::chrono::steady_clock::now();
  // Push moves from `request` only on success, so a close raced between
  // the shutdown check above and here still leaves us the promise to
  // resolve with the typed error — and the quota slot to hand back (the
  // mechanism never saw the query, so the analyst must not stay charged).
  if (!queue_.Push(request)) {
    if (quota_ != nullptr) quota_->Refund(analyst_id);
    m_.shutdown_rejected->Add(1);
    request.promise.set_value(Served(
        Status(StatusCode::kShutdown, "frontend: dispatcher is shut down")));
  } else {
    // Counters are monotonic: admitted is recorded only once the push
    // actually stuck.
    m_.admitted->Add(1);
  }
  return future;
}

void Dispatcher::DispatchLoop() {
  std::vector<Request> batch;
  std::vector<Request> live;
  std::vector<convex::CmQuery> queries;
  std::vector<std::string> tags;
  std::vector<serve::QueryOutcome> outcomes;
  for (;;) {
    batch.clear();
    live.clear();
    queries.clear();
    tags.clear();
    if (!queue_.PopBatch(&batch, options_.max_batch)) {
      return;  // closed and drained
    }
    // Deadline sweep at the last instant before serving: a request whose
    // deadline passed while queued resolves with kDeadlineExpired and is
    // dropped from the batch — the mechanism never sees it, so expiry is
    // free (no ledger event, no k-query slot) and the quota slot goes
    // back to the analyst.
    //
    // Refund audit: this is one of exactly two Refund sites, and they are
    // mutually exclusive per request. The Submit-side refund fires only
    // when Push fails, in which case the request was never enqueued and
    // can never reach this sweep; a request swept here was popped from
    // the queue, so its Push succeeded and the Submit-side refund did not
    // fire. Each admitted request therefore refunds at most once, and
    // QuotaManager::Refund saturating at zero is a backstop, not a mask
    // for double refunds (frontend_test pins the exact counts).
    const auto now = std::chrono::steady_clock::now();
    std::vector<Request> expired;
    for (Request& request : batch) {
      if (request.deadline != std::chrono::steady_clock::time_point{} &&
          request.deadline < now) {
        if (quota_ != nullptr) quota_->Refund(request.analyst_id);
        expired.push_back(std::move(request));
      } else {
        live.push_back(std::move(request));
      }
    }
    if (!expired.empty()) {
      // Count before resolving, so an awoken waiter always observes its
      // own expiry in pmw_frontend_deadline_expired_total.
      m_.deadline_expired->Add(static_cast<long long>(expired.size()));
      for (Request& request : expired) {
        Served served(Status(
            StatusCode::kDeadlineExpired,
            "frontend: deadline expired after " +
                std::to_string(
                    std::chrono::duration_cast<std::chrono::microseconds>(
                        now - request.deadline)
                        .count()) +
                "us in queue"));
        served.queue_wait_us = static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::microseconds>(
                now - request.enqueued_at)
                .count());
        request.promise.set_value(std::move(served));
      }
    }
    if (live.empty()) continue;
    for (const Request& request : live) {
      queries.push_back(request.query);
      tags.push_back(request.analyst_id);
    }
    // The latency split: `now` marks batch formation, so everything
    // before it is queue wait and the AnswerBatch wall time below is
    // serve time (shared by every request the batch carries).
    std::vector<uint64_t> queue_waits_us;
    queue_waits_us.reserve(live.size());
    for (const Request& request : live) {
      queue_waits_us.push_back(static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(
              now - request.enqueued_at)
              .count()));
    }
    // The single-writer serving call. Arrival order == queue FIFO order
    // == the order results are committed and promises resolved below.
    const auto serve_start = std::chrono::steady_clock::now();
    std::vector<Result<convex::Vec>> results =
        service_->AnswerBatch(queries, tags, &outcomes);
    const uint64_t batch_serve_us = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - serve_start)
            .count());
    PMW_CHECK_EQ(results.size(), live.size());
    PMW_CHECK_EQ(outcomes.size(), live.size());
    if (options_.record_arrival_log) {
      std::lock_guard<std::mutex> lock(arrival_log_mutex_);
      for (const Request& request : live) {
        arrival_log_.push_back(request.id);
      }
    }
    m_.batches->Add(1);
    m_.batch_fill->Observe(static_cast<double>(live.size()));
    for (uint64_t wait_us : queue_waits_us) {
      m_.queue_wait_us->Observe(static_cast<double>(wait_us));
      m_.serve_us->Observe(static_cast<double>(batch_serve_us));
    }
    for (size_t j = 0; j < live.size(); ++j) {
      Served served(std::move(results[j]), outcomes[j]);
      served.queue_wait_us = queue_waits_us[j];
      served.serve_us = batch_serve_us;
      served.committed = true;
      const bool answered_ok = served.answer.ok();
      live[j].promise.set_value(std::move(served));
      // The span tree is assembled and published AFTER the promise
      // resolves: a waiting client never pays for tracing, and the
      // recorder's per-slot lock is the only synchronization touched.
      if (options_.trace_recorder != nullptr) {
        const serve::QueryOutcome& outcome = outcomes[j];
        obs::RequestTrace trace;
        trace.trace_id = live[j].id;
        trace.analyst = live[j].analyst_id;
        trace.query = live[j].query.label;
        trace.total_us = queue_waits_us[j] + batch_serve_us;
        trace.hard_round = outcome.hard_round;
        trace.ok = answered_ok;
        const uint64_t commit_start =
            queue_waits_us[j] + outcome.prepare_us;
        trace.spans.push_back({"queue", 0, queue_waits_us[j], -1});
        trace.spans.push_back(
            {"prepare", queue_waits_us[j], outcome.prepare_us, -1});
        trace.spans.push_back(
            {"commit", commit_start, outcome.commit_us, -1});
        if (outcome.solve_us > 0) {
          trace.spans.push_back(
              {"solve", commit_start, outcome.solve_us, -1});
        }
        if (outcome.mw_us > 0) {
          trace.spans.push_back({"mw", commit_start + outcome.solve_us,
                                 outcome.mw_us, -1});
        }
        for (size_t s = 0; s < outcome.shard_us.size(); ++s) {
          trace.spans.push_back({"shard_mw",
                                 commit_start + outcome.solve_us,
                                 outcome.shard_us[s],
                                 static_cast<int>(s)});
        }
        options_.trace_recorder->Publish(std::move(trace));
      }
    }
  }
}

void Dispatcher::Shutdown() {
  std::lock_guard<std::mutex> lock(shutdown_mutex_);
  shutdown_.store(true, std::memory_order_release);
  queue_.Close();
  if (dispatcher_.joinable()) dispatcher_.join();
}

std::vector<uint64_t> Dispatcher::ArrivalLog() const {
  if (!options_.record_arrival_log) return {};
  std::lock_guard<std::mutex> lock(arrival_log_mutex_);
  return arrival_log_;
}

}  // namespace frontend
}  // namespace pmw
