#include "api/endpoint.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/check.h"
#include "erm/glm_oracle.h"
#include "erm/noisy_gradient_oracle.h"
#include "erm/nonprivate_oracle.h"
#include "obs/slo.h"

namespace pmw {
namespace api {
namespace {

std::unique_ptr<erm::Oracle> MakeOracle(OracleKind kind) {
  switch (kind) {
    case OracleKind::kNoisyGradient:
      return std::make_unique<erm::NoisyGradientOracle>();
    case OracleKind::kGlm:
      return std::make_unique<erm::GlmOracle>();
    case OracleKind::kNonPrivate:
      return std::make_unique<erm::NonPrivateOracle>();
  }
  return std::make_unique<erm::NoisyGradientOracle>();
}

/// The front door's one protocol-version gate. Returns the reply envelope
/// every handler starts from: the request id echoed and, when this
/// endpoint speaks `version`, that version with no error; otherwise a
/// typed kVersionMismatch rejection at the endpoint's own version (the
/// request's layout is unknowable). `kind` names the request in the
/// message.
AnswerEnvelope GateVersion(uint8_t version, uint64_t request_id,
                           const std::string& kind) {
  AnswerEnvelope envelope;
  envelope.request_id = request_id;
  if (version >= kMinProtocolVersion && version <= kProtocolVersion) {
    envelope.version = version;
    return envelope;
  }
  envelope.error = ErrorCode::kVersionMismatch;
  envelope.message = "endpoint: " + kind + " speaks protocol version " +
                     std::to_string(version) + "; this endpoint speaks [" +
                     std::to_string(kMinProtocolVersion) + ", " +
                     std::to_string(kProtocolVersion) + "]";
  return envelope;
}

}  // namespace

void CodecCounters::BindTo(obs::Registry* registry) {
  frames_encoded = registry->GetCounter("pmw_api_frames_encoded_total");
  frames_decoded = registry->GetCounter("pmw_api_frames_decoded_total");
  decode_errors = registry->GetCounter("pmw_api_decode_errors_total");
  bytes_in = registry->GetCounter("pmw_api_bytes_in_total");
  bytes_out = registry->GetCounter("pmw_api_bytes_out_total");
}

ServerEndpoint::ServerEndpoint(const data::Dataset* dataset,
                               const QueryCatalog* catalog,
                               const ServerOptions& options, uint64_t seed)
    : ServerEndpoint(dataset, nullptr, catalog, options, seed) {}

ServerEndpoint::ServerEndpoint(const data::Dataset* dataset,
                               erm::Oracle* oracle,
                               const QueryCatalog* catalog,
                               const ServerOptions& options, uint64_t seed)
    : catalog_(catalog), options_(options) {
  PMW_CHECK(dataset != nullptr);
  PMW_CHECK(catalog != nullptr);
  codec_counters_.BindTo(&registry_);
  if (oracle == nullptr) {
    owned_oracle_ = MakeOracle(options.oracle);
    oracle = owned_oracle_.get();
  }
  // The serve/frontend layers record into the endpoint's registry so one
  // kMetricsRequest scrape covers the whole stack.
  serve::ServeOptions serve_options = options.serve;
  serve_options.registry = &registry_;
  service_ = std::make_unique<serve::PmwService>(
      dataset, oracle, options.mechanism, seed, serve_options);
  service_->set_plan_cache(&plan_cache_);
  quota_ = std::make_unique<frontend::QuotaManager>(service_.get(),
                                                    options.quota);
  frontend::DispatcherOptions dispatcher_options = options.dispatcher;
  dispatcher_options.record_arrival_log = options.record_arrival_log;
  dispatcher_options.trace_recorder = &traces_;
  dispatcher_ = std::make_unique<frontend::Dispatcher>(
      service_.get(), quota_.get(), dispatcher_options);
}

ServerEndpoint::~ServerEndpoint() { Shutdown(); }

std::future<AnswerEnvelope> ServerEndpoint::Ready(AnswerEnvelope envelope) {
  std::promise<AnswerEnvelope> promise;
  std::future<AnswerEnvelope> future = promise.get_future();
  promise.set_value(std::move(envelope));
  return future;
}

std::future<AnswerEnvelope> ServerEndpoint::Handle(QueryRequest request) {
  AnswerEnvelope envelope =
      GateVersion(request.version, request.request_id, "request");
  if (!envelope.ok()) return Ready(std::move(envelope));
  const convex::CmQuery* query = catalog_->Find(request.query_name);
  if (query == nullptr) {
    envelope.error = ErrorCode::kUnknownQuery;
    envelope.message = "endpoint: catalog has no query named '" +
                       request.query_name + "'";
    return Ready(std::move(envelope));
  }
  std::chrono::steady_clock::time_point deadline{};
  if (request.deadline_micros != 0) {
    // Clamp the wire value before chrono arithmetic: an adversarial u64
    // would overflow the clock's nanosecond representation (signed UB)
    // and wrap to a *past* deadline. Ten years is "effectively none".
    constexpr uint64_t kMaxDeadlineMicros =
        uint64_t{10} * 365 * 24 * 3600 * 1000000;
    deadline = std::chrono::steady_clock::now() +
               std::chrono::microseconds(
                   std::min(request.deadline_micros, kMaxDeadlineMicros));
  }
  uint64_t dispatch_id = 0;
  std::future<frontend::Served> served;
  if (options_.record_arrival_log) {
    // The mutex spans Submit + map insert so ArrivalLog() can never
    // observe a dispatch id (committed by the dispatcher thread) whose
    // record is not in the map yet.
    std::lock_guard<std::mutex> lock(arrivals_mutex_);
    served = dispatcher_->Submit(request.analyst_id, *query, &dispatch_id,
                                 deadline);
    arrivals_[dispatch_id] = ArrivalRecord{
        request.analyst_id, request.request_id, request.query_name};
  } else {
    served = dispatcher_->Submit(request.analyst_id, *query, &dispatch_id,
                                 deadline);
  }
  // A synchronously resolved submit (quota/shutdown rejection, or a
  // served answer that beat us here) is finished eagerly: the envelope
  // is complete, and — unlike a deferred task, which never runs if its
  // future is abandoned without get() — the never-committed arrivals_
  // cleanup inside Finish is guaranteed to happen.
  if (served.wait_for(std::chrono::seconds(0)) ==
      std::future_status::ready) {
    return Ready(
        Finish(request.version, request.request_id, dispatch_id,
               served.get()));
  }
  // Deferred adapter: the envelope is assembled on whichever thread
  // get()s the future (transport writer loops, Client::Call) — the
  // dispatcher thread never does envelope work.
  return std::async(
      std::launch::deferred,
      [this, version = request.version, request_id = request.request_id,
       dispatch_id, inner = std::move(served)]() mutable {
        return Finish(version, request_id, dispatch_id, inner.get());
      });
}

std::vector<std::future<AnswerEnvelope>> ServerEndpoint::HandleBatch(
    QueryRequest request) {
  std::vector<std::future<AnswerEnvelope>> replies;
  if (request.query_names.empty()) {
    replies.push_back(Handle(std::move(request)));
    return replies;
  }
  replies.reserve(request.query_names.size());
  for (size_t i = 0; i < request.query_names.size(); ++i) {
    QueryRequest single;
    single.version = request.version;
    single.analyst_id = request.analyst_id;
    single.request_id = request.request_id + i;
    single.deadline_micros = request.deadline_micros;
    single.query_name = request.query_names[i];
    replies.push_back(Handle(std::move(single)));
  }
  return replies;
}

AnswerEnvelope ServerEndpoint::HandleStats(const StatsRequest& request) {
  AnswerEnvelope envelope =
      GateVersion(request.version, request.request_id, "stats request");
  if (!envelope.ok()) return envelope;
  FillBudgetView(&envelope.meta);
  // The epoch holder is the mutex-guarded view of the hypothesis
  // version (the live counter belongs to the serving writer).
  std::shared_ptr<const core::HypothesisSnapshot> snapshot =
      service_->epochs().Current();
  if (snapshot != nullptr) {
    envelope.meta.epoch = static_cast<uint64_t>(snapshot->version);
  }
  return envelope;
}

AnswerEnvelope ServerEndpoint::HandleMetrics(const MetricsRequest& request) {
  AnswerEnvelope envelope =
      GateVersion(request.version, request.request_id, "metrics request");
  if (!envelope.ok()) return envelope;
  // Refresh the scrape-time SLO burn gauges from the live histograms
  // BEFORE rendering, so the exposition the scraper reads already
  // carries them. Scrape-thread-only work: the serving writer never
  // computes a quantile.
  obs::UpdateSloBurnGauges(
      &registry_,
      {{"queue_wait", "pmw_frontend_queue_wait_us", 0.99,
        options_.slo_queue_wait_p99_us, /*higher_is_better=*/false},
       {"serve", "pmw_frontend_serve_us", 0.99, options_.slo_serve_p99_us,
        /*higher_is_better=*/false},
       {"goodput", "pmw_serve_batch_queries_per_sec", 0.5,
        options_.slo_goodput_qps, /*higher_is_better=*/true}});
  switch (request.format) {
    case kMetricsFormatText:
      envelope.message = registry_.TextExposition();
      break;
    case kMetricsFormatJson:
      envelope.message = registry_.JsonDump();
      break;
    default:
      envelope.error = ErrorCode::kMalformedRequest;
      envelope.message = "endpoint: unknown metrics format " +
                         std::to_string(request.format);
      break;
  }
  return envelope;
}

AnswerEnvelope ServerEndpoint::HandleTrace(const TraceRequest& request) {
  AnswerEnvelope envelope =
      GateVersion(request.version, request.request_id, "trace request");
  if (!envelope.ok()) return envelope;
  envelope.message = obs::TraceRecorder::Format(traces_.SlowRequests(
      request.min_total_us,
      std::min<size_t>(request.max_traces, traces_.capacity())));
  return envelope;
}

AnswerEnvelope ServerEndpoint::HandleHello(const HelloRequest& request) {
  AnswerEnvelope envelope =
      GateVersion(request.version, request.request_id, "hello request");
  if (!envelope.ok()) return envelope;
  if (options_.auth_token.empty()) return envelope;  // open endpoint
  if (request.analyst_id.empty()) {
    envelope.error = ErrorCode::kAuthRequired;
    envelope.message = "endpoint: hello must name the analyst to bind";
    return envelope;
  }
  if (request.auth_token != options_.auth_token) {
    // Deliberately no detail about WHICH check failed beyond this: the
    // reply is visible to whoever can reach the port.
    envelope.error = ErrorCode::kAuthRequired;
    envelope.message = "endpoint: hello auth token rejected";
    return envelope;
  }
  return envelope;
}

AnswerEnvelope ServerEndpoint::Finish(uint8_t version, uint64_t request_id,
                                      uint64_t dispatch_id,
                                      frontend::Served served) {
  AnswerEnvelope envelope;
  // Reply at the REQUEST's (validated, in-range) version: a newer
  // server answering an older client must emit frames the client can
  // decode.
  envelope.version = version;
  envelope.request_id = request_id;
  if (served.answer.ok()) {
    envelope.answer = std::move(*served.answer);
    envelope.meta.epoch = static_cast<uint64_t>(served.outcome.epoch);
    envelope.meta.hard_round = served.outcome.hard_round;
    envelope.meta.cache_hit = served.outcome.cache_hit;
    envelope.meta.prepare_us = served.outcome.prepare_us;
    envelope.meta.solve_us = served.outcome.solve_us;
    envelope.meta.mw_us = served.outcome.mw_us;
    envelope.meta.commit_us = served.outcome.commit_us;
  } else {
    envelope.error = served.answer.status().code();
    envelope.message = served.answer.status().message();
  }
  // A record whose request was never committed would sit in arrivals_
  // forever (quota-rejected floods would grow it without bound).
  // Synchronous rejections reach this erase eagerly in Handle; only a
  // deferred future abandoned without get() (departed client with an
  // in-queue expiry) can still skip it — rare and per-event bounded.
  if (options_.record_arrival_log && !served.committed) {
    std::lock_guard<std::mutex> lock(arrivals_mutex_);
    arrivals_.erase(dispatch_id);
  }
  FillBudgetView(&envelope.meta);
  // The server-side latency split the dispatcher measured; zero when the
  // request never reached the queue.
  envelope.meta.queue_wait_us = served.queue_wait_us;
  envelope.meta.serve_us = served.serve_us;
  return envelope;
}

void ServerEndpoint::FillBudgetView(ServingMeta* meta) const {
  // What the ledger says has been spent, and how many hard rounds are
  // left before the sparse vector halts. Both reads go through the
  // ledger's own lock, so any completion thread may assemble envelopes
  // while the writer keeps serving. The shard count is fixed at
  // construction, so reading it here is race-free too.
  meta->hard_rounds_remaining = quota_->HardRoundsRemaining();
  const dp::PrivacyParams spent =
      service_->mechanism().ledger().BasicTotal();
  meta->epsilon_spent = spent.epsilon;
  meta->delta_spent = spent.delta;
  meta->shards = static_cast<uint32_t>(service_->num_shards());
}

void ServerEndpoint::Shutdown() { dispatcher_->Shutdown(); }

std::vector<ServerEndpoint::ArrivalRecord> ServerEndpoint::ArrivalLog()
    const {
  std::vector<ArrivalRecord> log;
  std::lock_guard<std::mutex> lock(arrivals_mutex_);
  for (uint64_t dispatch_id : dispatcher_->ArrivalLog()) {
    auto it = arrivals_.find(dispatch_id);
    PMW_CHECK_MSG(it != arrivals_.end(),
                  "arrival log references unknown dispatch id "
                      << dispatch_id);
    log.push_back(it->second);
  }
  return log;
}

}  // namespace api
}  // namespace pmw
