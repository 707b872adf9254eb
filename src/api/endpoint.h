// api::ServerEndpoint — the server half of the protocol, and the one
// front door of the serving stack.
//
//   transport --QueryRequest--> ServerEndpoint::Handle
//     --resolve catalog name--> frontend::Dispatcher (admission, queue,
//     batching, single-writer serve) --> AnswerEnvelope back out
//
// The endpoint owns the whole serving stack behind it: the ERM oracle,
// the sharded serve::PmwService with its serve::PlanCache, the
// frontend::QuotaManager, and the Dispatcher thread. Handle() is
// thread-safe (any number of transports / connection handlers may call
// it); everything stateful funnels through the dispatcher's MPSC queue,
// which preserves the PR 2/3 transcript guarantee end to end — replaying
// the endpoint's recorded arrival log through sequential core::PmwCm
// reproduces answers and the privacy ledger bit-identically
// (tests/api_test.cc proves it through a real socket).

#ifndef PMWCM_API_ENDPOINT_H_
#define PMWCM_API_ENDPOINT_H_

#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "api/catalog.h"
#include "api/envelope.h"
#include "data/dataset.h"
#include "erm/oracle.h"
#include "frontend/dispatcher.h"
#include "frontend/quota_manager.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/plan_cache.h"
#include "serve/pmw_service.h"

namespace pmw {
namespace api {

/// Which single-query ERM oracle A' the endpoint runs. Examples select by
/// kind so they never include erm/ headers; tests may inject an external
/// oracle through the second constructor instead.
enum class OracleKind {
  kNoisyGradient,  // BST14-style noisy gradient descent (the default)
  kGlm,            // JT14 route for generalized linear models
  kNonPrivate,     // baseline/testing oracle (no DP noise)
};

/// Everything behind the front door, in one bag. `mechanism.scale` must
/// cover the catalog's scale() bound, exactly as with a bare PmwCm.
/// `serve.num_shards` is the hypothesis-sharding knob: > 1 partitions
/// the MW hypothesis into domain shards served behind this same front
/// door (ServingMeta reports the count back to clients); transcripts are
/// bit-identical at every setting.
struct ServerOptions {
  core::PmwOptions mechanism;
  serve::ServeOptions serve;
  frontend::QuotaOptions quota;
  frontend::DispatcherOptions dispatcher;
  OracleKind oracle = OracleKind::kNoisyGradient;
  /// Record (analyst, client request id, query name) per committed
  /// request, in commit order — the replayable transcript log.
  bool record_arrival_log = false;
  /// Shared secret of the hello/auth exchange. Empty (the default) means
  /// the endpoint is open: hello frames succeed as no-ops and requests
  /// need no prior hello — the trusted same-host story. Non-empty means
  /// every socket connection must open with a hello carrying this token;
  /// the connection handler then binds that hello's analyst id to the
  /// connection and rejects any frame speaking as someone else with
  /// kAuthRequired (zero privacy cost) — which is what makes
  /// QuotaManager accounting unspoofable over TCP.
  std::string auth_token;
  /// Latency/goodput objectives behind the scrape-time SLO burn gauges
  /// (obs/slo.h): each metrics scrape refreshes
  /// pmw_slo_burn_ratio{endpoint=...} from the registry's histograms
  /// before rendering. A 0 target disables its gauge.
  double slo_queue_wait_p99_us = 0.0;
  double slo_serve_p99_us = 0.0;
  /// Median per-batch goodput target, queries/second (burn counts how
  /// far BELOW target the observed median falls).
  double slo_goodput_qps = 0.0;
};

/// Codec/transport traffic counters, incremented by the transports and
/// server loops that move this endpoint's frames (the endpoint itself
/// never encodes). Handles into the endpoint's metrics registry
/// (pmw_api_*), so connection threads increment lock-free and one scrape
/// covers the whole stack.
struct CodecCounters {
  obs::Counter* frames_encoded = nullptr;
  obs::Counter* frames_decoded = nullptr;
  obs::Counter* decode_errors = nullptr;
  obs::Counter* bytes_in = nullptr;
  obs::Counter* bytes_out = nullptr;

  /// Resolves the five handles in `registry`; called once by the owning
  /// endpoint before any transport can observe the struct.
  void BindTo(obs::Registry* registry);
};

class ServerEndpoint {
 public:
  /// `dataset` and `catalog` must outlive the endpoint; the oracle is
  /// constructed from options.oracle and owned. The dispatcher thread
  /// starts immediately.
  ServerEndpoint(const data::Dataset* dataset, const QueryCatalog* catalog,
                 const ServerOptions& options, uint64_t seed);

  /// Test/bench constructor injecting an external oracle (not owned;
  /// options.oracle is ignored).
  ServerEndpoint(const data::Dataset* dataset, erm::Oracle* oracle,
                 const QueryCatalog* catalog, const ServerOptions& options,
                 uint64_t seed);

  /// Shutdown().
  ~ServerEndpoint();

  ServerEndpoint(const ServerEndpoint&) = delete;
  ServerEndpoint& operator=(const ServerEndpoint&) = delete;

  /// Serves one decoded request: version gate, catalog resolution,
  /// admission via the quota manager, then the dispatcher queue. Never
  /// blocks on serving (only on queue backpressure); the returned future
  /// resolves with the complete envelope — typed taxonomy error or
  /// answer + serving metadata. Thread-safe.
  ///
  /// The future is DEFERRED (std::async deferred adapter): envelope
  /// assembly runs on the thread that get()s/wait()s it, and
  /// wait_for/wait_until report future_status::deferred, never ready —
  /// collect with get(), don't poll.
  std::future<AnswerEnvelope> Handle(QueryRequest request);

  /// Serves a possibly-batched request: with query_names empty this is
  /// exactly {Handle(request)}; otherwise one sub-request per name is
  /// submitted in order (so a batch occupies consecutive arrival slots
  /// per its own names, interleaving with other analysts at the queue)
  /// at consecutive request ids request_id, request_id + 1, ... — the
  /// correlation contract of the batched wire call. Thread-safe.
  std::vector<std::future<AnswerEnvelope>> HandleBatch(QueryRequest request);

  /// Serves a typed stats/budget poll: the reply envelope's message is
  /// Report() and its meta carries the live remaining-budget view
  /// (hard rounds left, eps/delta spent, epoch, shard count). Zero
  /// privacy cost — stats never touch the mechanism. Thread-safe; may
  /// be called while the writer keeps serving (all reads go through
  /// locks or atomics).
  AnswerEnvelope HandleStats(const StatsRequest& request);

  /// Serves a metrics scrape: the reply's message is the registry's
  /// Prometheus-style text exposition (format 0) or ordered-JSON dump
  /// (format 1). Zero privacy cost; never blocks the serving writer
  /// (every read is a lock-free instrument load). Thread-safe.
  AnswerEnvelope HandleMetrics(const MetricsRequest& request);

  /// Serves a trace poll: the reply's message renders the slowest
  /// recorded span trees with total_us >= min_total_us (at most
  /// max_traces). Zero privacy cost. Thread-safe.
  AnswerEnvelope HandleTrace(const TraceRequest& request);

  /// Serves the hello/auth exchange: validates the token against
  /// options.auth_token (kAuthRequired envelope on mismatch or missing
  /// analyst id) and answers Ok when the connection may bind the
  /// analyst. The CONNECTION handler owns the actual binding (the
  /// endpoint is connection-agnostic); see FrameSink::ConnState. On an
  /// open endpoint (empty token) hello always succeeds. Thread-safe,
  /// zero privacy cost.
  AnswerEnvelope HandleHello(const HelloRequest& request);

  /// True when options.auth_token is set: connection handlers must
  /// demand a successful hello before serving any other frame.
  bool requires_hello() const { return !options_.auth_token.empty(); }

  /// Handle + wait: for transports and tests that want the envelope now.
  AnswerEnvelope HandleSync(QueryRequest request);

  /// Stops accepting work, drains the queue, joins the dispatcher.
  /// Idempotent.
  void Shutdown();

  /// One committed request, in commit (arrival) order. Complete only
  /// after Shutdown; empty unless options.record_arrival_log.
  struct ArrivalRecord {
    std::string analyst_id;
    uint64_t client_request_id = 0;
    std::string query_name;
  };
  std::vector<ArrivalRecord> ArrivalLog() const;

  serve::PmwService& service() { return *service_; }
  const serve::PmwService& service() const { return *service_; }
  frontend::QuotaManager& quota() { return *quota_; }
  const QueryCatalog& catalog() const { return *catalog_; }
  CodecCounters& codec_counters() { return codec_counters_; }
  /// The endpoint's metrics registry (serve + frontend + api layers all
  /// record into this one). Scrape-safe from any thread.
  obs::Registry& registry() { return registry_; }
  const obs::Registry& registry() const { return registry_; }
  /// The trace ring the kTraceRequest RPC reads.
  obs::TraceRecorder& trace_recorder() { return traces_; }

  /// Front-door stats: the DispatcherStats table extended with this
  /// endpoint's codec/transport counters, plus the serving report.
  std::string Report() const;

 private:
  AnswerEnvelope Finish(uint8_t version, uint64_t request_id,
                        uint64_t dispatch_id, frontend::Served served);
  std::future<AnswerEnvelope> Ready(AnswerEnvelope envelope);

  const QueryCatalog* catalog_;
  const ServerOptions options_;
  /// Declared before service_/dispatcher_: every layer below records
  /// into this registry, so it must outlive them all.
  obs::Registry registry_;
  /// Every served request's span tree, in a fixed ring of 256 slots
  /// (slot = request id % 256, deterministic). Strictly out-of-transcript:
  /// the dispatcher publishes each tree AFTER resolving the request's
  /// promise. Outlives the dispatcher that publishes into it.
  obs::TraceRecorder traces_{256};
  std::unique_ptr<erm::Oracle> owned_oracle_;  // null when injected
  /// Declared before service_, which holds a pointer to it.
  serve::PlanCache plan_cache_;
  std::unique_ptr<serve::PmwService> service_;
  std::unique_ptr<frontend::QuotaManager> quota_;
  CodecCounters codec_counters_;
  mutable std::mutex arrivals_mutex_;
  std::unordered_map<uint64_t, ArrivalRecord> arrivals_;  // by dispatch id
  /// Last stack member: its thread starts consuming in the constructor.
  std::unique_ptr<frontend::Dispatcher> dispatcher_;
};

}  // namespace api
}  // namespace pmw

#endif  // PMWCM_API_ENDPOINT_H_
