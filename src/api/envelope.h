// The versioned request/response envelopes of the pmw::api protocol —
// the one public serving surface in front of the stack
// (api::Client -> Transport -> api::ServerEndpoint -> frontend::Dispatcher).
//
// Queries travel by *catalog name*, not by value: a convex::CmQuery is a
// non-owning (loss, domain) view whose objects live server-side (loss
// families own them), so the protocol references entries of the server's
// api::QueryCatalog. This is also what keeps the wire format independent
// of the loss-family implementation.
//
// Envelopes are plain structs; api/codec.h owns the binary wire layout.

#ifndef PMWCM_API_ENVELOPE_H_
#define PMWCM_API_ENVELOPE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "api/error.h"

namespace pmw {
namespace api {

/// Protocol versions this build can speak. A frame's version must lie in
/// [kMinProtocolVersion, kProtocolVersion]; anything newer decodes to
/// kVersionMismatch (the layout is unknowable), anything at or below the
/// current version decodes with unknown fields skipped (forward
/// compatibility for same-major additions).
inline constexpr uint8_t kProtocolVersion = 1;
inline constexpr uint8_t kMinProtocolVersion = 1;

/// One analyst query, self-describing: everything the server needs to
/// admit, order, and answer it.
struct QueryRequest {
  /// Protocol version the client speaks (stamped by api::Client).
  uint8_t version = kProtocolVersion;
  /// Identity the quota ledger charges; also tags per-analyst stats.
  std::string analyst_id;
  /// Client-assigned correlation id, echoed verbatim in the answer (what
  /// lets one connection carry many in-flight requests).
  uint64_t request_id = 0;
  /// Relative deadline in microseconds from server admission; 0 means
  /// none. A request whose deadline passes while queued resolves with
  /// kDeadlineExpired at zero privacy cost.
  uint64_t deadline_micros = 0;
  /// Catalog key of the CM query to answer.
  std::string query_name;
  /// Batched form (api::Client::CallBatch): when non-empty this ONE
  /// frame asks for every named query in order — one AnswerEnvelope
  /// comes back per name, correlated by consecutive request ids
  /// request_id, request_id + 1, ... (the client reserves the id run).
  /// `query_name` is ignored for batched requests. Travels as a new
  /// tagged field inside protocol v1 (decoders that predate it skip it
  /// under the unknown-field rule); cuts per-frame syscall overhead on
  /// the socket transport to one write per batch.
  std::vector<std::string> query_names;
};

/// A typed stats/budget poll (api::Client::Stats): resolves with an
/// AnswerEnvelope whose message is the endpoint's Report() text and
/// whose ServingMeta carries the live remaining-budget view — what a
/// remote analyst dashboards without C++ access to dp::BudgetView.
/// Costs zero privacy: stats never touch the mechanism.
struct StatsRequest {
  uint8_t version = kProtocolVersion;
  std::string analyst_id;
  /// Client-assigned correlation id, echoed in the reply envelope.
  uint64_t request_id = 0;
};

/// A metrics scrape (api::Client::Metrics): resolves with an
/// AnswerEnvelope whose message is the endpoint registry's exposition —
/// Prometheus-style text (format 0) or the ordered-JSON dump (format 1).
/// Costs zero privacy and never blocks the serving writer: every read is
/// a lock-free instrument load.
struct MetricsRequest {
  uint8_t version = kProtocolVersion;
  std::string analyst_id;
  /// Client-assigned correlation id, echoed in the reply envelope.
  uint64_t request_id = 0;
  /// 0 = Prometheus-style text exposition, 1 = ordered-JSON dump. Other
  /// values answer kMalformedRequest (a newer format this build cannot
  /// render).
  uint8_t format = 0;
};
inline constexpr uint8_t kMetricsFormatText = 0;
inline constexpr uint8_t kMetricsFormatJson = 1;

/// A trace poll (api::Client::Trace): resolves with an AnswerEnvelope
/// whose message renders the slowest recorded request span trees with
/// total server-side time >= min_total_us (at most max_traces of them).
/// Zero privacy cost; reads only the bounded trace ring.
struct TraceRequest {
  uint8_t version = kProtocolVersion;
  std::string analyst_id;
  /// Client-assigned correlation id, echoed in the reply envelope.
  uint64_t request_id = 0;
  /// Only traces at least this slow (server-side queue + serve) qualify.
  uint64_t min_total_us = 0;
  /// Upper bound on returned traces (clamped server-side to the ring
  /// capacity).
  uint32_t max_traces = 16;
};

/// The hello/auth exchange (api::Client::Hello): the FIRST frame on a
/// connection to an endpoint that requires authentication. On success
/// the server binds `analyst_id` to the transport connection; every
/// later query frame on that connection must carry the same analyst id,
/// so QuotaManager accounting cannot be spoofed by writing someone
/// else's id into a request. Endpoints without an auth token accept
/// hello frames as a no-op (and bind nothing). Zero privacy cost.
struct HelloRequest {
  uint8_t version = kProtocolVersion;
  /// Identity to bind to this connection.
  std::string analyst_id;
  /// Client-assigned correlation id, echoed in the reply envelope.
  uint64_t request_id = 0;
  /// Shared secret the endpoint compares against its configured token.
  std::string auth_token;
};

/// Operations of the internal shard RPC family (cluster workers). Wire
/// values are stable; append only.
enum class ShardRpcOp : uint8_t {
  /// Installs the worker's slice: domain size, global shard count, and
  /// the owned shard-group range. Resets state to uniform.
  kConfigure = 1,
  /// MW phase 1 over the owned shards (payoff slice + eta); the answer
  /// doubles are the per-shard local maxima, shard order.
  kReweigh = 2,
  /// MW phase 2 (global max in); answer doubles are the per-shard
  /// subtree sums, shard order.
  kPartials = 3,
  /// MW phase 3 (normalizer total in); empty answer.
  kNormalize = 4,
  /// Strictly-positive entries of [snapshot_lo, snapshot_hi): answer
  /// doubles are interleaved (index, value) pairs — exact for any
  /// universe this repo can hold (indices < 2^53).
  kSnapshot = 5,
  /// Installs a checkpointed slice on a configured worker: `payoff`
  /// carries the strictly-positive entries of the owned domain range as
  /// interleaved (index, value) pairs (a kSnapshot answer round-tripped,
  /// so the restored slice is byte-identical), and `update_seq` is the
  /// sequence number the checkpoint was taken at — the worker's applied
  /// count afterwards. Lets recovery replay only the log suffix since
  /// the checkpoint instead of every update ever committed.
  kRestore = 6,
};

/// One internal shard RPC (front-door combiner -> shard-group worker).
/// Never crosses the public surface: the front door's ServerEndpoint
/// answers these with kMalformedRequest; only cluster::ShardWorker
/// serves them. Replies travel as ordinary AnswerEnvelope frames (the
/// payload in `answer`), so the client-side correlation machinery is
/// shared with analyst traffic.
struct ShardRpcRequest {
  uint8_t version = kProtocolVersion;
  /// Client-assigned correlation id, echoed in the reply envelope.
  uint64_t request_id = 0;
  ShardRpcOp op = ShardRpcOp::kConfigure;
  /// Monotone update sequence number (commit order); the worker rejects
  /// out-of-order phases with a typed error, which is how a half-applied
  /// update is detected and replayed after a crash.
  uint64_t update_seq = 0;
  /// kConfigure: the global partition this worker slices.
  uint32_t domain_size = 0;
  uint32_t num_shards = 0;
  /// kConfigure: owned shard indices [group_lo, group_hi) of the global
  /// partition (contiguous, so the owned domain slice is contiguous).
  uint32_t group_lo = 0;
  uint32_t group_hi = 0;
  /// kReweigh: the MW learning rate (the signed exponent).
  double eta = 0.0;
  /// kPartials: the writer's folded global max.
  double global_max = 0.0;
  /// kNormalize: the writer's fixed-tree normalizer total.
  double total = 0.0;
  /// kSnapshot: requested domain range.
  uint32_t snapshot_lo = 0;
  uint32_t snapshot_hi = 0;
  /// kReweigh: the payoff slice covering the owned domain range, in
  /// domain order.
  std::vector<double> payoff;
};

/// Serving metadata riding back with every answer: where in the
/// mechanism's life the answer was produced and what budget remains.
struct ServingMeta {
  /// Hypothesis version (epoch) the answer was served at.
  uint64_t epoch = 0;
  /// True when this query triggered an oracle call + MW update (a hard
  /// round, the privacy-relevant event); false for free kBottom answers.
  bool hard_round = false;
  /// True when the query's plan came from the cross-batch plan cache.
  bool cache_hit = false;
  /// Hard rounds left before the sparse vector halts (-1 when unknown,
  /// e.g. on errors minted before admission).
  long long hard_rounds_remaining = -1;
  /// Basic-composition privacy spent so far, the remaining-budget view
  /// an analyst dashboards.
  double epsilon_spent = 0.0;
  double delta_spent = 0.0;
  /// Domain shards the server's hypothesis is partitioned into (0 when
  /// unknown, e.g. on errors minted before admission). Purely
  /// informational: sharding never changes answers.
  uint32_t shards = 0;
  /// Server-side latency split, appended to the v1 meta field (old
  /// decoders skip the tail under the codec's unknown-field rules): how
  /// long the request waited in the dispatcher queue before its batch
  /// formed, and how long its batch spent inside the serving call. Both 0
  /// when unknown (errors minted before the queue, stats polls). What
  /// lets a remote harness separate queue wait from serve time without
  /// reaching into frontend:: internals.
  uint64_t queue_wait_us = 0;
  uint64_t serve_us = 0;
  /// Server-side span breakdown of serve_us, appended after the latency
  /// split within v1 (older decoders skip the tail): the batch's
  /// parallel-prepare wall time, this query's private oracle solve and
  /// MW-update halves, and its whole commit call. All 0 when unknown
  /// (errors, stats polls). What lets a remote harness attribute its
  /// observed tail latency to named serving phases without a trace RPC.
  uint64_t prepare_us = 0;
  uint64_t solve_us = 0;
  uint64_t mw_us = 0;
  uint64_t commit_us = 0;
};

/// The reply to one QueryRequest.
struct AnswerEnvelope {
  uint8_t version = kProtocolVersion;
  /// Echo of QueryRequest::request_id (0 when the request could not be
  /// decoded far enough to recover it).
  uint64_t request_id = 0;
  /// kOk, or the taxonomy code explaining why `answer` is empty.
  ErrorCode error = ErrorCode::kOk;
  /// Human-readable error detail (empty on success).
  std::string message;
  /// The released theta (empty on error).
  std::vector<double> answer;
  ServingMeta meta;

  bool ok() const { return error == ErrorCode::kOk; }
  /// The envelope's error as a Status (Ok for successful answers).
  Status status() const { return ToStatus(error, message); }
};

}  // namespace api
}  // namespace pmw

#endif  // PMWCM_API_ENVELOPE_H_
