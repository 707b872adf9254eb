// The client-side channel abstraction of the pmw::api protocol.
//
// A Transport moves one QueryRequest to a ServerEndpoint and one
// AnswerEnvelope back; api::Client supplies identity and correlation ids
// on top. Three implementations ship:
//
//   * InProcessTransport (api/in_process_transport.h) — zero-copy
//     loopback straight into a ServerEndpoint in this process; an
//     optional verify-codec mode round-trips every message through the
//     binary codec to keep the wire path honest in tests.
//   * SocketTransport (api/socket_transport.h) — frames over a Unix
//     domain socket to a SocketServer, with client-side request
//     correlation so many calls may be in flight on one connection.
//   * TcpTransport (api/socket_transport.h) — the same framing and
//     correlation machinery (one shared StreamTransport trunk) over a
//     TCP connection to a TcpServer or a cluster::ShardWorker; the
//     multi-host path, which is why hello/auth frames exist.

#ifndef PMWCM_API_TRANSPORT_H_
#define PMWCM_API_TRANSPORT_H_

#include <future>
#include <utility>
#include <vector>

#include "api/envelope.h"

namespace pmw {
namespace api {

class Transport {
 public:
  virtual ~Transport() = default;

  /// Ships `request` and resolves with the reply envelope. Never throws
  /// for protocol or channel failures — those come back as envelopes
  /// carrying taxonomy errors (kTransportError when the channel itself
  /// broke). Thread-safe; any number of calls may be in flight.
  virtual std::future<AnswerEnvelope> Send(QueryRequest request) = 0;

  /// Ships one batched request (request.query_names non-empty) and
  /// resolves with one envelope per name, positionally. The base
  /// implementation degrades to one Send per name at consecutive
  /// request ids — correct everywhere, no frame coalescing; transports
  /// override to put the whole batch in one frame (SocketTransport:
  /// one write syscall per batch).
  virtual std::vector<std::future<AnswerEnvelope>> SendBatch(
      QueryRequest request) {
    std::vector<std::future<AnswerEnvelope>> replies;
    replies.reserve(request.query_names.size());
    for (size_t i = 0; i < request.query_names.size(); ++i) {
      QueryRequest single;
      single.version = request.version;
      single.analyst_id = request.analyst_id;
      single.request_id = request.request_id + i;
      single.deadline_micros = request.deadline_micros;
      single.query_name = request.query_names[i];
      replies.push_back(Send(std::move(single)));
    }
    return replies;
  }

  /// Ships a typed stats/budget poll; resolves with an envelope whose
  /// meta carries the live remaining-budget view (its message is empty:
  /// counters are read through SendMetrics). The base implementation
  /// reports the poll as unsupported (a typed kTransportError envelope,
  /// never a throw).
  virtual std::future<AnswerEnvelope> SendStats(StatsRequest request) {
    AnswerEnvelope envelope;
    envelope.request_id = request.request_id;
    envelope.error = ErrorCode::kTransportError;
    envelope.message = "transport: stats polls are not supported";
    std::promise<AnswerEnvelope> promise;
    promise.set_value(std::move(envelope));
    return promise.get_future();
  }

  /// Ships a metrics scrape; resolves with an envelope whose message is
  /// the server registry's exposition (text or JSON per the request's
  /// format). Base implementation: typed kTransportError envelope.
  virtual std::future<AnswerEnvelope> SendMetrics(MetricsRequest request) {
    AnswerEnvelope envelope;
    envelope.request_id = request.request_id;
    envelope.error = ErrorCode::kTransportError;
    envelope.message = "transport: metrics scrapes are not supported";
    std::promise<AnswerEnvelope> promise;
    promise.set_value(std::move(envelope));
    return promise.get_future();
  }

  /// Ships a trace poll; resolves with an envelope whose message renders
  /// the server's slowest recorded span trees. Base implementation:
  /// typed kTransportError envelope.
  virtual std::future<AnswerEnvelope> SendTrace(TraceRequest request) {
    AnswerEnvelope envelope;
    envelope.request_id = request.request_id;
    envelope.error = ErrorCode::kTransportError;
    envelope.message = "transport: trace polls are not supported";
    std::promise<AnswerEnvelope> promise;
    promise.set_value(std::move(envelope));
    return promise.get_future();
  }

  /// Ships the hello/auth frame that binds an analyst id to this
  /// connection (socket transports; see envelope.h). Base
  /// implementation: a trusted loopback has no connection to bind, so
  /// hello succeeds as a no-op — what InProcessTransport inherits.
  virtual std::future<AnswerEnvelope> SendHello(HelloRequest request) {
    AnswerEnvelope envelope;
    envelope.request_id = request.request_id;
    std::promise<AnswerEnvelope> promise;
    promise.set_value(std::move(envelope));
    return promise.get_future();
  }

  /// Ships one internal shard RPC (cluster combiner -> worker; the reply
  /// payload rides the envelope's answer doubles). Base implementation:
  /// typed kTransportError envelope — only stream transports speak the
  /// worker protocol.
  virtual std::future<AnswerEnvelope> SendShardRpc(ShardRpcRequest request) {
    AnswerEnvelope envelope;
    envelope.request_id = request.request_id;
    envelope.error = ErrorCode::kTransportError;
    envelope.message = "transport: shard rpcs are not supported";
    std::promise<AnswerEnvelope> promise;
    promise.set_value(std::move(envelope));
    return promise.get_future();
  }

  /// Closes the channel; in-flight calls resolve with kTransportError.
  /// Idempotent.
  virtual void Close() {}
};

}  // namespace api
}  // namespace pmw

#endif  // PMWCM_API_TRANSPORT_H_
