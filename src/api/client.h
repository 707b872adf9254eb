// api::Client — what analyst code holds: an identity bound to a
// transport, with correlation ids and protocol versioning handled.
//
//   api::Client client(&transport, "analyst-7");
//   api::AnswerEnvelope reply = client.Call("lipschitz/3");
//   if (reply.ok()) { use reply.answer; }  // else switch on reply.error
//
// Call() is synchronous; CallAsync() returns the envelope future so one
// client can keep many requests in flight (the transports pipeline).
// Thread-safe: sessions are cheap, but a single Client may also be
// shared across threads.

#ifndef PMWCM_API_CLIENT_H_
#define PMWCM_API_CLIENT_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <string>
#include <vector>

#include "api/envelope.h"
#include "api/transport.h"

namespace pmw {
namespace api {

class Client {
 public:
  /// `transport` must outlive the client.
  Client(Transport* transport, std::string analyst_id);

  /// Asks the named catalog query; blocks for the reply. A non-zero
  /// `deadline` bounds how long the request may wait server-side before
  /// resolving kDeadlineExpired at zero privacy cost.
  AnswerEnvelope Call(const std::string& query_name,
                      std::chrono::microseconds deadline =
                          std::chrono::microseconds{0});

  /// Fire-and-collect variant; the future resolves with the envelope.
  /// Collect with get() (or wait()): over the in-process transport the
  /// future is DEFERRED (the envelope is assembled on the collecting
  /// thread), so wait_for/wait_until report future_status::deferred
  /// rather than ready — never poll with them.
  std::future<AnswerEnvelope> CallAsync(
      const std::string& query_name,
      std::chrono::microseconds deadline = std::chrono::microseconds{0});

  /// Batched wire call: asks every named query with ONE request frame
  /// (the socket transport pays one write syscall for the whole batch)
  /// and blocks for all replies — one envelope per name, positionally.
  /// The names occupy consecutive request ids, reserved here, so replies
  /// correlate even when pipelined with other calls.
  std::vector<AnswerEnvelope> CallBatch(
      const std::vector<std::string>& query_names,
      std::chrono::microseconds deadline = std::chrono::microseconds{0});

  /// Fire-and-collect variant of CallBatch (same deferred-future caveat
  /// as CallAsync over the in-process transport).
  std::vector<std::future<AnswerEnvelope>> CallBatchAsync(
      const std::vector<std::string>& query_names,
      std::chrono::microseconds deadline = std::chrono::microseconds{0});

  /// Typed stats/budget poll (zero privacy cost): the reply's meta
  /// carries the live remaining-budget view — hard rounds left, eps/delta
  /// spent, epoch, shard count — and its message is empty (counters come
  /// from Metrics()). What a remote analyst dashboards instead of the
  /// C++-only accessors.
  AnswerEnvelope Stats();

  /// Metrics scrape (zero privacy cost): the reply's message is the
  /// server registry's Prometheus-style text exposition
  /// (kMetricsFormatText) or ordered-JSON dump (kMetricsFormatJson) —
  /// every layer's counters, gauges, and latency histograms in one
  /// frame. What a scraper sidecar polls.
  AnswerEnvelope Metrics(uint8_t format = kMetricsFormatText);

  /// Trace poll (zero privacy cost): the reply's message renders the
  /// server's slowest recorded request span trees with
  /// total_us >= min_total_us, at most max_traces of them.
  AnswerEnvelope Trace(uint64_t min_total_us = 0, uint32_t max_traces = 16);

  /// Hello/auth exchange: binds this client's analyst id to the
  /// transport's CONNECTION using the shared token. Must be the first
  /// call on a stream transport to an endpoint with auth configured —
  /// every other call answers kAuthRequired until it succeeds. A no-op
  /// success on open endpoints and the in-process transport.
  AnswerEnvelope Hello(const std::string& auth_token);

  const std::string& analyst_id() const { return analyst_id_; }

 private:
  Transport* transport_;
  std::string analyst_id_;
  /// Correlation ids are namespaced per client instance (a
  /// process-unique serial in the high 32 bits, a sequence number in the
  /// low 32): many Clients may share one correlating transport (a
  /// SocketTransport connection) without id collisions.
  std::atomic<uint64_t> next_request_id_;
};

}  // namespace api
}  // namespace pmw

#endif  // PMWCM_API_CLIENT_H_
