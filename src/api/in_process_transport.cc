#include "api/in_process_transport.h"

#include <string>
#include <utility>

#include "api/codec.h"
#include "common/check.h"

namespace pmw {
namespace api {

InProcessTransport::InProcessTransport(ServerEndpoint* endpoint,
                                       bool verify_codec)
    : endpoint_(endpoint), verify_codec_(verify_codec) {
  PMW_CHECK(endpoint != nullptr);
}

std::future<AnswerEnvelope> InProcessTransport::VerifyReply(
    std::future<AnswerEnvelope> served) {
  CodecCounters& counters = endpoint_->codec_counters();
  return std::async(
      std::launch::deferred,
      [&counters, inner = std::move(served)]() mutable {
        AnswerEnvelope envelope = inner.get();
        std::string reply;
        EncodeAnswer(envelope, &reply);
        counters.frames_encoded->Add(1);
        counters.bytes_out->Add(static_cast<long long>(reply.size()));
        Result<AnswerEnvelope> decoded_reply = DecodeAnswer(reply);
        PMW_CHECK_MSG(decoded_reply.ok(),
                      "answer failed to round-trip the codec: "
                          << decoded_reply.status().ToString());
        counters.frames_decoded->Add(1);
        return std::move(decoded_reply).value();
      });
}

std::future<AnswerEnvelope> InProcessTransport::Send(QueryRequest request) {
  if (!verify_codec_) {
    return endpoint_->Handle(std::move(request));
  }
  // Verify-codec mode: the request crosses the real byte format both
  // ways. Decode failures surface exactly as the socket server would
  // surface them — a typed error envelope, never an exception.
  CodecCounters& counters = endpoint_->codec_counters();
  std::string wire;
  EncodeRequest(request, &wire);
  counters.frames_encoded->Add(1);
  counters.bytes_in->Add(static_cast<long long>(wire.size()));
  Result<QueryRequest> decoded = DecodeRequest(wire);
  if (!decoded.ok()) {
    counters.decode_errors->Add(1);
    AnswerEnvelope envelope;
    envelope.request_id = request.request_id;
    envelope.error = decoded.status().code();
    envelope.message = decoded.status().message();
    std::promise<AnswerEnvelope> promise;
    promise.set_value(std::move(envelope));
    return promise.get_future();
  }
  counters.frames_decoded->Add(1);
  return VerifyReply(endpoint_->Handle(std::move(decoded).value()));
}

std::vector<std::future<AnswerEnvelope>> InProcessTransport::SendBatch(
    QueryRequest request) {
  if (!verify_codec_) {
    return endpoint_->HandleBatch(std::move(request));
  }
  // Verify-codec mode: the batch crosses the wire as its real shape —
  // ONE request frame carrying every name — then fans out server-side.
  CodecCounters& counters = endpoint_->codec_counters();
  const size_t names = request.query_names.size();
  std::string wire;
  EncodeRequest(request, &wire);
  counters.frames_encoded->Add(1);
  counters.bytes_in->Add(static_cast<long long>(wire.size()));
  Result<QueryRequest> decoded = DecodeRequest(wire);
  if (!decoded.ok()) {
    counters.decode_errors->Add(1);
    std::vector<std::future<AnswerEnvelope>> replies;
    replies.reserve(names);
    for (size_t i = 0; i < names; ++i) {
      AnswerEnvelope envelope;
      envelope.request_id = request.request_id + i;
      envelope.error = decoded.status().code();
      envelope.message = decoded.status().message();
      std::promise<AnswerEnvelope> promise;
      promise.set_value(std::move(envelope));
      replies.push_back(promise.get_future());
    }
    return replies;
  }
  counters.frames_decoded->Add(1);
  std::vector<std::future<AnswerEnvelope>> served =
      endpoint_->HandleBatch(std::move(decoded).value());
  std::vector<std::future<AnswerEnvelope>> replies;
  replies.reserve(served.size());
  for (std::future<AnswerEnvelope>& reply : served) {
    replies.push_back(VerifyReply(std::move(reply)));
  }
  return replies;
}

std::future<AnswerEnvelope> InProcessTransport::SendStats(
    StatsRequest request) {
  std::promise<AnswerEnvelope> promise;
  std::future<AnswerEnvelope> future = promise.get_future();
  if (!verify_codec_) {
    promise.set_value(endpoint_->HandleStats(request));
    return future;
  }
  CodecCounters& counters = endpoint_->codec_counters();
  std::string wire;
  EncodeStatsRequest(request, &wire);
  counters.frames_encoded->Add(1);
  counters.bytes_in->Add(static_cast<long long>(wire.size()));
  Result<StatsRequest> decoded = DecodeStatsRequest(wire);
  if (!decoded.ok()) {
    counters.decode_errors->Add(1);
    AnswerEnvelope envelope;
    envelope.request_id = request.request_id;
    envelope.error = decoded.status().code();
    envelope.message = decoded.status().message();
    promise.set_value(std::move(envelope));
    return future;
  }
  counters.frames_decoded->Add(1);
  std::promise<AnswerEnvelope> served;
  std::future<AnswerEnvelope> inner = served.get_future();
  served.set_value(endpoint_->HandleStats(std::move(decoded).value()));
  return VerifyReply(std::move(inner));
}

std::future<AnswerEnvelope> InProcessTransport::SendMetrics(
    MetricsRequest request) {
  std::promise<AnswerEnvelope> promise;
  std::future<AnswerEnvelope> future = promise.get_future();
  if (!verify_codec_) {
    promise.set_value(endpoint_->HandleMetrics(request));
    return future;
  }
  CodecCounters& counters = endpoint_->codec_counters();
  std::string wire;
  EncodeMetricsRequest(request, &wire);
  counters.frames_encoded->Add(1);
  counters.bytes_in->Add(static_cast<long long>(wire.size()));
  Result<MetricsRequest> decoded = DecodeMetricsRequest(wire);
  if (!decoded.ok()) {
    counters.decode_errors->Add(1);
    AnswerEnvelope envelope;
    envelope.request_id = request.request_id;
    envelope.error = decoded.status().code();
    envelope.message = decoded.status().message();
    promise.set_value(std::move(envelope));
    return future;
  }
  counters.frames_decoded->Add(1);
  std::promise<AnswerEnvelope> served;
  std::future<AnswerEnvelope> inner = served.get_future();
  served.set_value(endpoint_->HandleMetrics(std::move(decoded).value()));
  return VerifyReply(std::move(inner));
}

std::future<AnswerEnvelope> InProcessTransport::SendTrace(
    TraceRequest request) {
  std::promise<AnswerEnvelope> promise;
  std::future<AnswerEnvelope> future = promise.get_future();
  if (!verify_codec_) {
    promise.set_value(endpoint_->HandleTrace(request));
    return future;
  }
  CodecCounters& counters = endpoint_->codec_counters();
  std::string wire;
  EncodeTraceRequest(request, &wire);
  counters.frames_encoded->Add(1);
  counters.bytes_in->Add(static_cast<long long>(wire.size()));
  Result<TraceRequest> decoded = DecodeTraceRequest(wire);
  if (!decoded.ok()) {
    counters.decode_errors->Add(1);
    AnswerEnvelope envelope;
    envelope.request_id = request.request_id;
    envelope.error = decoded.status().code();
    envelope.message = decoded.status().message();
    promise.set_value(std::move(envelope));
    return future;
  }
  counters.frames_decoded->Add(1);
  std::promise<AnswerEnvelope> served;
  std::future<AnswerEnvelope> inner = served.get_future();
  served.set_value(endpoint_->HandleTrace(std::move(decoded).value()));
  return VerifyReply(std::move(inner));
}

}  // namespace api
}  // namespace pmw
