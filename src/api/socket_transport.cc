#include "api/socket_transport.h"

#include <sys/socket.h>
#include <unistd.h>

#include <utility>

#include "api/codec.h"
#include "common/check.h"

namespace pmw {
namespace api {
namespace {

// ---------------------------------------------------------------------------
// EndpointFrameSink — what analyst-facing frames MEAN
// ---------------------------------------------------------------------------

/// The front-door dispatch: decodes each frame, routes it to the
/// ServerEndpoint, and enforces the hello/auth connection binding.
/// Shared verbatim by SocketServer and TcpServer, which is the whole
/// point — the protocol's semantics cannot depend on the address family.
class EndpointFrameSink : public FrameSink {
 public:
  explicit EndpointFrameSink(ServerEndpoint* endpoint) : endpoint_(endpoint) {
    PMW_CHECK(endpoint != nullptr);
  }

  void OnFrame(std::string_view frame, ConnState* conn,
               std::vector<std::future<AnswerEnvelope>>* replies) override {
    CodecCounters& counters = endpoint_->codec_counters();
    // Typed polls (stats, metrics scrapes, trace polls) are answered
    // synchronously — they only read counters and rings — as one normal
    // answer frame each. A decode failure on any of them answers with a
    // typed error envelope, same as a request.
    const auto answer_now = [replies](AnswerEnvelope envelope) {
      std::promise<AnswerEnvelope> ready;
      ready.set_value(std::move(envelope));
      replies->push_back(ready.get_future());
    };
    const auto poll_error = [&](const Status& status) {
      counters.decode_errors->Add(1);
      AnswerEnvelope envelope;
      envelope.error = status.code();
      envelope.message = status.message();
      return envelope;
    };
    // The connection-identity gate: on an endpoint with an auth token,
    // every non-hello frame must follow an accepted hello AND speak as
    // the analyst that hello bound — otherwise QuotaManager accounting
    // could be spoofed by writing someone else's id into a request.
    // Rejections cost zero privacy (they never reach the mechanism).
    const auto auth_rejected = [&](const std::string& analyst,
                                   uint64_t first_id, size_t count) {
      if (!endpoint_->requires_hello()) return false;
      std::string why;
      if (!conn->hello_ok) {
        why =
            "endpoint: connection is not authenticated; send a hello "
            "frame first";
      } else if (conn->bound_analyst != analyst) {
        why = "endpoint: request analyst '" + analyst +
              "' does not match the connection's bound analyst '" +
              conn->bound_analyst + "'";
      } else {
        return false;
      }
      for (size_t i = 0; i < count; ++i) {
        AnswerEnvelope envelope;
        envelope.request_id = first_id + i;
        envelope.error = ErrorCode::kAuthRequired;
        envelope.message = why;
        answer_now(std::move(envelope));
      }
      return true;
    };
    const uint8_t msg_type = PeekMsgType(frame);
    if (msg_type == kMsgTypeHello) {
      Result<HelloRequest> hello = DecodeHelloRequest(frame);
      if (hello.ok()) {
        counters.frames_decoded->Add(1);
        AnswerEnvelope envelope = endpoint_->HandleHello(hello.value());
        if (envelope.ok()) {
          conn->hello_ok = true;
          conn->bound_analyst = hello.value().analyst_id;
        }
        answer_now(std::move(envelope));
      } else {
        answer_now(poll_error(hello.status()));
      }
    } else if (msg_type == kMsgTypeShardRpc) {
      // The worker protocol NEVER crosses the public surface: the front
      // door answers it with a typed error no matter how well-formed
      // the frame is (decoding only to echo the correlation id).
      Result<ShardRpcRequest> rpc = DecodeShardRpcRequest(frame);
      AnswerEnvelope envelope;
      if (rpc.ok()) {
        counters.frames_decoded->Add(1);
        envelope.request_id = rpc.value().request_id;
      }
      envelope.error = ErrorCode::kMalformedRequest;
      envelope.message =
          "endpoint: shard rpcs are internal to the cluster; this is the "
          "analyst front door";
      answer_now(std::move(envelope));
    } else if (msg_type == kMsgTypeStats) {
      Result<StatsRequest> stats = DecodeStatsRequest(frame);
      if (stats.ok()) {
        counters.frames_decoded->Add(1);
        if (!auth_rejected(stats.value().analyst_id,
                           stats.value().request_id, 1)) {
          answer_now(endpoint_->HandleStats(stats.value()));
        }
      } else {
        answer_now(poll_error(stats.status()));
      }
    } else if (msg_type == kMsgTypeMetrics) {
      Result<MetricsRequest> metrics = DecodeMetricsRequest(frame);
      if (metrics.ok()) {
        counters.frames_decoded->Add(1);
        if (!auth_rejected(metrics.value().analyst_id,
                           metrics.value().request_id, 1)) {
          answer_now(endpoint_->HandleMetrics(metrics.value()));
        }
      } else {
        answer_now(poll_error(metrics.status()));
      }
    } else if (msg_type == kMsgTypeTrace) {
      Result<TraceRequest> trace = DecodeTraceRequest(frame);
      if (trace.ok()) {
        counters.frames_decoded->Add(1);
        if (!auth_rejected(trace.value().analyst_id,
                           trace.value().request_id, 1)) {
          answer_now(endpoint_->HandleTrace(trace.value()));
        }
      } else {
        answer_now(poll_error(trace.status()));
      }
    } else {
      Result<QueryRequest> request = DecodeRequest(frame);
      if (request.ok()) {
        counters.frames_decoded->Add(1);
        const QueryRequest& decoded = request.value();
        const size_t count =
            decoded.query_names.empty() ? 1 : decoded.query_names.size();
        if (!auth_rejected(decoded.analyst_id, decoded.request_id, count)) {
          // HandleBatch serves single and batched frames alike: one
          // reply future per named query, in order.
          *replies = endpoint_->HandleBatch(std::move(request).value());
        }
      } else {
        // Typed decode error (malformed fields, foreign version):
        // answer it like any other request instead of killing the
        // connection.
        answer_now(poll_error(request.status()));
      }
    }
  }

  void OnBytesIn(long long bytes) override {
    endpoint_->codec_counters().bytes_in->Add(bytes);
  }

  void OnReplyEncoded(long long bytes) override {
    CodecCounters& counters = endpoint_->codec_counters();
    counters.frames_encoded->Add(1);
    counters.bytes_out->Add(bytes);
  }

  void OnDecodeError() override {
    endpoint_->codec_counters().decode_errors->Add(1);
  }

 private:
  ServerEndpoint* endpoint_;
};

std::unique_ptr<FrameSink> MakeEndpointSink(ServerEndpoint* endpoint) {
  return std::make_unique<EndpointFrameSink>(endpoint);
}

}  // namespace

// ---------------------------------------------------------------------------
// SocketServer (Unix-domain)
// ---------------------------------------------------------------------------

SocketServer::SocketServer(ServerEndpoint* endpoint, std::string socket_path)
    : path_(std::move(socket_path)),
      sink_(MakeEndpointSink(endpoint)),
      server_(sink_.get()) {}

SocketServer::~SocketServer() { Shutdown(); }

Status SocketServer::Start() {
  Result<int> listener = ListenUnix(path_);
  if (!listener.ok()) return listener.status();
  bound_ = true;
  server_.Serve(listener.value());
  return Status::Ok();
}

void SocketServer::Shutdown() {
  server_.Shutdown();
  // Only remove the path this server actually bound: a failed Start must
  // not delete a healthy sibling's socket file.
  if (bound_) ::unlink(path_.c_str());
}

// ---------------------------------------------------------------------------
// TcpServer
// ---------------------------------------------------------------------------

TcpServer::TcpServer(ServerEndpoint* endpoint, std::string host,
                     uint16_t port)
    : host_(std::move(host)),
      requested_port_(port),
      sink_(MakeEndpointSink(endpoint)),
      server_(sink_.get()) {}

TcpServer::~TcpServer() { Shutdown(); }

Status TcpServer::Start() {
  Result<int> listener = ListenTcp(host_, requested_port_, &bound_port_);
  if (!listener.ok()) return listener.status();
  server_.Serve(listener.value());
  return Status::Ok();
}

void TcpServer::Shutdown() { server_.Shutdown(); }

// ---------------------------------------------------------------------------
// StreamTransport (client trunk)
// ---------------------------------------------------------------------------

StreamTransport::~StreamTransport() { Close(); }

void StreamTransport::Adopt(Result<int> connected) {
  if (!connected.ok()) {
    // The typed connect error every later Send resolves with — callers
    // see a kTransportError envelope, never a bare errno string.
    connect_status_ = connected.status();
    return;
  }
  fd_ = connected.value();
  reader_ = std::thread([this] { ReadLoop(); });
}

AnswerEnvelope StreamTransport::TransportError(uint64_t request_id,
                                               const std::string& why) const {
  AnswerEnvelope envelope;
  envelope.request_id = request_id;
  envelope.error = ErrorCode::kTransportError;
  envelope.message = "stream transport: " + why;
  return envelope;
}

std::vector<std::future<AnswerEnvelope>> StreamTransport::ShipFrame(
    const std::string& wire, uint64_t first_id, size_t count) {
  std::vector<std::future<AnswerEnvelope>> futures;
  futures.reserve(count);
  if (!connect_status_.ok() || closed_.load(std::memory_order_acquire) ||
      broken_.load(std::memory_order_acquire)) {
    const std::string why =
        !connect_status_.ok() ? connect_status_.message()
        : closed_.load(std::memory_order_acquire)
            ? "channel is closed"
            : "connection is broken (no reader to resolve replies)";
    for (size_t i = 0; i < count; ++i) {
      std::promise<AnswerEnvelope> failed;
      futures.push_back(failed.get_future());
      failed.set_value(TransportError(first_id + i, why));
    }
    return futures;
  }
  // Register the whole id run before the single write: replies may start
  // arriving for early ids while later ones are still being registered
  // otherwise. Correlation ids must be unique among in-flight calls
  // (api::Client reserves whole runs); refuse duplicates rather than
  // cross wires.
  std::vector<uint64_t> registered;
  registered.reserve(count);
  {
    std::lock_guard<std::mutex> lock(pending_mutex_);
    for (size_t i = 0; i < count; ++i) {
      std::promise<AnswerEnvelope> promise;
      futures.push_back(promise.get_future());
      auto [it, inserted] =
          pending_.try_emplace(first_id + i, std::move(promise));
      if (!inserted) {
        // try_emplace left `promise` untouched on failure; it would have
        // been moved into the map otherwise.
        std::promise<AnswerEnvelope> duplicate;
        futures.back() = duplicate.get_future();
        duplicate.set_value(
            TransportError(first_id + i, "duplicate in-flight request id"));
      } else {
        registered.push_back(first_id + i);
      }
    }
  }
  const auto fail_registered = [this, &registered](const std::string& why) {
    for (uint64_t id : registered) {
      std::promise<AnswerEnvelope> orphan;
      {
        std::lock_guard<std::mutex> lock(pending_mutex_);
        auto it = pending_.find(id);
        if (it == pending_.end()) continue;  // reader already resolved
        orphan = std::move(it->second);
        pending_.erase(it);
      }
      orphan.set_value(TransportError(id, why));
    }
  };
  if (wire.size() > kMaxFramePayload + 4) {
    // The server's ExtractFrame would reject the frame and drop the
    // connection, killing every pipelined call; refuse just this one.
    fail_registered("request exceeds the frame size limit");
    return futures;
  }
  bool written = false;
  {
    // fd_ is only written (closed) under this lock, after the reader has
    // joined — so the descriptor cannot be closed or reused mid-write.
    std::lock_guard<std::mutex> lock(write_mutex_);
    if (fd_ >= 0 && !closed_.load(std::memory_order_acquire)) {
      written = WriteAll(fd_, wire.data(), wire.size());
    }
  }
  if (!written || broken_.load(std::memory_order_acquire)) {
    // Either the write failed, or the reader died while these requests
    // were being registered (its FailAllPending sweep may have missed
    // them) — in both cases nothing will ever resolve the promises.
    fail_registered(written ? "connection is broken" : "write failed");
  }
  return futures;
}

std::future<AnswerEnvelope> StreamTransport::Send(QueryRequest request) {
  std::string wire;
  EncodeRequest(request, &wire);
  return std::move(ShipFrame(wire, request.request_id, 1).front());
}

std::vector<std::future<AnswerEnvelope>> StreamTransport::SendBatch(
    QueryRequest request) {
  if (request.query_names.empty()) return {};
  const size_t count = request.query_names.size();
  // The batch's whole point: ONE frame, ONE write syscall, N replies.
  std::string wire;
  EncodeRequest(request, &wire);
  return ShipFrame(wire, request.request_id, count);
}

std::future<AnswerEnvelope> StreamTransport::SendStats(StatsRequest request) {
  std::string wire;
  EncodeStatsRequest(request, &wire);
  return std::move(ShipFrame(wire, request.request_id, 1).front());
}

std::future<AnswerEnvelope> StreamTransport::SendMetrics(
    MetricsRequest request) {
  std::string wire;
  EncodeMetricsRequest(request, &wire);
  return std::move(ShipFrame(wire, request.request_id, 1).front());
}

std::future<AnswerEnvelope> StreamTransport::SendTrace(TraceRequest request) {
  std::string wire;
  EncodeTraceRequest(request, &wire);
  return std::move(ShipFrame(wire, request.request_id, 1).front());
}

std::future<AnswerEnvelope> StreamTransport::SendHello(HelloRequest request) {
  std::string wire;
  EncodeHelloRequest(request, &wire);
  return std::move(ShipFrame(wire, request.request_id, 1).front());
}

std::future<AnswerEnvelope> StreamTransport::SendShardRpc(
    ShardRpcRequest request) {
  std::string wire;
  EncodeShardRpcRequest(request, &wire);
  return std::move(ShipFrame(wire, request.request_id, 1).front());
}

void StreamTransport::ReadLoop() {
  std::string buffer;
  for (;;) {
    const ssize_t n = ReadSome(fd_, &buffer);
    if (n <= 0) break;
    FrameStatus framing;
    bool decode_failed = false;
    const size_t consumed = WalkFrames(
        buffer, &framing, [this, &decode_failed](std::string_view frame) {
          Result<AnswerEnvelope> decoded = DecodeAnswer(frame);
          if (!decoded.ok()) {
            // A well-framed but undecodable reply (corrupt fields,
            // foreign version): its call could never be resolved, and
            // the blocked caller is often the only thread that would
            // ever Close() — treat the stream as dead so FailAllPending
            // below unblocks everyone with a typed error.
            decode_failed = true;
            return;
          }
          AnswerEnvelope envelope = std::move(decoded).value();
          std::promise<AnswerEnvelope> resolved;
          bool found = false;
          {
            std::lock_guard<std::mutex> lock(pending_mutex_);
            auto it = pending_.find(envelope.request_id);
            if (it == pending_.end() && envelope.request_id == 0 &&
                pending_.size() == 1) {
              // The server could not recover the id (undecodable
              // request). With exactly one call in flight the reply is
              // unambiguous; with more we must not guess — the calls
              // resolve at Close().
              it = pending_.begin();
            }
            if (it != pending_.end()) {
              resolved = std::move(it->second);
              pending_.erase(it);
              found = true;
            }
          }
          if (found) resolved.set_value(std::move(envelope));
        });
    buffer.erase(0, consumed);
    if (framing == FrameStatus::kMalformed || decode_failed) break;
  }
  // Publish "no reply can ever arrive" BEFORE failing what's pending:
  // a Send racing this sweep observes broken_ and fails its own promise.
  broken_.store(true, std::memory_order_release);
  FailAllPending("connection closed");
}

void StreamTransport::FailAllPending(const std::string& why) {
  std::unordered_map<uint64_t, std::promise<AnswerEnvelope>> orphans;
  {
    std::lock_guard<std::mutex> lock(pending_mutex_);
    orphans.swap(pending_);
  }
  for (auto& [id, promise] : orphans) {
    promise.set_value(TransportError(id, why));
  }
}

void StreamTransport::Close() {
  std::lock_guard<std::mutex> close_lock(close_mutex_);
  if (closed_.exchange(true, std::memory_order_acq_rel)) return;
  // shutdown() (not close) wakes the reader and any blocked writer while
  // keeping the descriptor number reserved; the actual close happens
  // under write_mutex_ so a concurrent Send can never write into a
  // closed — or worse, reused — descriptor.
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
  if (reader_.joinable()) reader_.join();
  {
    std::lock_guard<std::mutex> lock(write_mutex_);
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }
  FailAllPending("channel is closed");
}

// ---------------------------------------------------------------------------
// Concrete connectors
// ---------------------------------------------------------------------------

SocketTransport::SocketTransport(const std::string& socket_path) {
  Adopt(ConnectUnix(socket_path));
}

TcpTransport::TcpTransport(const std::string& host, uint16_t port) {
  Adopt(ConnectTcp(host, port));
}

}  // namespace api
}  // namespace pmw
