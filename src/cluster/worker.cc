#include "cluster/worker.h"

#include <chrono>
#include <utility>
#include <vector>

#include "api/codec.h"
#include "api/envelope.h"
#include "api/error.h"

namespace pmw {
namespace cluster {

/// The worker's frame dispatch: hello/auth, then shard RPCs only.
class ShardWorker::Sink : public api::FrameSink {
 public:
  explicit Sink(ShardWorker* owner) : owner_(owner) {}

  void OnFrame(std::string_view frame, ConnState* conn,
               std::vector<std::future<api::AnswerEnvelope>>* replies)
      override {
    const auto answer_now = [replies](api::AnswerEnvelope envelope) {
      std::promise<api::AnswerEnvelope> ready;
      ready.set_value(std::move(envelope));
      replies->push_back(ready.get_future());
    };
    const auto decode_error = [&](const Status& status) {
      api::AnswerEnvelope envelope;
      envelope.error = status.code();
      envelope.message = status.message();
      return envelope;
    };
    const uint8_t msg_type = api::PeekMsgType(frame);
    if (msg_type == api::kMsgTypeHello) {
      Result<api::HelloRequest> hello = api::DecodeHelloRequest(frame);
      if (!hello.ok()) {
        answer_now(decode_error(hello.status()));
        return;
      }
      api::AnswerEnvelope envelope;
      envelope.version = hello.value().version;
      envelope.request_id = hello.value().request_id;
      if (!owner_->options_.auth_token.empty() &&
          hello.value().auth_token != owner_->options_.auth_token) {
        envelope.error = api::ErrorCode::kAuthRequired;
        envelope.message = "worker: hello auth token rejected";
      } else {
        conn->hello_ok = true;
        conn->bound_analyst = hello.value().analyst_id;
      }
      answer_now(std::move(envelope));
    } else if (msg_type == api::kMsgTypeShardRpc) {
      Result<api::ShardRpcRequest> rpc = api::DecodeShardRpcRequest(frame);
      if (!rpc.ok()) {
        answer_now(decode_error(rpc.status()));
        return;
      }
      if (!owner_->options_.auth_token.empty() && !conn->hello_ok) {
        api::AnswerEnvelope envelope;
        envelope.version = rpc.value().version;
        envelope.request_id = rpc.value().request_id;
        envelope.error = api::ErrorCode::kAuthRequired;
        envelope.message =
            "worker: connection is not authenticated; send a hello frame "
            "first";
        answer_now(std::move(envelope));
        return;
      }
      answer_now(RunRpc(rpc.value()));
    } else {
      // Analyst-protocol traffic (queries, polls) or anything else: a
      // worker is not a front door. Typed rejection, connection stays up
      // (framing was fine).
      api::AnswerEnvelope envelope;
      envelope.error = api::ErrorCode::kMalformedRequest;
      envelope.message =
          "worker: shard-group workers serve the internal shard rpc "
          "protocol only";
      answer_now(std::move(envelope));
    }
  }

 private:
  api::AnswerEnvelope RunRpc(const api::ShardRpcRequest& rpc) {
    api::AnswerEnvelope envelope;
    envelope.version = rpc.version;
    envelope.request_id = rpc.request_id;
    const auto started = std::chrono::steady_clock::now();
    Status status = Status::Ok();
    {
      std::lock_guard<std::mutex> lock(owner_->mutex_);
      SliceHost& slice = owner_->slice_;
      switch (rpc.op) {
        case api::ShardRpcOp::kConfigure:
          status = slice.Configure(static_cast<int>(rpc.domain_size),
                                   static_cast<int>(rpc.num_shards),
                                   static_cast<int>(rpc.group_lo),
                                   static_cast<int>(rpc.group_hi));
          break;
        case api::ShardRpcOp::kReweigh: {
          std::vector<double> local_max;
          status =
              slice.Reweigh(rpc.update_seq, rpc.payoff, rpc.eta, &local_max);
          if (status.ok()) envelope.answer = std::move(local_max);
          break;
        }
        case api::ShardRpcOp::kPartials: {
          std::vector<double> local_sum;
          status =
              slice.Partials(rpc.update_seq, rpc.global_max, &local_sum);
          if (status.ok()) envelope.answer = std::move(local_sum);
          break;
        }
        case api::ShardRpcOp::kNormalize:
          status = slice.Normalize(rpc.update_seq, rpc.total);
          break;
        case api::ShardRpcOp::kRestore:
          status = slice.Restore(rpc.update_seq, rpc.payoff);
          break;
        case api::ShardRpcOp::kSnapshot: {
          Result<data::HistogramSupport> support =
              slice.Snapshot(static_cast<int>(rpc.snapshot_lo),
                             static_cast<int>(rpc.snapshot_hi));
          if (support.ok()) {
            envelope.answer = EncodeIndexPairs(support.value());
          } else {
            status = support.status();
          }
          break;
        }
        default:
          // Forward compatibility: the codec accepts any op byte so a
          // NEWER combiner gets a typed answer it can classify, not a
          // dropped connection.
          status = Status(
              api::ErrorCode::kMalformedRequest,
              "worker: unknown shard rpc op " +
                  std::to_string(static_cast<int>(rpc.op)));
          break;
      }
    }
    if (!status.ok()) {
      envelope.answer.clear();
      envelope.error = status.code();
      envelope.message = status.message();
    }
    // The worker-compute half of the combiner's span attribution: how
    // long the op itself took, excluding all transport time.
    envelope.meta.serve_us = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - started)
            .count());
    return envelope;
  }

  ShardWorker* owner_;
};

ShardWorker::ShardWorker(ShardWorkerOptions options)
    : options_(std::move(options)),
      sink_(std::make_unique<Sink>(this)),
      server_(sink_.get()) {}

ShardWorker::~ShardWorker() { Shutdown(); }

Status ShardWorker::Start() {
  Result<int> listener =
      api::ListenTcp(options_.host, options_.port, &bound_port_);
  if (!listener.ok()) return listener.status();
  server_.Serve(listener.value());
  return Status::Ok();
}

void ShardWorker::Shutdown() { server_.Shutdown(); }

uint64_t ShardWorker::updates_applied() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return slice_.updates_applied();
}

}  // namespace cluster
}  // namespace pmw
