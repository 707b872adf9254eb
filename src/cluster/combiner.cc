#include "cluster/combiner.h"

#include <algorithm>
#include <chrono>
#include <future>
#include <string>
#include <thread>
#include <utility>

#include "api/error.h"
#include "cluster/slice_host.h"
#include "common/check.h"

namespace pmw {
namespace cluster {
namespace {

Status Unavailable(const std::string& host, uint16_t port,
                   const std::string& detail) {
  return Status(api::ErrorCode::kShardUnavailable,
                "combiner: worker " + host + ":" + std::to_string(port) +
                    " " + detail);
}

}  // namespace

Combiner::Combiner(CombinerOptions options) : options_(std::move(options)) {
  PMW_CHECK_GE(options_.checkpoint_interval, 1);
}

Combiner::~Combiner() { Close(); }

Status Combiner::Connect(int domain_size, int num_shards) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (options_.workers.empty()) {
    return Status(api::ErrorCode::kShardUnavailable,
                  "combiner: no workers configured");
  }
  partition_ = core::PartitionDomain(domain_size, num_shards);
  if (static_cast<int>(partition_.size()) != num_shards) {
    return Status(
        api::ErrorCode::kMalformedRequest,
        "combiner: num_shards " + std::to_string(num_shards) +
            " is not the clamped shard count ConfigureSharding settled on (" +
            std::to_string(partition_.size()) + ")");
  }
  const int num_workers = static_cast<int>(options_.workers.size());
  if (num_workers > num_shards) {
    return Status(
        api::ErrorCode::kMalformedRequest,
        "combiner: " + std::to_string(num_workers) + " workers need at " +
            "least that many shards, have " + std::to_string(num_shards));
  }
  domain_size_ = domain_size;
  // Contiguous near-equal shard groups in domain order: the first
  // (num_shards % W) workers take one extra shard.
  workers_.clear();
  workers_.resize(static_cast<size_t>(num_workers));
  const int base_group = num_shards / num_workers;
  const int remainder = num_shards % num_workers;
  int next_shard = 0;
  for (int w = 0; w < num_workers; ++w) {
    Worker& worker = workers_[static_cast<size_t>(w)];
    worker.address = options_.workers[static_cast<size_t>(w)];
    worker.group_lo = next_shard;
    worker.group_hi = next_shard + base_group + (w < remainder ? 1 : 0);
    next_shard = worker.group_hi;
    worker.domain_lo = partition_[static_cast<size_t>(worker.group_lo)].lo;
    worker.domain_hi = partition_[static_cast<size_t>(worker.group_hi - 1)].hi;
  }
  update_seq_ = 0;
  checkpoint_seq_ = 0;
  log_.clear();
  current_ = LoggedUpdate{};
  for (Worker& worker : workers_) {
    Status opened = OpenChannel(&worker);
    if (!opened.ok()) return opened;
    Status configured = RawCall(&worker, ConfigureRpc(worker), nullptr);
    if (!configured.ok()) return configured;
  }
  return Status::Ok();
}

Status Combiner::OpenChannel(Worker* worker) {
  worker->transport = std::make_unique<api::TcpTransport>(
      worker->address.host, worker->address.port);
  Status status = worker->transport->status();
  if (!status.ok()) {
    worker->transport.reset();
    return Unavailable(worker->address.host, worker->address.port,
                       "is unreachable: " + status.message());
  }
  api::HelloRequest hello;
  hello.analyst_id = "combiner";
  hello.request_id = next_rpc_id_++;
  hello.auth_token = options_.auth_token;
  std::future<api::AnswerEnvelope> reply =
      worker->transport->SendHello(std::move(hello));
  if (reply.wait_for(std::chrono::milliseconds(options_.rpc_timeout_ms)) !=
      std::future_status::ready) {
    worker->transport.reset();
    return Unavailable(worker->address.host, worker->address.port,
                       "hello timed out after " +
                           std::to_string(options_.rpc_timeout_ms) + "ms");
  }
  api::AnswerEnvelope envelope = reply.get();
  if (!envelope.ok()) {
    worker->transport.reset();
    if (envelope.error == api::ErrorCode::kAuthRequired) {
      // Not an availability problem — reconnecting with the same token
      // cannot help, so surface the config error untranslated.
      return envelope.status();
    }
    return Unavailable(worker->address.host, worker->address.port,
                       "rejected hello: " + envelope.message);
  }
  return Status::Ok();
}

api::ShardRpcRequest Combiner::ConfigureRpc(const Worker& worker) {
  api::ShardRpcRequest rpc;
  rpc.op = api::ShardRpcOp::kConfigure;
  rpc.domain_size = static_cast<uint32_t>(domain_size_);
  rpc.num_shards = static_cast<uint32_t>(partition_.size());
  rpc.group_lo = static_cast<uint32_t>(worker.group_lo);
  rpc.group_hi = static_cast<uint32_t>(worker.group_hi);
  return rpc;
}

Status Combiner::RawCall(Worker* worker, api::ShardRpcRequest rpc,
                         api::AnswerEnvelope* reply) {
  if (worker->transport == nullptr) {
    return Unavailable(worker->address.host, worker->address.port,
                       "has no open channel");
  }
  rpc.request_id = next_rpc_id_++;
  ++stats_.rpcs;
  const auto started = std::chrono::steady_clock::now();
  std::future<api::AnswerEnvelope> pending =
      worker->transport->SendShardRpc(std::move(rpc));
  const bool ready =
      pending.wait_for(std::chrono::milliseconds(options_.rpc_timeout_ms)) ==
      std::future_status::ready;
  stats_.combiner_wait_us += static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - started)
          .count());
  if (!ready) {
    return Unavailable(worker->address.host, worker->address.port,
                       "rpc timed out after " +
                           std::to_string(options_.rpc_timeout_ms) + "ms");
  }
  api::AnswerEnvelope envelope = pending.get();
  if (!envelope.ok()) return envelope.status();
  stats_.worker_compute_us += envelope.meta.serve_us;
  if (reply != nullptr) *reply = std::move(envelope);
  return Status::Ok();
}

Status Combiner::ReplayInto(Worker* worker, api::ShardRpcOp upto) {
  Status status = RawCall(worker, ConfigureRpc(*worker), nullptr);
  if (!status.ok()) return status;
  // Fast-forward over the checkpointed prefix: restore the worker's
  // exact slice bytes at checkpoint_seq_, then replay only the suffix.
  if (checkpoint_seq_ > 0) {
    api::ShardRpcRequest restore;
    restore.op = api::ShardRpcOp::kRestore;
    restore.update_seq = checkpoint_seq_;
    restore.payoff = worker->checkpoint;
    status = RawCall(worker, std::move(restore), nullptr);
    if (!status.ok()) return status;
  }
  const size_t slice_lo = static_cast<size_t>(worker->domain_lo);
  const size_t slice_hi = static_cast<size_t>(worker->domain_hi);
  const auto slice_of = [&](const std::vector<double>& payoff) {
    return std::vector<double>(payoff.begin() + slice_lo,
                               payoff.begin() + slice_hi);
  };
  const auto phase_rpc = [&](api::ShardRpcOp op, uint64_t seq,
                             const LoggedUpdate& update) {
    api::ShardRpcRequest rpc;
    rpc.op = op;
    rpc.update_seq = seq;
    switch (op) {
      case api::ShardRpcOp::kReweigh:
        rpc.eta = update.eta;
        rpc.payoff = slice_of(update.payoff);
        break;
      case api::ShardRpcOp::kPartials:
        rpc.global_max = update.global_max;
        break;
      case api::ShardRpcOp::kNormalize:
        rpc.total = update.total;
        break;
      default:
        break;
    }
    return RawCall(worker, std::move(rpc), nullptr);
  };
  // Every logged update since the checkpoint, in commit order.
  // Deterministic IEEE arithmetic over identical inputs rebuilds the
  // slice bit-for-bit.
  for (size_t i = 0; i < log_.size(); ++i) {
    const LoggedUpdate& update = log_[i];
    const uint64_t seq = checkpoint_seq_ + i;
    status = phase_rpc(api::ShardRpcOp::kReweigh, seq, update);
    if (!status.ok()) return status;
    status = phase_rpc(api::ShardRpcOp::kPartials, seq, update);
    if (!status.ok()) return status;
    status = phase_rpc(api::ShardRpcOp::kNormalize, seq, update);
    if (!status.ok()) return status;
  }
  // The in-flight update's phases that already completed cluster-wide —
  // strictly before the op about to be retried. (A kReweigh retry needs
  // nothing: phase 1 re-issues cleanly at a matching seq. Snapshots only
  // run between updates.)
  if (upto == api::ShardRpcOp::kPartials ||
      upto == api::ShardRpcOp::kNormalize) {
    status = phase_rpc(api::ShardRpcOp::kReweigh, update_seq_, current_);
    if (!status.ok()) return status;
  }
  if (upto == api::ShardRpcOp::kNormalize) {
    status = phase_rpc(api::ShardRpcOp::kPartials, update_seq_, current_);
    if (!status.ok()) return status;
  }
  return Status::Ok();
}

Status Combiner::Recover(Worker* worker, api::ShardRpcOp upto) {
  if (worker->transport != nullptr) {
    worker->transport->Close();
    worker->transport.reset();
  }
  Status last = Unavailable(worker->address.host, worker->address.port,
                            "never attempted reconnect");
  for (int attempt = 0; attempt < options_.reconnect_attempts; ++attempt) {
    if (attempt > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(
          options_.reconnect_backoff_ms << (attempt - 1)));
    }
    last = OpenChannel(worker);
    if (!last.ok()) {
      if (last.code() == api::ErrorCode::kAuthRequired) {
        return last;  // retrying the same token is pointless
      }
      continue;
    }
    last = ReplayInto(worker, upto);
    if (last.ok()) {
      ++stats_.recoveries;
      return Status::Ok();
    }
    worker->transport->Close();
    worker->transport.reset();
  }
  return Unavailable(
      worker->address.host, worker->address.port,
      "unrecoverable after " + std::to_string(options_.reconnect_attempts) +
          " attempts: " + last.message());
}

Status Combiner::FanOut(std::vector<api::ShardRpcRequest> rpcs,
                        std::vector<api::AnswerEnvelope>* replies) {
  replies->assign(workers_.size(), api::AnswerEnvelope{});
  // Ship everything first so workers compute in parallel...
  std::vector<std::future<api::AnswerEnvelope>> pending;
  pending.reserve(workers_.size());
  for (size_t w = 0; w < workers_.size(); ++w) {
    api::ShardRpcRequest rpc = rpcs[w];  // keep the original for retries
    rpc.request_id = next_rpc_id_++;
    ++stats_.rpcs;
    if (workers_[w].transport != nullptr) {
      pending.push_back(workers_[w].transport->SendShardRpc(std::move(rpc)));
    } else {
      // A worker left channel-less by a failed recovery: resolve as a
      // broken channel so the collection loop below runs recovery.
      std::promise<api::AnswerEnvelope> broken;
      api::AnswerEnvelope envelope;
      envelope.error = api::ErrorCode::kTransportError;
      envelope.message = "combiner: worker channel is closed";
      broken.set_value(std::move(envelope));
      pending.push_back(broken.get_future());
    }
  }
  // ...then collect, recovering + retrying once per failed worker.
  for (size_t w = 0; w < workers_.size(); ++w) {
    Worker& worker = workers_[w];
    const auto started = std::chrono::steady_clock::now();
    const bool ready =
        pending[w].wait_for(std::chrono::milliseconds(
            options_.rpc_timeout_ms)) == std::future_status::ready;
    stats_.combiner_wait_us += static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - started)
            .count());
    std::string why;
    if (ready) {
      api::AnswerEnvelope envelope = pending[w].get();
      if (envelope.ok()) {
        stats_.worker_compute_us += envelope.meta.serve_us;
        (*replies)[w] = std::move(envelope);
        continue;
      }
      if (envelope.error == api::ErrorCode::kAuthRequired) {
        return envelope.status();  // config error; recovery cannot help
      }
      why = envelope.message;
    } else {
      why = "rpc timed out after " + std::to_string(options_.rpc_timeout_ms) +
            "ms";
    }
    // Timeout, broken channel, or an out-of-sequence rejection (the
    // restarted-worker signal): reconnect, replay, retry exactly once.
    ++stats_.rpc_failures;
    Status recovered = Recover(&worker, rpcs[w].op);
    if (!recovered.ok()) {
      return Status(
          api::ErrorCode::kShardUnavailable,
          recovered.message() + " (first failure: " + why + ")");
    }
    Status retried = RawCall(&worker, rpcs[w], &(*replies)[w]);
    if (!retried.ok()) {
      return Unavailable(worker.address.host, worker.address.port,
                         "failed after recovery: " + retried.message());
    }
  }
  return Status::Ok();
}

Status Combiner::Reweigh(const std::vector<double>& payoff, double eta,
                         std::vector<double>* local_max) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (static_cast<int>(payoff.size()) != domain_size_) {
    return Status(
        api::ErrorCode::kInternal,
        "combiner: payoff has " + std::to_string(payoff.size()) +
            " entries, domain has " + std::to_string(domain_size_));
  }
  // Log the inputs first: recovery mid-fan-out replays this update's
  // phase 1 from current_.
  current_.payoff = payoff;
  current_.eta = eta;
  std::vector<api::ShardRpcRequest> rpcs(workers_.size());
  for (size_t w = 0; w < workers_.size(); ++w) {
    rpcs[w].op = api::ShardRpcOp::kReweigh;
    rpcs[w].update_seq = update_seq_;
    rpcs[w].eta = eta;
    rpcs[w].payoff.assign(payoff.begin() + workers_[w].domain_lo,
                          payoff.begin() + workers_[w].domain_hi);
  }
  std::vector<api::AnswerEnvelope> replies;
  Status status = FanOut(std::move(rpcs), &replies);
  if (!status.ok()) return status;
  local_max->assign(partition_.size(), 0.0);
  for (size_t w = 0; w < workers_.size(); ++w) {
    const Worker& worker = workers_[w];
    const size_t group_size =
        static_cast<size_t>(worker.group_hi - worker.group_lo);
    if (replies[w].answer.size() != group_size) {
      return Status(
          api::ErrorCode::kInternal,
          "combiner: reweigh reply carries " +
              std::to_string(replies[w].answer.size()) + " maxima for a " +
              std::to_string(group_size) + "-shard group");
    }
    for (size_t s = 0; s < group_size; ++s) {
      (*local_max)[static_cast<size_t>(worker.group_lo) + s] =
          replies[w].answer[s];
    }
  }
  return Status::Ok();
}

Status Combiner::PartialSums(double global_max,
                             std::vector<double>* local_sum) {
  std::lock_guard<std::mutex> lock(mutex_);
  current_.global_max = global_max;
  std::vector<api::ShardRpcRequest> rpcs(workers_.size());
  for (size_t w = 0; w < workers_.size(); ++w) {
    rpcs[w].op = api::ShardRpcOp::kPartials;
    rpcs[w].update_seq = update_seq_;
    rpcs[w].global_max = global_max;
  }
  std::vector<api::AnswerEnvelope> replies;
  Status status = FanOut(std::move(rpcs), &replies);
  if (!status.ok()) return status;
  local_sum->assign(partition_.size(), 0.0);
  for (size_t w = 0; w < workers_.size(); ++w) {
    const Worker& worker = workers_[w];
    const size_t group_size =
        static_cast<size_t>(worker.group_hi - worker.group_lo);
    if (replies[w].answer.size() != group_size) {
      return Status(
          api::ErrorCode::kInternal,
          "combiner: partials reply carries " +
              std::to_string(replies[w].answer.size()) + " sums for a " +
              std::to_string(group_size) + "-shard group");
    }
    for (size_t s = 0; s < group_size; ++s) {
      (*local_sum)[static_cast<size_t>(worker.group_lo) + s] =
          replies[w].answer[s];
    }
  }
  return Status::Ok();
}

Status Combiner::Normalize(double total) {
  std::lock_guard<std::mutex> lock(mutex_);
  current_.total = total;
  std::vector<api::ShardRpcRequest> rpcs(workers_.size());
  for (size_t w = 0; w < workers_.size(); ++w) {
    rpcs[w].op = api::ShardRpcOp::kNormalize;
    rpcs[w].update_seq = update_seq_;
    rpcs[w].total = total;
  }
  std::vector<api::AnswerEnvelope> replies;
  Status status = FanOut(std::move(rpcs), &replies);
  if (!status.ok()) return status;
  // The update is now applied cluster-wide: commit it to the replay log.
  log_.push_back(std::move(current_));
  current_ = LoggedUpdate{};
  ++update_seq_;
  MaybeCheckpoint();
  stats_.updates_logged = static_cast<long long>(log_.size());
  return Status::Ok();
}

void Combiner::MaybeCheckpoint() {
  if (log_.size() < static_cast<size_t>(options_.checkpoint_interval)) {
    return;
  }
  // Capture every worker's slice at the current sequence into staging
  // first; nothing is committed until all captures succeed, so a failure
  // leaves the old checkpoint + full log intact (best-effort: the next
  // completed update retries).
  std::vector<std::vector<double>> staged(workers_.size());
  for (size_t w = 0; w < workers_.size(); ++w) {
    Worker& worker = workers_[w];
    api::ShardRpcRequest rpc;
    rpc.op = api::ShardRpcOp::kSnapshot;
    rpc.update_seq = update_seq_;
    rpc.snapshot_lo = static_cast<uint32_t>(worker.domain_lo);
    rpc.snapshot_hi = static_cast<uint32_t>(worker.domain_hi);
    api::AnswerEnvelope reply;
    Status status = RawCall(&worker, rpc, &reply);
    if (!status.ok()) {
      // Same posture as Snapshot(): one recovery + retry, then give up
      // on THIS checkpoint attempt (never on the update — it is already
      // committed).
      ++stats_.rpc_failures;
      Status recovered = Recover(&worker, api::ShardRpcOp::kSnapshot);
      if (!recovered.ok()) return;
      status = RawCall(&worker, rpc, &reply);
      if (!status.ok()) return;
    }
    // Only a reply that would pass the worker's own kRestore check may
    // become a checkpoint.
    if (!DecodeIndexPairs(reply.answer, worker.domain_lo, worker.domain_hi)
             .ok()) {
      return;
    }
    staged[w] = std::move(reply.answer);
  }
  for (size_t w = 0; w < workers_.size(); ++w) {
    workers_[w].checkpoint = std::move(staged[w]);
  }
  checkpoint_seq_ = update_seq_;
  log_.clear();
  ++stats_.checkpoints;
}

Result<data::HistogramSupport> Combiner::Snapshot(int lo, int hi) {
  std::lock_guard<std::mutex> lock(mutex_);
  data::HistogramSupport support;
  // Workers are in domain order and a worker's support comes back in
  // index order, so concatenation is already sorted.
  for (Worker& worker : workers_) {
    const int slice_lo = std::max(lo, worker.domain_lo);
    const int slice_hi = std::min(hi, worker.domain_hi);
    if (slice_lo >= slice_hi) continue;
    api::ShardRpcRequest rpc;
    rpc.op = api::ShardRpcOp::kSnapshot;
    rpc.update_seq = update_seq_;
    rpc.snapshot_lo = static_cast<uint32_t>(slice_lo);
    rpc.snapshot_hi = static_cast<uint32_t>(slice_hi);
    api::AnswerEnvelope reply;
    Status status = RawCall(&worker, rpc, &reply);
    if (!status.ok()) {
      ++stats_.rpc_failures;
      Status recovered = Recover(&worker, api::ShardRpcOp::kSnapshot);
      if (!recovered.ok()) return recovered;
      status = RawCall(&worker, rpc, &reply);
      if (!status.ok()) return status;
    }
    // A faulty worker's reply must not reach the epoch snapshot, whose
    // indices address universe rows.
    Result<data::HistogramSupport> slice =
        DecodeIndexPairs(reply.answer, slice_lo, slice_hi);
    if (!slice.ok()) {
      return Status(
          api::ErrorCode::kInternal,
          "combiner: snapshot reply rejected: " + slice.status().message());
    }
    support.insert(support.end(), slice.value().begin(), slice.value().end());
  }
  return support;
}

void Combiner::Close() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (Worker& worker : workers_) {
    if (worker.transport != nullptr) {
      worker.transport->Close();
      worker.transport.reset();
    }
  }
}

CombinerStats Combiner::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

uint64_t Combiner::update_seq() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return update_seq_;
}

}  // namespace cluster
}  // namespace pmw
