// cluster::Combiner — the front-door half of the distributed MW update:
// a core::HypothesisDelegate that fans each phase out to shard-group
// worker processes over TCP and folds nothing itself.
//
// Determinism. ShardedHypothesis drives every storage through the same
// sequence and keeps BOTH cross-shard folds — the max fold and the
// fixed-tree normalizer fold — on the front door's single-writer
// thread, so with a combiner installed they run exactly where they run
// for local storage. The combiner only moves per-shard phase work to
// workers and copies their per-shard outputs back into shard order; the
// workers run core::DenseSlice, the front door's own dense storage
// (cluster/slice_host.h), so transcripts are bit-identical to
// sequential PmwCm at every (workers x shards x threads x transport)
// configuration. Snapshot replies pass DecodeIndexPairs before they
// reach an epoch snapshot or a checkpoint.
//
// Recovery. The combiner logs every completed update's inputs (payoff,
// eta, global_max, total — precisely the four values the delegate
// receives, all already public releases or derived from them). When a
// worker times out or its connection breaks, the combiner reconnects
// with bounded backoff, re-issues kConfigure, restores the latest
// checkpoint (kRestore: the worker's exact slice bytes, captured via
// kSnapshot), replays the log suffix in order (IEEE arithmetic is
// deterministic, so the rebuilt slice is bit-identical), replays the
// current update's completed phases, and retries the failed RPC. Only
// when recovery is exhausted does the failure surface — as a typed
// kShardUnavailable error at zero privacy cost, with the update
// unapplied (PmwCm guarantees update_count and the hypothesis are
// unchanged).
//
// Log bound. Every checkpoint_interval completed updates the combiner
// snapshots each worker's owned slice and truncates the log prefix the
// checkpoint covers, so recovery state is O(|X|) for the checkpoint
// plus O(interval * |X|) for the suffix — not the O(T * |X|) of
// replaying every update ever committed. Checkpoint restore preserves
// bit-identity because kSnapshot round-trips the slice's exact doubles
// and the only non-positive weight the update arithmetic can produce is
// +0.0 (see core::DenseSlice::Restore), and the commit is atomic: the
// log is truncated only after every worker's capture succeeded at the
// same sequence number.
//
// Threading: PmwCm calls the delegate only from the single serving
// writer, but every entry point locks anyway — stats() and a future
// admin surface may race it, and the cost is nil at RPC granularity.

#ifndef PMWCM_CLUSTER_COMBINER_H_
#define PMWCM_CLUSTER_COMBINER_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "api/envelope.h"
#include "api/socket_transport.h"
#include "common/result.h"
#include "core/sharded_hypothesis.h"
#include "data/histogram.h"

namespace pmw {
namespace cluster {

struct WorkerAddress {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
};

struct CombinerOptions {
  /// One shard-group worker per entry, in domain order: worker i owns a
  /// contiguous run of shards (Connect assigns near-equal groups).
  std::vector<WorkerAddress> workers;
  /// Hello token presented to every worker connection.
  std::string auth_token;
  /// Per-RPC deadline. A worker that misses it is treated as down and
  /// enters recovery; the RPC's late reply (if any) is discarded with
  /// its closed connection.
  int rpc_timeout_ms = 10000;
  /// Reconnect attempts per recovery before kShardUnavailable surfaces.
  int reconnect_attempts = 4;
  /// Backoff before reconnect attempt k: reconnect_backoff_ms << (k-1).
  int reconnect_backoff_ms = 50;
  /// Snapshot-checkpoint the replay log every this many completed
  /// updates: each worker's owned slice is captured (kSnapshot), the
  /// log prefix it covers is discarded, and recovery restores the
  /// checkpoint (kRestore) then replays only the suffix. Bounds the
  /// recovery log at O(|X| + interval * |X|) instead of O(T * |X|).
  /// Must be positive (checked at construction).
  int checkpoint_interval = 32;
};

/// Where the distributed update spends its time, for the bench harness's
/// tail-latency attribution: wall time the combiner spent waiting on
/// worker replies vs the compute time workers reported for the ops
/// themselves (the difference is transport + scheduling).
struct CombinerStats {
  long long rpcs = 0;
  long long rpc_failures = 0;
  /// Successful recoveries (reconnect + checkpoint restore + replay).
  long long recoveries = 0;
  /// Updates currently in the replay log — the suffix since the last
  /// checkpoint, not the lifetime total (update_seq() is that).
  long long updates_logged = 0;
  /// Checkpoints taken (each truncates the replay log to empty).
  long long checkpoints = 0;
  uint64_t combiner_wait_us = 0;
  uint64_t worker_compute_us = 0;
};

class Combiner : public core::HypothesisDelegate {
 public:
  explicit Combiner(CombinerOptions options);
  ~Combiner() override;

  Combiner(const Combiner&) = delete;
  Combiner& operator=(const Combiner&) = delete;

  /// Partitions [0, domain_size) with core::PartitionDomain(domain_size,
  /// num_shards) — num_shards must be the already-clamped power-of-two
  /// count the front door's ConfigureSharding settles on (the size of
  /// that same PartitionDomain call) — assigns each worker a contiguous
  /// shard group, connects, hellos, and configures them. Must succeed
  /// before the combiner is passed to ConfigureSharding; typed error
  /// otherwise.
  Status Connect(int domain_size, int num_shards);

  // --- core::HypothesisDelegate ---
  Status Reweigh(const std::vector<double>& payoff, double eta,
                 std::vector<double>* local_max) override;
  Status PartialSums(double global_max,
                     std::vector<double>* local_sum) override;
  Status Normalize(double total) override;
  Result<data::HistogramSupport> Snapshot(int lo, int hi) override;

  /// Closes every worker channel. Idempotent.
  void Close();

  CombinerStats stats() const;
  int num_workers() const { return static_cast<int>(workers_.size()); }
  /// Completed (logged) updates.
  uint64_t update_seq() const;

 private:
  struct Worker {
    WorkerAddress address;
    /// Owned shard indices [group_lo, group_hi) of the global partition
    /// and the matching domain range.
    int group_lo = 0;
    int group_hi = 0;
    int domain_lo = 0;
    int domain_hi = 0;
    std::unique_ptr<api::TcpTransport> transport;
    /// This worker's owned slice at checkpoint_seq_, as interleaved
    /// (index, value) pairs ready to ship as a kRestore payload. Only
    /// meaningful when checkpoint_seq_ > 0; committed atomically across
    /// all workers by MaybeCheckpoint.
    std::vector<double> checkpoint;
  };
  /// One completed update's replayable inputs.
  struct LoggedUpdate {
    std::vector<double> payoff;
    double eta = 0.0;
    double global_max = 0.0;
    double total = 0.0;
  };

  /// Fresh transport + hello to `worker`; typed error on failure.
  Status OpenChannel(Worker* worker);
  /// The kConfigure RPC for `worker` at the current partition.
  api::ShardRpcRequest ConfigureRpc(const Worker& worker);
  /// Ships one RPC and waits out the deadline; no recovery. A non-ok
  /// reply envelope comes back as its (tagged) status.
  Status RawCall(Worker* worker, api::ShardRpcRequest rpc,
                 api::AnswerEnvelope* reply);
  /// Reconnect with bounded backoff, reconfigure, replay the update log
  /// and the current update's phases preceding `upto`; increments
  /// stats_.recoveries on success.
  Status Recover(Worker* worker, api::ShardRpcOp upto);
  /// Configure + checkpoint restore (when one exists) + suffix-log
  /// replay + current-update prefix (everything strictly before `upto`),
  /// over an already-open channel.
  Status ReplayInto(Worker* worker, api::ShardRpcOp upto);
  /// Takes a cluster-wide checkpoint when the replay log has reached
  /// options_.checkpoint_interval updates: snapshots every worker's
  /// owned slice at the current sequence, and only if ALL captures
  /// succeed commits them, advances checkpoint_seq_, and truncates the
  /// log. Best-effort — on any failure the log is kept and the next
  /// completed update retries. Caller holds mutex_.
  void MaybeCheckpoint();
  /// Fans `rpcs` (one per worker, indexed like workers_) out in
  /// parallel and collects every reply, running recovery + one retry on
  /// per-worker failure. Replies are success envelopes.
  Status FanOut(std::vector<api::ShardRpcRequest> rpcs,
                std::vector<api::AnswerEnvelope>* replies);

  const CombinerOptions options_;
  mutable std::mutex mutex_;
  int domain_size_ = 0;
  std::vector<core::HypothesisShard> partition_;
  std::vector<Worker> workers_;
  uint64_t next_rpc_id_ = 1;
  /// Completed updates == the next update's sequence number.
  uint64_t update_seq_ = 0;
  /// Updates covered by the workers' checkpoints (0 = no checkpoint);
  /// log_[i] is the replayable input of update checkpoint_seq_ + i.
  uint64_t checkpoint_seq_ = 0;
  std::vector<LoggedUpdate> log_;
  /// The in-flight update's inputs as its phases arrive; moved into
  /// log_ when Normalize completes.
  LoggedUpdate current_;
  CombinerStats stats_;
};

}  // namespace cluster
}  // namespace pmw

#endif  // PMWCM_CLUSTER_COMBINER_H_
