// Concurrent sharded serving front-end for the PMW-CM mechanism (v2 of
// the heavy-traffic serving stack; ROADMAP north star).
//
// Threading model: epoch-snapshotted reads, single-writer commits.
//
//   * Read path (parallel). At batch start the writer publishes an
//     *epoch*: an immutable compacted snapshot of the hypothesis
//     (serve/epoch_state.h). A ShardExecutor partitions the batch into
//     contiguous shards — one per thread-pool worker — and each worker
//     prepares its shard's queries against that snapshot
//     (PmwCm::Prepare: const, deterministic, no randomness). This is the
//     embarrassingly parallel part: in steady state the sparse vector
//     answers kBottom and preparation is all the work there is.
//   * Write path (sequential commits, sharded updates). The single
//     writer then commits queries in arrival order through
//     PmwCm::AnswerPrepared — sparse-vector noise draws, oracle calls,
//     MW updates, and ledger appends all happen here, in canonical
//     order. With ServeOptions::num_shards > 1 the hypothesis is
//     partitioned into domain shards and a hard round's MW-update path
//     (payoff + reweigh/renormalize) fans its per-shard halves across
//     the same worker pool via serve::ShardRouter, with the cross-shard
//     combines folded on the writer in fixed shard order. When a commit
//     fires a hard round (MW update) the epoch advances: the writer
//     publishes a new snapshot and re-prepares the batch's remaining
//     suffix in parallel before continuing. Updates are bounded by the
//     schedule's T, so re-prepares are rare and the amortization
//     survives.
//
// Determinism: plans are pure functions of (query, snapshot) and every
// stateful step is replayed in arrival order by one thread, so answers
// and the privacy ledger are bit-identical to running sequential PmwCm
// under the same seed — regardless of thread count, shard layout, or
// scheduling. tests/serve_parallel_test.cc asserts this property-style;
// the TSan CI job keeps the data-race argument honest.

#ifndef PMWCM_SERVE_PMW_SERVICE_H_
#define PMWCM_SERVE_PMW_SERVICE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/stats.h"
#include "common/thread_pool.h"
#include "core/pmw_cm.h"
#include "obs/metrics.h"
#include "serve/epoch_state.h"
#include "serve/shard_executor.h"
#include "serve/shard_router.h"

namespace pmw {
namespace serve {

/// Serving-layer configuration (mechanism parameters live in PmwOptions).
struct ServeOptions {
  /// Worker threads preparing queries. <= 1 runs every shard inline on
  /// the serving thread (no pool) — the PR 1 configuration.
  int num_threads = 1;
  /// Domain shards the hypothesis is partitioned into (rounded down to a
  /// power of two, clamped to the universe size). With > 1 shard the
  /// MW-update hot path — the dual-certificate payoff and the
  /// reweigh/renormalize passes — fans across the same worker pool via
  /// serve::ShardRouter, while commits keep their fixed shard order so
  /// transcripts stay bit-identical to sequential PmwCm at ANY
  /// (shards x threads) configuration.
  int num_shards = 1;
  /// Hypothesis storage backend. kSparse materializes only the support
  /// the MW updates actually touch (per-shard uniform residual for the
  /// rest) — the |X| >= 2^20 configuration. With default `sparse`
  /// options ("exact mode") transcripts remain bit-identical to kDense.
  core::HypothesisBackend hypothesis_backend =
      core::HypothesisBackend::kDense;
  /// Sparse-backend knobs; non-default values opt into the documented
  /// approx mode (core/sharded_hypothesis.h).
  core::SparseHypothesisOptions sparse;
  /// Metrics registry the service records into (not owned; must outlive
  /// the service). Null makes the service own a private registry — the
  /// embedded/test configuration. The api endpoint passes its own so one
  /// registry spans serve + frontend + transport.
  obs::Registry* registry = nullptr;
  /// Multi-host serving: a hypothesis delegate (cluster::Combiner) that
  /// moves the per-shard MW phases to shard-group worker processes. Not
  /// owned; must outlive the service and already be Connect()ed with
  /// this service's clamped shard count. Null (the default) keeps every
  /// phase in-process. Requires num_shards > 1 and the dense backend;
  /// transcripts stay bit-identical either way (core/sharded_hypothesis.h
  /// keeps both cross-shard folds on the serving writer).
  core::HypothesisDelegate* hypothesis_delegate = nullptr;
};

/// Serving counters, as PmwService::stats() rebuilds them from the
/// service's metrics registry (the only place they are stored).
/// Latency/throughput moments are common/stats.h RunningStats views of
/// the registry histograms.
struct ServeStats {
  /// Per-analyst slice of the counters, keyed by the tags a front-end
  /// passes to AnswerBatch (empty when serving untagged traffic).
  struct AnalystCounters {
    long long queries = 0;
    /// Hard rounds this analyst's queries triggered (privacy-relevant:
    /// each one is an oracle call).
    long long updates = 0;
    long long errors = 0;
  };

  RunningStats batch_latency_ms;
  RunningStats batch_queries_per_sec;
  long long queries = 0;
  long long batches = 0;
  /// kBottom answers: served from the hypothesis, no privacy cost.
  long long bottom_answers = 0;
  /// kTop answers: oracle call + MW update.
  long long updates = 0;
  /// Queries whose PreparedQuery was shared with an earlier identical
  /// query in the same prepared range (same loss/domain, same epoch);
  /// dedup happens before sharding, so repeats amortize identically at
  /// every thread count.
  long long prepare_cache_hits = 0;
  /// Error statuses returned to clients (halted / budget exhausted).
  long long errors = 0;
  /// Epochs published (one per batch start + one per mid-batch update):
  /// the pmw_serve_epochs_total counter.
  long long epochs = 0;
  /// Distinct plans recomputed in parallel after a mid-batch epoch
  /// advance (repeats of an already-recomputed query are cache hits).
  long long reprepared = 0;
  /// Cross-batch plan cache: distinct queries probed / served from the
  /// attached PlanCache (zero when none is attached). Unlike
  /// prepare_cache_hits these survive between AnswerBatch calls.
  long long cross_batch_cache_lookups = 0;
  long long cross_batch_cache_hits = 0;
  /// Cached plans dropped on probe because they were prepared at an
  /// older hypothesis version.
  long long plan_cache_stale_dropped = 0;
  /// Worker threads serving shards (1 = inline).
  int threads = 1;
  /// Domain shards the hypothesis is partitioned into (after clamping).
  int shards = 1;
  /// MW-update-path wall time summed over every hard round (payoff +
  /// reweigh/renormalize, the work the domain shards parallelize; oracle
  /// solves excluded): the sum of the pmw_serve_mw_update_us histogram,
  /// which observes core::AnswerTiming::mw_us once per hard round.
  double mw_update_ms = 0.0;
  /// Per-analyst counters (populated by the tagged AnswerBatch overload).
  std::map<std::string, AnalystCounters> per_analyst;

  double OverallQueriesPerSec() const;
  /// Fraction of cross-batch lookups served from the cache (0 when the
  /// cache saw no traffic).
  double CrossBatchHitRate() const;

  /// One row per service for comparative tables (benches print several
  /// services side by side). Header and row are aligned column-for-column
  /// so callers never hand-format counters again.
  static std::vector<std::string> TableHeader();
  std::vector<std::string> TableRow() const;
  /// The single-service table: TableHeader + this service's TableRow,
  /// rendered with common/table_printer.
  std::string ToString() const;

  /// Multi-line report: the table plus latency moments and the
  /// per-analyst breakdown.
  std::string Report() const;
};

/// Per-query serving outcome, positionally aligned with AnswerBatch's
/// result vector. Pure bookkeeping — outcomes never influence answers —
/// but the api layer forwards them to clients as ServingMeta (epoch,
/// hard/soft round, cache-hit flag).
struct QueryOutcome {
  /// Hypothesis version the query was committed at.
  int epoch = 0;
  /// True when the query triggered an oracle call + MW update.
  bool hard_round = false;
  /// True when the query's plan was served from the cross-batch cache.
  bool cache_hit = false;
  /// Span timings, recorded whenever outcomes are requested. All
  /// bookkeeping — never influence answers. prepare_us is the batch's
  /// total parallel-prepare wall time (batch-level, like the dispatcher's
  /// serve_us); the rest are this query's own commit breakdown.
  uint64_t prepare_us = 0;
  /// Private oracle solve inside the commit (hard rounds only).
  uint64_t solve_us = 0;
  /// MW-update path inside the commit (hard rounds only).
  uint64_t mw_us = 0;
  /// The whole AnswerPrepared call for this query.
  uint64_t commit_us = 0;
  /// Per-shard MW wall time for this query's hard round (empty on soft
  /// rounds or single-shard topologies).
  std::vector<uint32_t> shard_us;
};

class PmwService {
 public:
  /// `dataset` and `oracle` must outlive the service (same contract as
  /// PmwCm, which the service constructs and owns).
  PmwService(const data::Dataset* dataset, erm::Oracle* oracle,
             const core::PmwOptions& options, uint64_t seed,
             const ServeOptions& serve_options = ServeOptions{});

  /// Answers `queries` in order. The result vector is positionally aligned
  /// with the input; each entry is the released theta or the per-query
  /// error status (kHalted / kResourceExhausted), exactly as the sequential
  /// mechanism would have produced it.
  ///
  /// Must be called from one serving thread at a time (the single
  /// writer); fan-in from many client threads belongs in a queue in
  /// front of it (frontend::Dispatcher).
  std::vector<Result<convex::Vec>> AnswerBatch(
      std::span<const convex::CmQuery> queries);

  /// Tagged overload: `analyst_ids` is positionally aligned with
  /// `queries` (same size, or empty for untagged) and attributes each
  /// query's outcome to its analyst in stats().per_analyst. Tags never
  /// influence answers — they are bookkeeping only.
  std::vector<Result<convex::Vec>> AnswerBatch(
      std::span<const convex::CmQuery> queries,
      std::span<const std::string> analyst_ids);

  /// Full overload: a non-null `outcomes` additionally receives one
  /// QueryOutcome per query (cleared and refilled), what the api layer
  /// ships back as serving metadata.
  std::vector<Result<convex::Vec>> AnswerBatch(
      std::span<const convex::CmQuery> queries,
      std::span<const std::string> analyst_ids,
      std::vector<QueryOutcome>* outcomes);

  /// Convenience: a batch of one.
  Result<convex::Vec> Answer(const convex::CmQuery& query);

  /// Attaches a cross-batch plan cache (not owned; must outlive the
  /// service's last batch). The service probes it during every prepare
  /// phase, extending the intra-batch dedup across the whole request
  /// stream, and re-prepares stale entries without re-solving min l_D.
  /// A cache serves this one service only. Set before serving starts.
  void set_plan_cache(PlanCache* cache) { plan_cache_ = cache; }

  core::PmwCm& mechanism() { return cm_; }
  const core::PmwCm& mechanism() const { return cm_; }
  /// The serving counters, rebuilt from registry reads alone — safe from
  /// any thread while the writer keeps serving (the stats RPC) and never
  /// blocks it. Each value is torn-free; the set may straddle a batch
  /// (the metrics-scrape contract). Exact once serving quiesces.
  ServeStats stats() const;
  /// The metrics registry the service records into (its own unless
  /// ServeOptions::registry injected one). Scrape-safe from any thread.
  obs::Registry& registry() { return *registry_; }
  const obs::Registry& registry() const { return *registry_; }
  /// Domain shards the hypothesis is partitioned into (after clamping).
  int num_shards() const { return cm_.num_shards(); }
  /// The epoch holder (the stats RPC reads its current version).
  const EpochState& epochs() const { return epochs_; }
  /// The per-shard work router (exposed for tests).
  const ShardRouter& router() const { return router_; }

 private:
  /// Publishes a fresh epoch and prepares queries[begin, end) against it,
  /// folding executor counters into the registry. Returns the epoch's
  /// snapshot; `*prepared` receives the deduplicated plans + position
  /// index for the range.
  std::shared_ptr<const core::HypothesisSnapshot> PublishAndPrepare(
      std::span<const convex::CmQuery> queries, size_t begin, size_t end,
      ShardExecutor::PrepareResult* prepared);

  /// Registry handles resolved once at construction (instrument pointers
  /// are stable for the registry's lifetime).
  struct Instruments {
    obs::Counter* queries = nullptr;
    obs::Counter* batches = nullptr;
    obs::Counter* bottom_answers = nullptr;
    obs::Counter* updates = nullptr;
    obs::Counter* prepare_cache_hits = nullptr;
    obs::Counter* errors = nullptr;
    obs::Counter* epochs = nullptr;
    obs::Counter* reprepared = nullptr;
    obs::Counter* cross_batch_cache_lookups = nullptr;
    obs::Counter* cross_batch_cache_hits = nullptr;
    obs::Counter* plan_stale_dropped = nullptr;
    obs::Gauge* threads = nullptr;
    obs::Gauge* shards = nullptr;
    obs::Histogram* mw_update_us = nullptr;
    obs::Histogram* batch_latency_ms = nullptr;
    obs::Histogram* batch_queries_per_sec = nullptr;
  };
  /// Labeled per-analyst counter handles, cached writer-locally so the
  /// registry mutex is taken once per analyst, not once per query.
  struct AnalystHandles {
    obs::Counter* queries = nullptr;
    obs::Counter* updates = nullptr;
    obs::Counter* errors = nullptr;
  };
  AnalystHandles& HandlesFor(const std::string& analyst);

  core::PmwCm cm_;
  std::unique_ptr<ThreadPool> pool_;  // null when num_threads <= 1
  ShardExecutor executor_;
  /// Fans the MW-update path's per-shard phases across pool_; installed
  /// into cm_ as its ShardRunner when num_shards > 1.
  ShardRouter router_;
  EpochState epochs_;
  /// Owned fallback when ServeOptions::registry is null; registry_
  /// always points at the live one.
  std::unique_ptr<obs::Registry> owned_registry_;
  obs::Registry* registry_ = nullptr;
  Instruments m_;
  /// Writer-local: only the serving thread touches the handle cache.
  std::map<std::string, AnalystHandles> analyst_handles_;
  PlanCache* plan_cache_ = nullptr;  // not owned
};

}  // namespace serve
}  // namespace pmw

#endif  // PMWCM_SERVE_PMW_SERVICE_H_
