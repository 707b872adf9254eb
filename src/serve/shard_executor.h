// Shards a query batch across the calling thread and thread-pool workers
// and prepares every query against one immutable epoch snapshot.
//
// Why this is safe to parallelize: PmwCm::Prepare and its two halves are
// const, deterministic, and draw no randomness — each plan is a pure
// function of (query, snapshot). Sharding therefore cannot change any
// plan's value, only the wall-clock to compute them; the single-writer
// commit loop that consumes the plans (serve::PmwService) replays the
// mechanism's stateful part (sparse-vector draws, oracle calls, MW
// updates, ledger appends) in canonical arrival order, which is what
// makes the parallel transcript bit-identical to the sequential one.
//
// Dedup happens *before* sharding: one cheap pointer-identity pass over
// the range collects the distinct queries, and the ones the plan cache
// misses become tasks. The unit of work is a
// task, not a whole query: each miss contributes its hypothesis side
// (theta_hat_t and l_D(theta_hat_t)) and, unless a stale cache entry lent
// min l_D, its data side, so even a lone cold miss solves its two halves
// at once. The tasks are cut into contiguous chunks, at most one per pool
// worker, that fork-join through common/thread_pool.h's ForkJoin (chunk 0
// on the calling thread, the rest on workers); after the join the writer
// joins each miss's halves with PmwCm::CombinePlan and scatters the plan
// back to every position that asked for it. Cycling workloads — many
// clients asking overlapping questions — therefore amortize identically
// at every thread count, and no two chunks compute the same half
// regardless of how repeats straddle them.

#ifndef PMWCM_SERVE_SHARD_EXECUTOR_H_
#define PMWCM_SERVE_SHARD_EXECUTOR_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/thread_pool.h"
#include "convex/cm_query.h"
#include "core/pmw_cm.h"
#include "serve/plan_cache.h"

namespace pmw {
namespace serve {

class ShardExecutor {
 public:
  /// `pool` may be null: every range then runs inline on the caller's
  /// thread as a single shard (the sequential service configuration).
  /// `cm` must outlive the executor.
  ShardExecutor(ThreadPool* pool, const core::PmwCm* cm);

  struct PrepareResult {
    /// One plan per *distinct* query in the range, in first-appearance
    /// order. Kept deduplicated — consumers index through plan_of —
    /// so a repeat-heavy batch never deep-copies plans per position.
    std::vector<core::PreparedQuery> plans;
    /// plan_of[i] is the plans index answering queries[begin + i].
    std::vector<size_t> plan_of;
    /// plan_from_cache[u] is 1 when plans[u] was served from the
    /// cross-batch cache instead of recomputed (feeds the per-query
    /// cache-hit flag the api layer reports).
    std::vector<uint8_t> plan_from_cache;
    /// Queries whose plan was shared with an earlier identical query in
    /// the range (range size minus distinct queries).
    long long cache_hits = 0;
    /// Distinct queries probed against the cross-batch plan cache (0
    /// when no cache was supplied).
    long long cross_batch_lookups = 0;
    /// Distinct queries served from the cross-batch cache instead of
    /// being recomputed.
    long long cross_batch_hits = 0;
    /// Distinct queries whose cached plan was dropped as stale on probe
    /// (counted among the misses, then recomputed).
    long long cross_batch_stale = 0;
  };

  /// Prepares queries[begin, end) against `snapshot`, fanning the
  /// distinct queries' hypothesis-side and data-side tasks out across the
  /// pool. Blocks until every chunk finishes. A non-null `cache` is probed
  /// per distinct query before any solver runs (hits skip computation
  /// entirely; a stale entry lends its data_min, so the recompute runs
  /// only the hypothesis-side task) and fed every fresh plan after the
  /// chunks join — both on the calling thread.
  PrepareResult PrepareRange(std::span<const convex::CmQuery> queries,
                             size_t begin, size_t end,
                             const core::HypothesisSnapshot& snapshot,
                             PlanCache* cache = nullptr) const;

 private:
  ThreadPool* pool_;
  const core::PmwCm* cm_;
};

}  // namespace serve
}  // namespace pmw

#endif  // PMWCM_SERVE_SHARD_EXECUTOR_H_
