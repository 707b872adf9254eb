#include "serve/shard_executor.h"

#include <algorithm>
#include <future>
#include <unordered_map>

#include "common/check.h"

namespace pmw {
namespace serve {

ShardExecutor::ShardExecutor(ThreadPool* pool, const core::PmwCm* cm)
    : pool_(pool), cm_(cm) {
  PMW_CHECK(cm != nullptr);
}

void ShardExecutor::PrepareShard(std::span<const convex::CmQuery> queries,
                                 const std::vector<size_t>& positions,
                                 const std::vector<size_t>& slots, size_t lo,
                                 size_t hi,
                                 const core::HypothesisSnapshot& snapshot,
                                 core::PreparedQuery* plans) const {
  for (size_t u = lo; u < hi; ++u) {
    const size_t slot = slots[u];
    // A stale cache probe left the entry's data_min in the slot.
    plans[slot] =
        cm_->Prepare(queries[positions[slot]], snapshot, &plans[slot]);
  }
}

ShardExecutor::PrepareResult ShardExecutor::PrepareRange(
    std::span<const convex::CmQuery> queries, size_t begin, size_t end,
    const core::HypothesisSnapshot& snapshot, PlanCache* cache) const {
  PMW_CHECK_LE(begin, end);
  PMW_CHECK_LE(end, queries.size());
  PrepareResult result;
  const size_t count = end - begin;
  if (count == 0) return result;

  // Dedup pass (cheap: pointer-identity hashing) on the calling thread.
  // plan_of[i] maps position begin+i to its plan slot; positions[u] maps
  // plan slot u back to the first position that asked for it.
  std::unordered_map<QueryKey, size_t, QueryKeyHash> slot_of;
  slot_of.reserve(count);
  result.plan_of.resize(count);
  std::vector<size_t> positions;
  positions.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    const convex::CmQuery& query = queries[begin + i];
    PMW_CHECK(query.loss != nullptr);
    PMW_CHECK(query.domain != nullptr);
    QueryKey key{query.loss, query.domain};
    auto [it, inserted] = slot_of.emplace(key, positions.size());
    if (inserted) positions.push_back(begin + i);
    result.plan_of[i] = it->second;
  }
  const size_t distinct = positions.size();
  result.cache_hits = static_cast<long long>(count - distinct);
  result.plans.resize(distinct);
  result.plan_from_cache.assign(distinct, 0);

  // Cross-batch cache probe, still on the calling thread: slots the cache
  // fills need no solver work at all; only the misses are sharded out. A
  // cached plan at the snapshot's version equals the recompute
  // byte-for-byte (Prepare is deterministic), so the transcript cannot
  // depend on hits.
  std::vector<size_t> miss_slots;
  miss_slots.reserve(distinct);
  if (cache != nullptr) {
    result.cross_batch_lookups = static_cast<long long>(distinct);
    for (size_t slot = 0; slot < distinct; ++slot) {
      const convex::CmQuery& query = queries[positions[slot]];
      QueryKey key{query.loss, query.domain};
      const PlanCache::Probe probe =
          cache->Lookup(key, snapshot.version, &result.plans[slot]);
      if (probe == PlanCache::Probe::kHit) {
        ++result.cross_batch_hits;
        result.plan_from_cache[slot] = 1;
        continue;
      }
      if (probe == PlanCache::Probe::kStale) ++result.cross_batch_stale;
      miss_slots.push_back(slot);
    }
  } else {
    for (size_t slot = 0; slot < distinct; ++slot) {
      miss_slots.push_back(slot);
    }
  }
  const size_t misses = miss_slots.size();
  if (misses == 0) return result;

  // Fan the missed queries out; each worker writes a disjoint set of
  // result.plans slots, sharing nothing but the const snapshot. The
  // futures' wait/get below both joins a shard and publishes its writes
  // (happens-before) back to this thread.
  const size_t max_shards =
      pool_ != nullptr ? static_cast<size_t>(pool_->size()) : 1;
  const size_t shards = std::min(max_shards, misses);
  core::PreparedQuery* plans = result.plans.data();
  if (shards <= 1) {
    PrepareShard(queries, positions, miss_slots, 0, misses, snapshot, plans);
  } else {
    const size_t chunk = (misses + shards - 1) / shards;
    std::vector<std::future<void>> pending;
    pending.reserve(shards);
    try {
      for (size_t s = 0; s < shards; ++s) {
        const size_t lo = s * chunk;
        const size_t hi = std::min(lo + chunk, misses);
        if (lo >= hi) break;
        pending.push_back(pool_->Submit(
            [this, queries, &positions, &miss_slots, lo, hi, &snapshot,
             plans] {
              PrepareShard(queries, positions, miss_slots, lo, hi, snapshot,
                           plans);
            }));
      }
    } catch (...) {
      // Submit threw (allocation / pool shutdown): in-flight shards still
      // reference this frame's positions/snapshot/plans — join them before
      // unwinding.
      for (std::future<void>& f : pending) f.wait();
      throw;
    }
    // Join every shard unconditionally before get() may rethrow a task
    // exception: unwinding with shards in flight would free the buffers
    // they write.
    for (std::future<void>& f : pending) f.wait();
    for (std::future<void>& f : pending) f.get();
  }

  // Publish the fresh plans (writer thread, after the join, so the cache
  // never observes a half-written plan).
  if (cache != nullptr) {
    for (size_t u = 0; u < misses; ++u) {
      const size_t slot = miss_slots[u];
      const convex::CmQuery& query = queries[positions[slot]];
      cache->Insert(QueryKey{query.loss, query.domain}, result.plans[slot]);
    }
  }
  return result;
}

}  // namespace serve
}  // namespace pmw
