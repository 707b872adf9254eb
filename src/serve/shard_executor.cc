#include "serve/shard_executor.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <utility>

#include "common/check.h"

namespace pmw {
namespace serve {

ShardExecutor::ShardExecutor(ThreadPool* pool, const core::PmwCm* cm)
    : pool_(pool), cm_(cm) {
  PMW_CHECK(cm != nullptr);
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

  // Each miss is one hypothesis-side task plus one data-side task, unless
  // a stale cache probe already left the entry's data_min in its slot.
  // Tasks are laid out miss by miss and cut into contiguous chunks, at
  // most one per pool worker, so a lone miss solves its two halves side
  // by side. A hypothesis task writes only sides[u] and a data task only
  // its slot's data_min, sharing nothing but the const snapshot;
  // ForkJoin's join publishes those writes to this thread.
  struct Task {
    size_t miss;
    bool data_side;
  };
  std::vector<Task> tasks;
  tasks.reserve(2 * misses);
  for (size_t u = 0; u < misses; ++u) {
    tasks.push_back({u, false});
    if (std::isnan(result.plans[miss_slots[u]].data_min)) {
      tasks.push_back({u, true});
    }
  }
  std::vector<core::HypothesisSide> sides(misses);
  const size_t workers =
      pool_ != nullptr ? static_cast<size_t>(pool_->size()) : 1;
  const size_t chunk = (tasks.size() + workers - 1) / workers;
  const int chunks = static_cast<int>((tasks.size() + chunk - 1) / chunk);
  ForkJoin(pool_, chunks, [&](int s) {
    const size_t lo = static_cast<size_t>(s) * chunk;
    const size_t hi = std::min(lo + chunk, tasks.size());
    for (size_t t = lo; t < hi; ++t) {
      const size_t slot = miss_slots[tasks[t].miss];
      const convex::CmQuery& query = queries[positions[slot]];
      if (tasks[t].data_side) {
        result.plans[slot].data_min = cm_->PrepareDataSide(query);
      } else {
        sides[tasks[t].miss] = cm_->PrepareHypothesisSide(query, snapshot);
      }
    }
  });
  for (size_t u = 0; u < misses; ++u) {
    const size_t slot = miss_slots[u];
    result.plans[slot] = core::PmwCm::CombinePlan(
        std::move(sides[u]), result.plans[slot].data_min);
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
