#include "serve/plan_cache.h"

namespace pmw {
namespace serve {

PlanCache::Probe PlanCache::Lookup(const QueryKey& key,
                                   const PlanStamp& stamp,
                                   core::PreparedQuery* plan) {
  auto it = entries_.find(key);
  if (it == entries_.end()) return Probe::kMiss;
  const Entry& entry = it->second;
  if (entry.shard_set != stamp.shard_set || entry.content != stamp.content) {
    entries_.erase(it);
    return Probe::kStale;
  }
  *plan = entry.plan;
  plan->hypothesis_version = stamp.version;
  return Probe::kHit;
}

void PlanCache::Insert(const QueryKey& key, const PlanStamp& stamp,
                       const core::PreparedQuery& plan) {
  if (entries_.size() >= kMaxEntries && !entries_.contains(key)) return;
  entries_[key] = Entry{stamp.shard_set, stamp.content, plan};
}

}  // namespace serve
}  // namespace pmw
