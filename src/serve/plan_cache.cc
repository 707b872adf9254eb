#include "serve/plan_cache.h"

namespace pmw {
namespace serve {

PlanCache::Probe PlanCache::Lookup(const QueryKey& key, int version,
                                   core::PreparedQuery* plan) {
  auto it = entries_.find(key);
  if (it == entries_.end()) return Probe::kMiss;
  if (it->second.hypothesis_version != version) {
    // The hypothesis side moved on; the data side is a function of the
    // key's query alone, so the recompute may skip its solve.
    plan->data_min = it->second.data_min;
    entries_.erase(it);
    return Probe::kStale;
  }
  *plan = it->second;
  return Probe::kHit;
}

void PlanCache::Insert(const QueryKey& key, const core::PreparedQuery& plan) {
  if (entries_.size() >= kMaxEntries && !entries_.contains(key)) return;
  entries_[key] = plan;
}

}  // namespace serve
}  // namespace pmw
