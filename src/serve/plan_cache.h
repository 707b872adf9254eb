// Cross-batch plan cache: a bounded map from query identity to the plan
// last prepared for it.
//
// Correctness: a plan is served only when the version it was prepared at
// (PreparedQuery::hypothesis_version) equals the probing snapshot's.
// PmwCm::hypothesis_version() moves exactly when the hypothesis does, and
// Prepare is a pure function of (query, snapshot), so an equal version
// means a recompute would be byte-identical — version field included —
// and a hit cannot change the transcript. Any other version is stale.
// A stale entry still lends its data_min (min l_D) to the recompute: that
// value is a function of the query and the mechanism's dataset alone, so
// one cache must serve one mechanism.
//
// Lifetime contract: keys are the loss/domain pointers of QueryKey, so
// the cache extends the repo's pointer-identity convention ("families own
// the losses and keep them alive") from one batch to the cache's whole
// lifetime. The query families feeding a service must therefore outlive
// its cache.

#ifndef PMWCM_SERVE_PLAN_CACHE_H_
#define PMWCM_SERVE_PLAN_CACHE_H_

#include <cstddef>
#include <functional>
#include <unordered_map>

#include "core/pmw_cm.h"

namespace pmw {
namespace serve {

/// Identity of a CM query: the loss/domain objects (families own them and
/// keep them alive; equal pointers <=> same mathematical query).
struct QueryKey {
  const void* loss;
  const void* domain;
  bool operator==(const QueryKey& other) const {
    return loss == other.loss && domain == other.domain;
  }
};
struct QueryKeyHash {
  size_t operator()(const QueryKey& key) const {
    size_t h = std::hash<const void*>()(key.loss);
    return h ^ (std::hash<const void*>()(key.domain) + 0x9e3779b9 + (h << 6) +
                (h >> 2));
  }
};

/// Not thread-safe: only the serving writer touches it (PrepareRange
/// probes before fanning work out and inserts after joining the shards).
class PlanCache {
 public:
  /// Resident-entry cap. Catalogs are far smaller, so the cap only
  /// bounds memory against unbounded query churn.
  static constexpr size_t kMaxEntries = 4096;

  enum class Probe {
    kHit,
    /// No entry for the key.
    kMiss,
    /// The entry was prepared at another version; it was dropped, since
    /// the hypothesis never returns to an old version.
    kStale,
  };

  /// On kHit (the entry was prepared at `version`) copies the cached plan
  /// into `*plan`. On kStale copies only the entry's data_min (min l_D,
  /// which depends on the key's query and the dataset, not the version)
  /// into `*plan` before dropping the entry, so the caller's re-prepare
  /// can pass `*plan` as PmwCm::Prepare's `earlier` and skip the data-side
  /// solve. On kMiss leaves `*plan` untouched.
  Probe Lookup(const QueryKey& key, int version, core::PreparedQuery* plan);

  /// Stores `plan` under its own hypothesis_version. A resident key is
  /// refreshed; a new key is refused while the cache holds kMaxEntries
  /// entries.
  void Insert(const QueryKey& key, const core::PreparedQuery& plan);

  size_t size() const { return entries_.size(); }

 private:
  std::unordered_map<QueryKey, core::PreparedQuery, QueryKeyHash> entries_;
};

}  // namespace serve
}  // namespace pmw

#endif  // PMWCM_SERVE_PLAN_CACHE_H_
