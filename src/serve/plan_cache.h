// Cross-batch plan cache: a bounded map from query identity to the plan
// last prepared for it and the epoch stamp it was prepared under.
//
// Correctness: a plan is served only when the probing epoch's
// (shard_set, content) exactly equal the stamp it was computed under.
// Prepare is a pure function of (query, support bytes), so equal content
// fingerprints mean a recompute would be byte-identical and a hit cannot
// change the transcript. The one field Prepare takes from the version
// rather than the bytes, the plan's hypothesis_version, is rewritten to
// the probing stamp's version on every hit, after which plan and
// recompute agree byte for byte.
//
// Lifetime contract: keys are the loss/domain pointers of QueryKey, so
// the cache extends the repo's pointer-identity convention ("families own
// the losses and keep them alive") from one batch to the cache's whole
// lifetime. The query families feeding a service must therefore outlive
// its cache.

#ifndef PMWCM_SERVE_PLAN_CACHE_H_
#define PMWCM_SERVE_PLAN_CACHE_H_

#include <cstddef>
#include <cstdint>
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

/// The epoch identity a plan is computed under and validated against.
/// `shard_set` names the partition, `content` folds the per-shard content
/// fingerprints of the published support (Epoch::content_fingerprint),
/// and `version` is the hypothesis version stamped into plans.
struct PlanStamp {
  int version = -1;
  uint64_t shard_set = 0;
  uint64_t content = 0;
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
    /// The entry's (shard_set, content) no longer matched; it was
    /// dropped, since the hypothesis never revisits old content.
    kStale,
  };

  /// On kHit copies the cached plan into `*plan`, restamped to
  /// `stamp.version`; otherwise leaves `*plan` untouched.
  Probe Lookup(const QueryKey& key, const PlanStamp& stamp,
               core::PreparedQuery* plan);

  /// Stores a plan computed under `stamp`. A resident key is refreshed;
  /// a new key is refused while the cache holds kMaxEntries entries.
  void Insert(const QueryKey& key, const PlanStamp& stamp,
              const core::PreparedQuery& plan);

  size_t size() const { return entries_.size(); }

 private:
  struct Entry {
    uint64_t shard_set = 0;
    uint64_t content = 0;
    core::PreparedQuery plan;
  };

  std::unordered_map<QueryKey, Entry, QueryKeyHash> entries_;
};

}  // namespace serve
}  // namespace pmw

#endif  // PMWCM_SERVE_PLAN_CACHE_H_
