// Epoch-snapshotted reads for the serving stack.
//
// PMW-CM only mutates its hypothesis when the sparse vector fires a hard
// (kTop) round; between updates the hypothesis is frozen. An *epoch* is
// one such frozen interval, captured as an immutable compacted snapshot
// tagged with the hypothesis version that produced it. Readers (shard
// workers preparing queries) hold a shared_ptr to the snapshot for as
// long as they need it; the single writer publishes after every MW
// update. Old snapshots stay alive until their last reader drops them, so
// a publish never invalidates in-flight reads — the classic RCU shape,
// with shared_ptr as the grace period.

#ifndef PMWCM_SERVE_EPOCH_STATE_H_
#define PMWCM_SERVE_EPOCH_STATE_H_

#include <memory>
#include <mutex>

#include "core/pmw_cm.h"

namespace pmw {
namespace serve {

/// Single-writer, many-reader holder of the current epoch's snapshot.
///
/// Thread safety: Publish must only be called by the serving writer (it
/// snapshots the live mechanism, which the writer alone may mutate);
/// Current may be called from any thread at any time.
class EpochState {
 public:
  /// Makes the mechanism's current hypothesis the current epoch and
  /// returns its snapshot. While hypothesis_version() is unchanged the
  /// previous snapshot is republished as is: the version moves exactly
  /// when the hypothesis does, so a fresh compaction would copy the same
  /// bytes. That keeps a soft-round republish O(1) instead of an O(|X|)
  /// compaction pass — what keeps the common path sublinear for the
  /// sparse backend at |X| >= 2^20.
  std::shared_ptr<const core::HypothesisSnapshot> Publish(
      const core::PmwCm& cm);

  /// The most recently published snapshot; null before the first
  /// Publish.
  std::shared_ptr<const core::HypothesisSnapshot> Current() const;

 private:
  mutable std::mutex mutex_;
  std::shared_ptr<const core::HypothesisSnapshot> current_;
};

}  // namespace serve
}  // namespace pmw

#endif  // PMWCM_SERVE_EPOCH_STATE_H_
