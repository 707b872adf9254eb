#include "serve/epoch_state.h"

namespace pmw {
namespace serve {

std::shared_ptr<const core::HypothesisSnapshot> EpochState::Publish(
    const core::PmwCm& cm) {
  // Publish is writer-only, so reading current_ here races with nothing
  // but readers (who only copy it).
  std::shared_ptr<const core::HypothesisSnapshot> snapshot = Current();
  if (snapshot == nullptr || snapshot->version != cm.hypothesis_version()) {
    // Snapshot outside the lock: it is the expensive part (one
    // compaction pass) and touches only writer-owned state, not ours.
    snapshot = std::make_shared<const core::HypothesisSnapshot>(
        cm.SnapshotHypothesis());
  }
  std::lock_guard<std::mutex> lock(mutex_);
  current_ = snapshot;
  return snapshot;
}

std::shared_ptr<const core::HypothesisSnapshot> EpochState::Current() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return current_;
}

}  // namespace serve
}  // namespace pmw
