// cluster::SliceHost — the worker-side half of the distributed MW
// update: a core::DenseSlice over the owned shard group, behind the
// checks a process answering wire requests needs.
//
// Bit-identity is the entire design, and it holds by construction. The
// host derives its shard ranges from core::PartitionDomain — the SAME
// function the front door's ShardedHypothesis uses — so shard boundaries
// agree across processes, and every phase runs core::DenseSlice, the
// same code (and the same SIMD kernels) as the front door's local dense
// storage. A slice's reduction tree depends only on range length, so
// the owned slice at its domain offset reproduces the front door's
// per-shard values exactly. Both cross-shard folds (the max fold and the
// fixed-tree normalizer fold) stay on the front door's single-writer
// thread; this directory holds no MW arithmetic at all.
//
// What the host adds is validation. Phase sequencing doubles as crash
// detection: every phase carries the update sequence number it belongs
// to, and the host rejects anything out of order with a typed error. A
// freshly restarted (hence reconfigured, seq 0) worker therefore cannot
// silently serve a combiner that is mid-transcript — the combiner sees
// the rejection and replays its update log to rebuild the slice (see
// cluster/combiner.h). Payload sizes, snapshot ranges and restore pairs
// are checked before they reach the slice.

#ifndef PMWCM_CLUSTER_SLICE_HOST_H_
#define PMWCM_CLUSTER_SLICE_HOST_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "common/result.h"
#include "core/sharded_hypothesis.h"
#include "data/histogram.h"

namespace pmw {
namespace cluster {

/// Interleaves `support` as (index, value) doubles: the wire form of the
/// kSnapshot reply and the kRestore payload. Indices are ints, so the
/// double round trip is exact.
std::vector<double> EncodeIndexPairs(const data::HistogramSupport& support);

/// Decodes interleaved (index, value) doubles that came off the wire.
/// Each index is range-checked against [lo, hi) while still a double (so
/// NaN, ±inf and values outside int never reach a conversion), then must
/// be an integer and strictly greater than the one before; each value
/// must be positive and finite, as Snapshot emits them. Any violation,
/// or an odd payload length, is a typed kMalformedRequest error.
Result<data::HistogramSupport> DecodeIndexPairs(
    const std::vector<double>& pairs, int lo, int hi);

class SliceHost {
 public:
  /// Installs the slice: the global partition is
  /// core::PartitionDomain(domain_size, num_shards) and this host owns
  /// shards [group_lo, group_hi) of it (a contiguous domain range).
  /// Resets state to the uniform hypothesis at update sequence 0.
  /// Typed kMalformedRequest error when the partition disagrees with
  /// num_shards or the group range is empty/out of bounds.
  Status Configure(int domain_size, int num_shards, int group_lo,
                   int group_hi);

  /// MW phase 1 over the owned shards. `payoff` is the slice covering
  /// exactly the owned domain range, in domain order. Writes one local
  /// max per owned shard (group size entries, shard order). Valid only
  /// for update_seq == updates_applied() — re-issuing phase 1 of the
  /// current update is allowed (that is how the combiner restarts a
  /// half-applied update after recovering a DIFFERENT worker).
  Status Reweigh(uint64_t update_seq, const std::vector<double>& payoff,
                 double eta, std::vector<double>* local_max);

  /// MW phase 2: stabilized weights and per-owned-shard subtree sums.
  /// Requires phase 1 of the same update_seq to have run.
  Status Partials(uint64_t update_seq, double global_max,
                  std::vector<double>* local_sum);

  /// MW phase 3: normalize in place; completes the update (increments
  /// updates_applied). Requires phase 2 of the same update_seq.
  Status Normalize(uint64_t update_seq, double total);

  /// The strictly-positive entries of [lo, hi) — which must lie within
  /// the owned domain range — in index order, exactly what the front
  /// door's CompactSupport(lo, hi) would emit.
  Result<data::HistogramSupport> Snapshot(int lo, int hi);

  /// Installs a checkpointed slice: `pairs` is a Snapshot answer over
  /// the whole owned range in its wire form (EncodeIndexPairs), and
  /// `update_seq` becomes the applied count. core::DenseSlice::Restore
  /// rebuilds the slice byte for byte. A payload DecodeIndexPairs
  /// rejects leaves the slice untouched. Requires Configure first;
  /// resets the phase machine to idle.
  Status Restore(uint64_t update_seq, const std::vector<double>& pairs);

  bool configured() const { return slice_.has_value(); }
  uint64_t updates_applied() const { return updates_applied_; }
  /// Owned domain range [base, end); requires configured().
  int base() const { return slice_->base(); }
  int end() const { return slice_->end(); }

 private:
  /// Last phase completed for update seq == updates_applied_.
  enum class Phase { kIdle, kReweighed, kSummed };

  std::optional<core::DenseSlice> slice_;
  uint64_t updates_applied_ = 0;
  Phase phase_ = Phase::kIdle;
};

}  // namespace cluster
}  // namespace pmw

#endif  // PMWCM_CLUSTER_SLICE_HOST_H_
