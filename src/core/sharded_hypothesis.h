// The domain-sharded hypothesis of the PMW-CM mechanism.
//
// The paper maintains one multiplicative-weights histogram D_hat over the
// whole universe X; this class partitions it into K contiguous domain
// shards so the MW-update hot path (reweigh every x, renormalize)
// decomposes into K independent per-shard passes plus O(K)-sized
// combines — the distribution unit of the sharded serving engine
// (serve/pmw_service.h) and of the multi-host fabric (src/cluster).
//
// Configured once. Size, shard count, runner, storage backend, sparse
// options and delegate are constructor arguments and never change;
// PmwCm::ConfigureSharding builds a fresh hypothesis from them before the
// first query.
//
// One update path. MultiplicativeUpdate is the only code that runs the
// update's two cross-shard folds. It drives one storage through the
// HypothesisDelegate seam in a fixed sequence: phase 1 (reweigh; one
// local max per shard), the max fold, phase 2 (stabilized weights; one
// partial sum per shard), the fixed-tree normalizer fold, phase 3
// (normalize). Three storages implement the seam:
//
//   * DenseSlice (kDense): one double per element, per-shard phases
//     through the runner. It is the only dense MW arithmetic in the repo:
//     cluster::SliceHost runs a DenseSlice over its shard group too.
//   * The sparse shards (kSparse, below).
//   * An installed delegate — cluster::Combiner, whose shard-group
//     workers each run a DenseSlice over their own shards.
//
// The non-negotiable invariant is that sharding never changes a single
// bit of the hypothesis: at any K the update produces exactly the K = 1
// (fully sequential) doubles, so transcripts stay bit-identical to
// sequential PmwCm. Three facts make that true:
//
//   * Reweighing (log-weight + payoff, exp, divide) is elementwise —
//     partitioning cannot reorder any arithmetic.
//   * The stabilizing max is reduced per shard and folded across shards
//     in fixed order; floating-point max is associative, so grouping is
//     irrelevant.
//   * The normalizer is the ONE true reduction. It is computed by
//     pairwise summation with a fixed split rule (common/math_util.h's
//     PairwiseSum: always split at lo + (hi - lo) / 2), and shard
//     boundaries are generated by the SAME recursive halving — so every
//     shard is an internal node of the fixed reduction tree, each
//     shard's partial sum equals that subtree's value exactly, and the
//     cross-shard combine just evaluates the remaining top of the tree.
//     K must therefore be a power of two; PartitionDomain clamps.
//
// Sparse storage. kSparse materializes per shard only the *touched*
// support: a sorted (index, probability) set for entries whose weight
// has ever diverged from the shard's shared *uniform residual*, plus
// that one residual double for every untouched entry. An update touches
// an entry only when it was already touched or its payoff is nonzero
// (more precisely |payoff| > payoff_threshold), so the uniform start
// state costs O(1) per shard and memory grows with the support the
// mechanism actually reweighs — the Fast-MWEM observation applied to
// Figure 3's dual-certificate updates. This is what lets |X| reach 2^20
// and beyond.
//
//   Exact mode (the default SparseHypothesisOptions) is bit-identical to
//   kDense: an untouched entry's log-weight SafeLog(residual) + eta * 0.0
//   equals SafeLog(residual) exactly, so all untouched entries share one
//   unnormalized weight, and the shard's normalizer subtree is evaluated
//   by walking the SAME fixed reduction tree — touched leaves
//   individually, maximal all-untouched subtrees via a memoized
//   replicated-sum recurrence S(n) = S(n/2) + S(n - n/2) that reproduces
//   PairwiseSum over n equal values bit-for-bit — in
//   O(touched * log n + log^2 n) instead of O(n).
//
//   Approx mode is opt-in via SparseHypothesisOptions and trades the
//   bit-identity invariant for sublinear updates: payoff_threshold keeps
//   near-zero payoffs from materializing entries, and sampled_normalizer
//   estimates each shard's normalizer from normalizer_samples uniform
//   draws. Both knobs are deterministic — the sampler is seeded
//   FNV(seed, update index, shard index), so a replay with the same
//   options reproduces the same transcript — and the dense-vs-sparse
//   answer delta is bounded by its own oracle test
//   (tests/sharded_hypothesis_test.cc), not assumed.
//
// Threading: per-shard phases touch disjoint [lo, hi) slices and may run
// on any threads (the optional ShardRunner); every combine runs on the
// calling (single-writer) thread in fixed shard order.

#ifndef PMWCM_CORE_SHARDED_HYPOTHESIS_H_
#define PMWCM_CORE_SHARDED_HYPOTHESIS_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/result.h"
#include "data/histogram.h"

namespace pmw {
namespace core {

/// One contiguous domain shard [lo, hi) plus the per-shard reduction
/// state an MW update publishes before each combine.
struct HypothesisShard {
  int lo = 0;
  int hi = 0;
  /// Local max of the reweighed log-weights (phase 1 output).
  double local_max = 0.0;
  /// Pairwise partial sum of the unnormalized weights (phase 2 output);
  /// exactly the shard's subtree value in the fixed reduction tree.
  double local_sum = 0.0;

  int size() const { return hi - lo; }
};

/// Storage backend selector (see the file comment).
enum class HypothesisBackend {
  kDense = 0,
  kSparse = 1,
};

/// Knobs of the kSparse backend. The defaults select *exact mode*:
/// transcripts bit-identical to kDense at every shard count. Setting
/// either knob away from its default opts into *approx mode* — still
/// deterministic and replayable under the same options, but answers may
/// differ from dense within the bounds the oracle test pins.
struct SparseHypothesisOptions {
  /// Estimate each shard's normalizer from `normalizer_samples` uniform
  /// draws instead of the exact fixed-tree fold. Draws come from a
  /// dedicated generator seeded FNV(seed, update index, shard index),
  /// so the schedule is a pure function of (seed, partition) and a
  /// replay reproduces it exactly.
  bool sampled_normalizer = false;
  /// Samples per shard per update when sampled_normalizer is on.
  int normalizer_samples = 256;
  /// An untouched entry stays untouched while |payoff| <= threshold
  /// (its payoff is treated as exactly 0.0). 0.0 — the exact-mode
  /// value — still skips true-zero payoffs, which is what keeps the
  /// uniform start state O(1): equality with dense is unaffected
  /// because eta * 0.0 contributes nothing to the log-weight.
  double payoff_threshold = 0.0;
  /// Root seed of the sampled-normalizer schedule.
  uint64_t seed = 0;
};

/// The fixed power-of-two partition of [0, size): `shards` rounded down
/// to a power of two and clamped to [1, size], each emitted range a node
/// of PairwiseSum's reduction tree (split at lo + (hi - lo) / 2). This is
/// THE partition function — ShardedHypothesis calls it, and the cluster
/// subsystem calls it in worker processes so shard-group boundaries
/// agree bit-for-bit with the front door's.
std::vector<HypothesisShard> PartitionDomain(int size, int shards);

/// Executor of the MW update's per-shard phases: the seam between
/// ShardedHypothesis::MultiplicativeUpdate and wherever the state lives
/// (a local DenseSlice, the local sparse shards, or the cluster
/// subsystem's shard-group worker processes). The hypothesis keeps the
/// partition and the per-shard reduction cells, so BOTH combines (the
/// max fold and the fixed-tree normalizer fold) run on the single-writer
/// thread in the same order whatever the storage. Each phase call covers
/// every shard of the storage; outputs are indexed by shard, in shard
/// order.
///
/// Determinism contract: a delegate holding dense state must perform
/// exactly DenseSlice's arithmetic — in practice, run DenseSlice itself,
/// as cluster::SliceHost does. IEEE doubles make that reproducible
/// across processes, so transcripts stay bit-identical to sequential.
///
/// Errors are recoverable-by-caller (an unreachable worker after bounded
/// retries), never silent: a failed phase leaves the update unapplied.
/// Local storages never fail.
class HypothesisDelegate {
 public:
  virtual ~HypothesisDelegate() = default;

  /// Phase 1: reweigh every shard in log-space; writes one local max per
  /// shard (num_shards entries, shard order).
  virtual Status Reweigh(const std::vector<double>& payoff, double eta,
                         std::vector<double>* local_max) = 0;
  /// Phase 2: stabilized weights and per-shard subtree sums
  /// (num_shards entries, shard order).
  virtual Status PartialSums(double global_max,
                             std::vector<double>* local_sum) = 0;
  /// Phase 3: normalize in place by `total`.
  virtual Status Normalize(double total) = 0;
  /// The strictly-positive entries of [lo, hi), index order — the same
  /// sequence for every storage of the same hypothesis.
  virtual Result<data::HistogramSupport> Snapshot(int lo, int hi) = 0;
};

/// Runs fn(s) for every shard s in [0, num_shards) and returns only once
/// all shards completed. The serving layer installs a thread-pool-backed
/// runner (serve::PmwService fork-joins the shards with ForkJoin and
/// times each one); null means "loop inline in shard order", the
/// sequential configuration. Implementations may run shards in any
/// order or concurrency — per-shard work is disjoint and the combines
/// happen on the caller afterwards, so scheduling cannot change results.
using ShardRunner =
    std::function<void(int num_shards, const std::function<void(int)>& fn)>;

/// The dense per-shard MW arithmetic over a contiguous run of shards of
/// the global partition, holding one probability per element of
/// [base(), end()). The front door's kDense storage is a DenseSlice over
/// all shards; each cluster shard-group worker runs one over its group.
/// Per element: phase 1 is SafeLog(p) + eta * payoff with a per-shard
/// max, phase 2 is exp(x - global_max) with a PairwiseSum over the shard
/// range, phase 3 divides by the total. The AVX2 kernels of common/simd.h
/// carry the elementwise passes; they produce the scalar loops' bits.
/// PairwiseSum's tree depends only on range length, so a slice at any
/// base reproduces the whole-domain subtree values exactly.
class DenseSlice : public HypothesisDelegate {
 public:
  /// The uniform hypothesis D_hat_1 = 1 / domain_size restricted to
  /// `shards`, a contiguous run of PartitionDomain(domain_size, K) in
  /// domain order. Per-shard phases go through `runner` (inline when
  /// null).
  DenseSlice(int domain_size, std::vector<HypothesisShard> shards,
             ShardRunner runner = {});

  /// The owned domain range [base, end).
  int base() const { return base_; }
  int end() const { return end_; }

  /// `payoff[i - base()]` is element i's payoff. The phases never fail.
  Status Reweigh(const std::vector<double>& payoff, double eta,
                 std::vector<double>* local_max) override;
  Status PartialSums(double global_max,
                     std::vector<double>* local_sum) override;
  Status Normalize(double total) override;
  /// [lo, hi) must lie within [base(), end()).
  Result<data::HistogramSupport> Snapshot(int lo, int hi) override;

  /// Installs a checkpoint: zero-fills the slice, then writes `entries`
  /// (indices within [base(), end())). Fed a Snapshot of the whole
  /// slice, this rebuilds it byte for byte, because the update
  /// arithmetic produces no non-positive value other than +0.0.
  void Restore(const data::HistogramSupport& entries);

 private:
  std::vector<HypothesisShard> shards_;
  ShardRunner runner_;
  int base_ = 0;
  int end_ = 0;
  /// Probabilities and the reusable update scratch (log-weights, then
  /// unnormalized weights); element i lives at index i - base_.
  std::vector<double> p_;
  std::vector<double> scratch_;
};

class ShardedHypothesis {
 public:
  /// The uniform hypothesis over `size` elements (the paper's D_hat_1)
  /// in `shards` domain shards — rounded down to a power of two and
  /// clamped to [1, size] (values < 1 included: 0 means "unsharded"), so
  /// every shard is a non-empty node of the fixed reduction tree.
  /// Per-shard phases and RunShards go through `runner` (inline when
  /// null). Without a delegate, `backend` selects the local storage and
  /// `sparse` configures kSparse (kDense ignores it). With a `delegate`
  /// the state lives wherever the delegate keeps it — e.g. sliced across
  /// worker processes — and `backend` must be kDense: the cluster ships
  /// probability slices, not sparse residual sets. `delegate` must
  /// outlive the hypothesis.
  explicit ShardedHypothesis(
      int size, int shards = 1, ShardRunner runner = {},
      HypothesisBackend backend = HypothesisBackend::kDense,
      const SparseHypothesisOptions& sparse = {},
      HypothesisDelegate* delegate = nullptr);

  HypothesisBackend backend() const { return backend_; }
  int size() const { return size_; }
  int num_shards() const { return static_cast<int>(shards_.size()); }
  const HypothesisShard& shard(int s) const { return shards_[s]; }
  const std::vector<HypothesisShard>& shards() const { return shards_; }
  /// Probability of element i (0.0 when it has left the support).
  double operator[](int i) const;

  /// Entries held in this process: size() under local kDense, the
  /// touched support under kSparse, 0 with a delegate (its state is
  /// materialized elsewhere). The memory-footprint observable benches
  /// report.
  long long materialized_entries() const;

  /// The strictly-positive entries, full or per shard range — same
  /// semantics as data::Histogram::CompactSupport, identical output for
  /// every storage, so epoch snapshots are storage-agnostic.
  data::HistogramSupport CompactSupport() const;
  data::HistogramSupport CompactSupport(int lo, int hi) const;

  /// A dense Histogram copy (synthetic-data release, measurement code).
  data::Histogram ToHistogram() const;

  /// The multiplicative weights update of Figure 3, sharded:
  ///   p'(x) proportional to exp(eta * payoff(x)) * p(x)
  /// computed in log-space through the storage's three phases, with the
  /// max fold and the normalizer combine run here in fixed order.
  /// Bit-identical at every shard count and — in exact mode — at either
  /// backend (see file comment). Always Ok with local storage; with a
  /// delegate a failed phase (worker unreachable after the delegate's own
  /// recovery) surfaces here with the update unapplied.
  Status MultiplicativeUpdate(const std::vector<double>& payoff, double eta);

  /// Runs fn(s) over every shard through the runner (inline in shard
  /// order without one): the entry point for callers with their own
  /// per-shard work over this partition — PmwCm's dual-certificate payoff
  /// loop.
  void RunShards(const std::function<void(int)>& fn) const;

 private:
  /// kSparse storage (sharded_hypothesis.cc).
  class SparseShards;

  /// Folds the per-shard partial sums up the fixed reduction tree:
  /// combines shards [lo, hi) by the same halving that generated the
  /// partition, so the result equals PairwiseSum over the whole range.
  double CombineShardSums(int lo, int hi) const;

  int size_ = 0;
  HypothesisBackend backend_ = HypothesisBackend::kDense;
  std::vector<HypothesisShard> shards_;
  ShardRunner runner_;
  /// The local storage (a DenseSlice or the sparse shards); null under a
  /// delegate.
  std::unique_ptr<HypothesisDelegate> local_;
  /// local_ when it is the sparse storage, for its footprint.
  const SparseShards* sparse_ = nullptr;
  /// What MultiplicativeUpdate and CompactSupport drive: local_ or the
  /// installed delegate.
  HypothesisDelegate* storage_ = nullptr;
};

}  // namespace core
}  // namespace pmw

#endif  // PMWCM_CORE_SHARDED_HYPOTHESIS_H_
