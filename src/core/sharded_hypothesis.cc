#include "core/sharded_hypothesis.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <random>
#include <unordered_map>
#include <utility>

#include "common/check.h"
#include "common/math_util.h"
#include "common/simd.h"

namespace pmw {
namespace core {
namespace {

/// Recursive halving with PairwiseSum's split rule: after `levels`
/// splits every emitted range is a depth-`levels` node of the fixed
/// reduction tree over [lo, hi).
void SplitRange(int lo, int hi, int levels,
                std::vector<HypothesisShard>* out) {
  if (levels == 0) {
    HypothesisShard shard;
    shard.lo = lo;
    shard.hi = hi;
    out->push_back(shard);
    return;
  }
  const int mid = lo + (hi - lo) / 2;
  SplitRange(lo, mid, levels - 1, out);
  SplitRange(mid, hi, levels - 1, out);
}

/// The one shard dispatch: fn(s) for every shard through `runner`, or
/// inline in shard order without one (or with a single shard).
void ForEachShard(const ShardRunner& runner,
                  const std::vector<HypothesisShard>& shards,
                  const std::function<void(int)>& fn) {
  const int num_shards = static_cast<int>(shards.size());
  if (runner != nullptr && num_shards > 1) {
    runner(num_shards, fn);
    return;
  }
  for (int s = 0; s < num_shards; ++s) fn(s);
}

/// PairwiseSum over n copies of the same value w, without materializing
/// them: the fixed tree's shape depends only on the range length (left
/// child floor(n/2), right child n - floor(n/2)), so the subtree value
/// over any all-w range of length n is S(n) with
///   S(1) = w,  S(2) = w + w,  S(n) = S(floor(n/2)) + S(n - floor(n/2))
/// — bit-identical to the dense fold by induction on the tree. Each
/// level contributes at most two distinct lengths, so the memo keeps the
/// recursion O(log n).
double ReplicatedSum(int n, double w, std::unordered_map<int, double>* memo) {
  if (n == 0) return 0.0;
  if (n == 1) return w;
  if (n == 2) return w + w;
  const auto it = memo->find(n);
  if (it != memo->end()) return it->second;
  const int half = n / 2;
  const double sum =
      ReplicatedSum(half, w, memo) + ReplicatedSum(n - half, w, memo);
  memo->emplace(n, sum);
  return sum;
}

/// FNV-1a over the (seed, update index, shard index) triple: the
/// sampled-normalizer seed schedule. A pure function of its inputs, so
/// replays with the same options regenerate identical draw sequences.
uint64_t SampleSeed(uint64_t seed, uint64_t update, uint64_t shard) {
  uint64_t hash = 1469598103934665603ull;
  const auto mix = [&hash](uint64_t value) {
    hash ^= value;
    hash *= 1099511628211ull;
  };
  mix(seed);
  mix(update);
  mix(shard);
  return hash;
}

}  // namespace

std::vector<HypothesisShard> PartitionDomain(int size, int shards) {
  PMW_CHECK_GE(size, 1);
  if (shards < 1) shards = 1;
  // Largest power of two <= min(shards, size): every shard must be a
  // reduction-tree node (power-of-two count) and non-empty (<= size).
  int levels = 0;
  while ((2 << levels) <= shards && (2 << levels) <= size) ++levels;
  std::vector<HypothesisShard> out;
  SplitRange(0, size, levels, &out);
  return out;
}

// --- DenseSlice --------------------------------------------------------

DenseSlice::DenseSlice(int domain_size, std::vector<HypothesisShard> shards,
                       ShardRunner runner)
    : shards_(std::move(shards)), runner_(std::move(runner)) {
  PMW_CHECK_GE(domain_size, 1);
  PMW_CHECK(!shards_.empty());
  base_ = shards_.front().lo;
  end_ = shards_.back().hi;
  const size_t n = static_cast<size_t>(end_ - base_);
  p_.assign(n, 1.0 / domain_size);
  scratch_.assign(n, 0.0);
}

Status DenseSlice::Reweigh(const std::vector<double>& payoff, double eta,
                           std::vector<double>* local_max) {
  PMW_CHECK_EQ(payoff.size(), p_.size());
  local_max->assign(shards_.size(), 0.0);
  // Log-weights and the shard-local max. Split into a scalar log pass
  // (libm stays per-element) and a vectorizable axpy+max pass: per
  // element the same two IEEE ops in the same order as a fused loop
  // (t = SafeLog(p); t + eta * payoff), so the split changes no bits;
  // the kernel's max-fold reorder is downstream-exact (common/simd.h).
  ForEachShard(runner_, shards_, [&](int s) {
    const HypothesisShard& shard = shards_[static_cast<size_t>(s)];
    const size_t lo = static_cast<size_t>(shard.lo - base_);
    const size_t n = static_cast<size_t>(shard.size());
    for (size_t i = lo; i < lo + n; ++i) {
      scratch_[i] = SafeLog(p_[i]);
    }
    double shard_max = -std::numeric_limits<double>::infinity();
    simd::AxpyMax(scratch_.data() + lo, payoff.data() + lo, eta, n,
                  &shard_max);
    (*local_max)[static_cast<size_t>(s)] = shard_max;
  });
  return Status::Ok();
}

Status DenseSlice::PartialSums(double global_max,
                               std::vector<double>* local_sum) {
  local_sum->assign(shards_.size(), 0.0);
  // Stabilized weights and the shard's subtree sum. The subtract
  // vectorizes (elementwise, exact); std::exp stays scalar per element;
  // PairwiseSum's 4/8-leaf nodes vectorize inside the fixed tree
  // (common/simd.h), so the association — and the transcript — is
  // unchanged.
  ForEachShard(runner_, shards_, [&](int s) {
    const HypothesisShard& shard = shards_[static_cast<size_t>(s)];
    const size_t lo = static_cast<size_t>(shard.lo - base_);
    const size_t n = static_cast<size_t>(shard.size());
    simd::SubScalar(scratch_.data() + lo, global_max, n);
    for (size_t i = lo; i < lo + n; ++i) {
      scratch_[i] = std::exp(scratch_[i]);
    }
    (*local_sum)[static_cast<size_t>(s)] =
        PairwiseSum(scratch_.data(), lo, lo + n);
  });
  return Status::Ok();
}

Status DenseSlice::Normalize(double total) {
  ForEachShard(runner_, shards_, [this, total](int s) {
    const HypothesisShard& shard = shards_[static_cast<size_t>(s)];
    const size_t lo = static_cast<size_t>(shard.lo - base_);
    simd::DivScalarTo(p_.data() + lo, scratch_.data() + lo, total,
                      static_cast<size_t>(shard.size()));
  });
  return Status::Ok();
}

Result<data::HistogramSupport> DenseSlice::Snapshot(int lo, int hi) {
  PMW_CHECK(base_ <= lo && lo <= hi && hi <= end_);
  const size_t begin = static_cast<size_t>(lo - base_);
  const size_t end = static_cast<size_t>(hi - base_);
  size_t support_size = 0;
  for (size_t i = begin; i < end; ++i) {
    if (p_[i] > 0.0) ++support_size;
  }
  data::HistogramSupport support;
  support.reserve(support_size);
  for (size_t i = begin; i < end; ++i) {
    if (p_[i] > 0.0) {
      support.emplace_back(base_ + static_cast<int>(i), p_[i]);
    }
  }
  return support;
}

void DenseSlice::Restore(const data::HistogramSupport& entries) {
  std::fill(p_.begin(), p_.end(), 0.0);
  for (const auto& [index, value] : entries) {
    PMW_CHECK(base_ <= index && index < end_);
    p_[static_cast<size_t>(index - base_)] = value;
  }
}

// --- Sparse storage ----------------------------------------------------

class ShardedHypothesis::SparseShards : public HypothesisDelegate {
 public:
  SparseShards(int size, std::vector<HypothesisShard> shards,
               ShardRunner runner, const SparseHypothesisOptions& options)
      : shards_(std::move(shards)),
        runner_(std::move(runner)),
        options_(options),
        state_(shards_.size()) {
    PMW_CHECK_GE(options_.payoff_threshold, 0.0);
    if (options_.sampled_normalizer) {
      PMW_CHECK_GE(options_.normalizer_samples, 1);
    }
    // The pristine hypothesis is uniform: every entry on the residual.
    for (State& ss : state_) ss.residual = 1.0 / size;
  }

  Status Reweigh(const std::vector<double>& payoff, double eta,
                 std::vector<double>* local_max) override;
  Status PartialSums(double global_max,
                     std::vector<double>* local_sum) override;
  Status Normalize(double total) override;
  Result<data::HistogramSupport> Snapshot(int lo, int hi) override;

  long long materialized_entries() const {
    long long total = 0;
    for (const State& ss : state_) total += ss.touched.size();
    return total;
  }

 private:
  /// One shard's storage plus the per-update scratch the three phases
  /// hand each other (owned per shard, so phases running on different
  /// threads stay disjoint).
  struct State {
    /// Sorted absolute indices whose probability diverged from the
    /// residual, and their probabilities (parallel arrays).
    std::vector<int> touched;
    std::vector<double> value;
    /// The shared probability of every untouched index in the shard
    /// (0.0 when the shard is fully materialized).
    double residual = 0.0;

    // --- per-update scratch ---
    std::vector<int> next_touched;
    std::vector<double> logw;
    std::vector<double> weight;
    double untouched_logw = 0.0;
    double untouched_weight = 0.0;
    int untouched_count = 0;
  };

  /// The shard index owning domain element i.
  int ShardOf(int i) const {
    // Shards are in domain order; find the first with hi > i.
    const auto it = std::upper_bound(
        shards_.begin(), shards_.end(), i,
        [](int lhs, const HypothesisShard& rhs) { return lhs < rhs.hi; });
    return static_cast<int>(it - shards_.begin());
  }

  std::vector<HypothesisShard> shards_;
  ShardRunner runner_;
  SparseHypothesisOptions options_;
  std::vector<State> state_;
  /// Updates applied so far: indexes the sampled-normalizer schedule.
  uint64_t updates_ = 0;
};

Status ShardedHypothesis::SparseShards::Reweigh(
    const std::vector<double>& payoff, double eta,
    std::vector<double>* local_max) {
  local_max->assign(shards_.size(), 0.0);
  const double threshold = options_.payoff_threshold;
  // The new touched set and its log-weights, plus the shard-local max.
  // An entry joins the touched set when it was already touched (its
  // probability diverged from the residual — the normalizer will move it
  // again) or its payoff exceeds the threshold; every other entry shares
  // the single untouched log-weight SafeLog(residual) + eta * 0.0, which
  // equals the dense phase-1 value bit-for-bit (x + eta * 0.0 == x in
  // IEEE for the x SafeLog returns).
  ForEachShard(runner_, shards_, [&](int s) {
    const HypothesisShard& shard = shards_[static_cast<size_t>(s)];
    State& ss = state_[static_cast<size_t>(s)];
    ss.next_touched.clear();
    ss.logw.clear();
    double shard_max = -std::numeric_limits<double>::infinity();
    size_t ptr = 0;
    int untouched = 0;
    for (int i = shard.lo; i < shard.hi; ++i) {
      const bool was_touched =
          ptr < ss.touched.size() && ss.touched[ptr] == i;
      const double pay = payoff[static_cast<size_t>(i)];
      if (!was_touched && std::abs(pay) <= threshold) {
        ++untouched;
        continue;
      }
      const double base = was_touched ? ss.value[ptr] : ss.residual;
      if (was_touched) ++ptr;
      const double lw = SafeLog(base) + eta * pay;
      ss.next_touched.push_back(i);
      ss.logw.push_back(lw);
      shard_max = std::max(shard_max, lw);
    }
    ss.untouched_count = untouched;
    ss.untouched_logw = SafeLog(ss.residual) + eta * 0.0;
    if (untouched > 0) shard_max = std::max(shard_max, ss.untouched_logw);
    (*local_max)[static_cast<size_t>(s)] = shard_max;
  });
  return Status::Ok();
}

Status ShardedHypothesis::SparseShards::PartialSums(
    double global_max, std::vector<double>* local_sum) {
  local_sum->assign(shards_.size(), 0.0);
  // Stabilized weights and the shard's subtree sum — exact fixed-tree
  // fold, or the sampled estimator in approx mode.
  ForEachShard(runner_, shards_, [&](int s) {
    const HypothesisShard& shard = shards_[static_cast<size_t>(s)];
    State& ss = state_[static_cast<size_t>(s)];
    double& shard_sum = (*local_sum)[static_cast<size_t>(s)];
    // Same split as the dense phase 2: vector subtract (elementwise,
    // exact), scalar exp per element.
    ss.weight = ss.logw;
    simd::SubScalar(ss.weight.data(), global_max, ss.weight.size());
    for (size_t j = 0; j < ss.weight.size(); ++j) {
      ss.weight[j] = std::exp(ss.weight[j]);
    }
    ss.untouched_weight = std::exp(ss.untouched_logw - global_max);

    if (options_.sampled_normalizer) {
      // Z_hat = (n / m) * sum of m uniform draws' weights. Deterministic:
      // the generator is a pure function of (seed, update, shard).
      const int n = shard.size();
      const int m = std::min(options_.normalizer_samples, n);
      std::mt19937_64 gen(
          SampleSeed(options_.seed, updates_, static_cast<uint64_t>(s)));
      std::vector<double> samples(static_cast<size_t>(m));
      for (int j = 0; j < m; ++j) {
        const int idx =
            shard.lo + static_cast<int>(gen() % static_cast<uint64_t>(n));
        const auto it = std::lower_bound(ss.next_touched.begin(),
                                         ss.next_touched.end(), idx);
        samples[static_cast<size_t>(j)] =
            (it != ss.next_touched.end() && *it == idx)
                ? ss.weight[static_cast<size_t>(it - ss.next_touched.begin())]
                : ss.untouched_weight;
      }
      shard_sum = PairwiseSum(samples.data(), 0, samples.size()) *
                  (static_cast<double>(n) / m);
      return;
    }

    // Exact: evaluate the shard's subtree of the fixed reduction tree.
    // Touched leaves are looked up by position in the sorted set;
    // all-untouched subtrees collapse to the memoized replicated sum;
    // fully-touched subtrees are contiguous in `weight`, so PairwiseSum
    // over that slice IS the subtree (same split rule, same leaves).
    // O(touched * log n + log^2 n) per shard.
    std::unordered_map<int, double> memo;
    const std::function<double(int, int, size_t, size_t)> tree_sum =
        [&](int lo, int hi, size_t t0, size_t t1) -> double {
      const int n = hi - lo;
      if (t0 == t1) return ReplicatedSum(n, ss.untouched_weight, &memo);
      if (static_cast<size_t>(n) == t1 - t0) {
        return PairwiseSum(ss.weight.data(), t0, t1);
      }
      const int mid = lo + n / 2;
      const size_t tm = static_cast<size_t>(
          std::lower_bound(ss.next_touched.begin() +
                               static_cast<std::ptrdiff_t>(t0),
                           ss.next_touched.begin() +
                               static_cast<std::ptrdiff_t>(t1),
                           mid) -
          ss.next_touched.begin());
      return tree_sum(lo, mid, t0, tm) + tree_sum(mid, hi, tm, t1);
    };
    shard_sum = tree_sum(shard.lo, shard.hi, 0, ss.next_touched.size());
  });
  return Status::Ok();
}

Status ShardedHypothesis::SparseShards::Normalize(double total) {
  // Normalize into the new touched set + residual.
  ForEachShard(runner_, shards_, [this, total](int s) {
    State& ss = state_[static_cast<size_t>(s)];
    ss.touched.swap(ss.next_touched);
    ss.value.resize(ss.weight.size());
    simd::DivScalarTo(ss.value.data(), ss.weight.data(), total,
                      ss.weight.size());
    ss.residual =
        ss.untouched_count > 0 ? ss.untouched_weight / total : 0.0;
  });
  ++updates_;
  return Status::Ok();
}

Result<data::HistogramSupport> ShardedHypothesis::SparseShards::Snapshot(
    int lo, int hi) {
  // Merge-walk each overlapping shard, emitting touched values and
  // residual-filled gaps in index order — the same (index, value)
  // sequence the dense walk produces.
  data::HistogramSupport support;
  support.reserve(static_cast<size_t>(hi - lo));
  const int num_shards = static_cast<int>(shards_.size());
  for (int s = (lo < hi) ? ShardOf(lo) : num_shards; s < num_shards; ++s) {
    const HypothesisShard& shard = shards_[static_cast<size_t>(s)];
    if (shard.lo >= hi) break;
    const State& ss = state_[static_cast<size_t>(s)];
    const int begin = std::max(lo, shard.lo);
    const int end = std::min(hi, shard.hi);
    size_t ptr = static_cast<size_t>(
        std::lower_bound(ss.touched.begin(), ss.touched.end(), begin) -
        ss.touched.begin());
    for (int i = begin; i < end; ++i) {
      double v;
      if (ptr < ss.touched.size() && ss.touched[ptr] == i) {
        v = ss.value[ptr];
        ++ptr;
      } else {
        v = ss.residual;
      }
      if (v > 0.0) support.emplace_back(i, v);
    }
  }
  return support;
}

// --- ShardedHypothesis -------------------------------------------------

ShardedHypothesis::ShardedHypothesis(int size, int shards, ShardRunner runner,
                                     HypothesisBackend backend,
                                     const SparseHypothesisOptions& sparse,
                                     HypothesisDelegate* delegate)
    : size_(size),
      backend_(backend),
      shards_(PartitionDomain(size, shards)),
      runner_(std::move(runner)) {
  if (delegate != nullptr) {
    PMW_CHECK_MSG(backend == HypothesisBackend::kDense,
                  "delegated execution requires the dense backend "
                  "(the cluster ships probability slices)");
    storage_ = delegate;
    return;
  }
  if (backend == HypothesisBackend::kDense) {
    local_ = std::make_unique<DenseSlice>(size, shards_, runner_);
  } else {
    auto sparse_shards =
        std::make_unique<SparseShards>(size, shards_, runner_, sparse);
    sparse_ = sparse_shards.get();
    local_ = std::move(sparse_shards);
  }
  storage_ = local_.get();
}

double ShardedHypothesis::operator[](int i) const {
  const data::HistogramSupport entry = CompactSupport(i, i + 1);
  return entry.empty() ? 0.0 : entry.front().second;
}

long long ShardedHypothesis::materialized_entries() const {
  if (sparse_ != nullptr) return sparse_->materialized_entries();
  return local_ != nullptr ? size_ : 0;
}

void ShardedHypothesis::RunShards(const std::function<void(int)>& fn) const {
  ForEachShard(runner_, shards_, fn);
}

data::HistogramSupport ShardedHypothesis::CompactSupport() const {
  return CompactSupport(0, size());
}

data::HistogramSupport ShardedHypothesis::CompactSupport(int lo,
                                                         int hi) const {
  PMW_CHECK_GE(lo, 0);
  PMW_CHECK_LE(lo, hi);
  PMW_CHECK_LE(hi, size());
  Result<data::HistogramSupport> support = storage_->Snapshot(lo, hi);
  PMW_CHECK_MSG(support.ok(), "hypothesis snapshot failed: "
                                  << support.status().ToString());
  return std::move(support).value();
}

data::Histogram ShardedHypothesis::ToHistogram() const {
  std::vector<double> dense(static_cast<size_t>(size_), 0.0);
  for (const auto& [index, mass] : CompactSupport()) {
    dense[static_cast<size_t>(index)] = mass;
  }
  return data::Histogram::FromWeights(std::move(dense));
}

double ShardedHypothesis::CombineShardSums(int lo, int hi) const {
  if (hi - lo == 1) return shards_[static_cast<size_t>(lo)].local_sum;
  const int mid = lo + (hi - lo) / 2;
  return CombineShardSums(lo, mid) + CombineShardSums(mid, hi);
}

Status ShardedHypothesis::MultiplicativeUpdate(
    const std::vector<double>& payoff, double eta) {
  PMW_CHECK_EQ(payoff.size(), static_cast<size_t>(size_));
  // Phase 1, then the max fold: associative, so the grouping by shards
  // is exact.
  std::vector<double> local_max;
  Status status = storage_->Reweigh(payoff, eta, &local_max);
  if (!status.ok()) return status;
  PMW_CHECK_EQ(local_max.size(), shards_.size());
  double global_max = -std::numeric_limits<double>::infinity();
  for (size_t s = 0; s < shards_.size(); ++s) {
    shards_[s].local_max = local_max[s];
    global_max = std::max(global_max, local_max[s]);
  }

  // Phase 2, then the normalizer combine: O(K), evaluates the top of the
  // fixed tree.
  std::vector<double> local_sum;
  status = storage_->PartialSums(global_max, &local_sum);
  if (!status.ok()) return status;
  PMW_CHECK_EQ(local_sum.size(), shards_.size());
  for (size_t s = 0; s < shards_.size(); ++s) {
    shards_[s].local_sum = local_sum[s];
  }
  const double total = CombineShardSums(0, num_shards());
  PMW_CHECK_GT(total, 0.0);
  return storage_->Normalize(total);
}

}  // namespace core
}  // namespace pmw
