// The sharding-invariance contract of core::ShardedHypothesis: at ANY
// power-of-two shard count the MW update produces the exact K = 1
// doubles — the bit-level foundation under the serving layer's
// "transcripts are identical at every (shards x threads) configuration"
// guarantee. Also covers the partition rules (power-of-two rounding,
// size clamping) and per-shard compactions that tile the full support.

#include "core/sharded_hypothesis.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <thread>
#include <vector>

#include "common/math_util.h"
#include "common/random.h"
#include "data/histogram.h"
#include "gtest/gtest.h"

namespace pmw {
namespace core {
namespace {

bool SameBits(double a, double b) {
  uint64_t ab, bb;
  std::memcpy(&ab, &a, sizeof(ab));
  std::memcpy(&bb, &b, sizeof(bb));
  return ab == bb;
}

std::vector<double> RandomPayoff(int size, Rng* rng) {
  std::vector<double> payoff(static_cast<size_t>(size));
  for (double& value : payoff) value = rng->Gaussian(0.0, 1.0);
  return payoff;
}

TEST(ShardedHypothesisTest, UpdateIsBitIdenticalAtEveryShardCount) {
  // Odd, non-power-of-two sizes included: the fixed reduction tree must
  // decompose exactly even when halving produces unequal shards.
  for (int size : {5, 16, 33, 128, 1000}) {
    ShardedHypothesis reference(size);
    ASSERT_EQ(reference.num_shards(), 1);
    std::vector<ShardedHypothesis> sharded;
    for (int shards : {2, 4, 8}) sharded.emplace_back(size, shards);

    Rng rng(900 + static_cast<uint64_t>(size));
    for (int round = 0; round < 20; ++round) {
      const std::vector<double> payoff = RandomPayoff(size, &rng);
      const double eta = rng.Uniform(-2.0, 2.0);
      reference.MultiplicativeUpdate(payoff, eta);
      for (ShardedHypothesis& hypothesis : sharded) {
        hypothesis.MultiplicativeUpdate(payoff, eta);
        for (int i = 0; i < size; ++i) {
          ASSERT_TRUE(SameBits(reference[i], hypothesis[i]))
              << "size=" << size << " shards=" << hypothesis.num_shards()
              << " round=" << round << " index=" << i;
        }
      }
    }
  }
}

TEST(ShardedHypothesisTest, UpdateIsBitIdenticalUnderAConcurrentRunner) {
  // A deliberately adversarial runner: every shard on its own thread,
  // completion order scrambled. Per-shard work is disjoint and combines
  // are fixed-order on the caller, so the bits cannot move.
  constexpr int kSize = 257;
  ShardedHypothesis reference(kSize);
  std::atomic<int> sections{0};
  ShardedHypothesis threaded(
      kSize, 4, [&sections](int shards, const std::function<void(int)>& fn) {
        ++sections;
        std::vector<std::thread> workers;
        for (int s = shards - 1; s >= 0; --s) {
          workers.emplace_back([&fn, s] { fn(s); });
        }
        for (std::thread& worker : workers) worker.join();
      });

  Rng rng(4242);
  for (int round = 0; round < 10; ++round) {
    const std::vector<double> payoff = RandomPayoff(kSize, &rng);
    const double eta = rng.Uniform(-1.5, 1.5);
    reference.MultiplicativeUpdate(payoff, eta);
    threaded.MultiplicativeUpdate(payoff, eta);
    for (int i = 0; i < kSize; ++i) {
      ASSERT_TRUE(SameBits(reference[i], threaded[i]))
          << "round=" << round << " index=" << i;
    }
  }
  // 3 parallel phases per update.
  EXPECT_EQ(sections.load(), 30);
}

TEST(ShardedHypothesisTest, ShardCountRoundsDownAndClamps) {
  EXPECT_EQ(ShardedHypothesis(16, 0).num_shards(), 1);  // 0: unsharded
  EXPECT_EQ(ShardedHypothesis(16, 1).num_shards(), 1);
  EXPECT_EQ(ShardedHypothesis(16, 2).num_shards(), 2);
  EXPECT_EQ(ShardedHypothesis(16, 3).num_shards(), 2);  // round down
  EXPECT_EQ(ShardedHypothesis(16, 4).num_shards(), 4);
  EXPECT_EQ(ShardedHypothesis(16, 7).num_shards(), 4);
  EXPECT_EQ(ShardedHypothesis(16, 64).num_shards(), 16);  // clamp to size

  // Shards partition [0, size) contiguously, every one non-empty.
  const ShardedHypothesis hypothesis(16, 4);
  int expected_lo = 0;
  for (const HypothesisShard& shard : hypothesis.shards()) {
    EXPECT_EQ(shard.lo, expected_lo);
    EXPECT_GT(shard.size(), 0);
    expected_lo = shard.hi;
  }
  EXPECT_EQ(expected_lo, hypothesis.size());
}

TEST(ShardedHypothesisTest, ShardSupportsConcatenateToTheFullSupport) {
  constexpr int kSize = 37;
  ShardedHypothesis hypothesis(kSize, 4);
  Rng rng(7);
  hypothesis.MultiplicativeUpdate(RandomPayoff(kSize, &rng), 0.8);

  const data::HistogramSupport full = hypothesis.CompactSupport();
  data::HistogramSupport stitched;
  for (const HypothesisShard& shard : hypothesis.shards()) {
    for (const auto& entry : hypothesis.CompactSupport(shard.lo, shard.hi)) {
      stitched.push_back(entry);
    }
  }
  ASSERT_EQ(stitched.size(), full.size());
  for (size_t i = 0; i < full.size(); ++i) {
    EXPECT_EQ(stitched[i].first, full[i].first);
    EXPECT_TRUE(SameBits(stitched[i].second, full[i].second));
  }
}

std::vector<double> SparsePayoff(int size, Rng* rng) {
  // Mostly-zero payoffs, the regime the sparse backend exists for. Both
  // zero signs appear: exact mode must treat -0.0 as untouched too (the
  // dense side adds eta * -0.0, which cannot move any log-weight).
  std::vector<double> payoff(static_cast<size_t>(size), 0.0);
  for (double& value : payoff) {
    const double coin = rng->Uniform(0.0, 1.0);
    if (coin < 0.2) {
      value = rng->Gaussian(0.0, 1.0);
    } else if (coin < 0.25) {
      value = -0.0;
    }
  }
  return payoff;
}

TEST(ShardedHypothesisTest, SparseExactModeIsBitIdenticalToDense) {
  // The tentpole contract: with exact-mode defaults the sparse backend
  // is indistinguishable from dense at the bit level — every entry,
  // every compacted support, at every shard count — while materializing
  // only the payoff-touched support.
  for (int size : {5, 16, 33, 128, 1000}) {
    for (int shards : {1, 2, 4, 8}) {
      ShardedHypothesis dense(size, shards);
      ShardedHypothesis sparse(size, shards, nullptr,
                               HypothesisBackend::kSparse);
      ASSERT_EQ(sparse.num_shards(), dense.num_shards());
      EXPECT_EQ(sparse.materialized_entries(), 0);

      Rng rng(3100 + static_cast<uint64_t>(size) * 8 +
              static_cast<uint64_t>(shards));
      for (int round = 0; round < 12; ++round) {
        const std::vector<double> payoff = SparsePayoff(size, &rng);
        const double eta = rng.Uniform(-2.0, 2.0);
        dense.MultiplicativeUpdate(payoff, eta);
        sparse.MultiplicativeUpdate(payoff, eta);
        for (int i = 0; i < size; ++i) {
          ASSERT_TRUE(SameBits(dense[i], sparse[i]))
              << "size=" << size << " shards=" << shards
              << " round=" << round << " index=" << i;
        }
      }
      EXPECT_LE(sparse.materialized_entries(), size);

      const data::HistogramSupport dense_support = dense.CompactSupport();
      const data::HistogramSupport sparse_support = sparse.CompactSupport();
      ASSERT_EQ(sparse_support.size(), dense_support.size());
      for (size_t i = 0; i < dense_support.size(); ++i) {
        EXPECT_EQ(sparse_support[i].first, dense_support[i].first);
        EXPECT_TRUE(
            SameBits(sparse_support[i].second, dense_support[i].second));
      }
      for (const HypothesisShard& shard : sparse.shards()) {
        const data::HistogramSupport dense_range =
            dense.CompactSupport(shard.lo, shard.hi);
        const data::HistogramSupport sparse_range =
            sparse.CompactSupport(shard.lo, shard.hi);
        ASSERT_EQ(sparse_range.size(), dense_range.size());
        for (size_t i = 0; i < dense_range.size(); ++i) {
          EXPECT_EQ(sparse_range[i].first, dense_range[i].first);
          EXPECT_TRUE(
              SameBits(sparse_range[i].second, dense_range[i].second));
        }
      }
    }
  }
}

TEST(ShardedHypothesisTest, SparseMaterializesOnlyTheTouchedSupport) {
  constexpr int kSize = 4096;
  ShardedHypothesis sparse(kSize, 4, nullptr, HypothesisBackend::kSparse);

  // Touch 3 indices; everything else is (eta * 0)-untouched and must
  // stay on the shared per-shard residual, not in materialized storage.
  std::vector<double> payoff(kSize, 0.0);
  payoff[7] = 1.5;
  payoff[2048] = -0.75;
  payoff[4095] = 0.25;
  sparse.MultiplicativeUpdate(payoff, 0.9);
  EXPECT_EQ(sparse.materialized_entries(), 3);

  // Untouched entries all share one value per shard (uniform residual).
  const double untouched = sparse[1];
  for (int i : {0, 2, 100, 1000, 3000, 4000}) {
    EXPECT_TRUE(SameBits(sparse[i], untouched)) << "index=" << i;
  }
  EXPECT_FALSE(SameBits(sparse[7], untouched));

  // A second update touching one more index grows the support by one.
  std::vector<double> second(kSize, 0.0);
  second[9] = 0.5;
  sparse.MultiplicativeUpdate(second, 0.9);
  EXPECT_EQ(sparse.materialized_entries(), 4);
}

TEST(ShardedHypothesisTest, PayoffThresholdKeepsSmallPayoffsUntouched) {
  constexpr int kSize = 64;
  SparseHypothesisOptions options;
  options.payoff_threshold = 0.1;
  ShardedHypothesis sparse(kSize, 2, nullptr, HypothesisBackend::kSparse,
                           options);

  // Every payoff under the threshold: nothing materializes and the
  // hypothesis stays exactly uniform (all weights move together).
  Rng rng(77);
  std::vector<double> payoff(kSize);
  for (double& value : payoff) value = rng.Uniform(-0.1, 0.1);
  sparse.MultiplicativeUpdate(payoff, 1.0);
  EXPECT_EQ(sparse.materialized_entries(), 0);
  for (int i = 0; i < kSize; ++i) {
    ASSERT_TRUE(SameBits(sparse[i], sparse[0])) << "index=" << i;
  }

  // One payoff over the threshold materializes exactly that entry.
  payoff[13] = 0.5;
  sparse.MultiplicativeUpdate(payoff, 1.0);
  EXPECT_EQ(sparse.materialized_entries(), 1);
  EXPECT_FALSE(SameBits(sparse[13], sparse[0]));
}

TEST(ShardedHypothesisTest, SampledNormalizerIsDeterministicAndBounded) {
  // Approx mode's equivalence oracle. The sampled normalizer rescales
  // every entry by the SAME estimated Z-hat, so relative to the exact
  // dense run the approx distribution differs by one common factor per
  // round: per-index ratios stay (nearly) constant and the total mass
  // stays near 1. And the seed schedule is deterministic: same seed ->
  // bit-identical replay; different seed -> different draws.
  constexpr int kSize = 512;
  constexpr int kRounds = 6;
  SparseHypothesisOptions options;
  options.sampled_normalizer = true;
  options.normalizer_samples = 256;
  options.seed = 42;

  ShardedHypothesis dense(kSize, 4);
  ShardedHypothesis approx(kSize, 4, nullptr, HypothesisBackend::kSparse,
                           options);
  ShardedHypothesis replay(kSize, 4, nullptr, HypothesisBackend::kSparse,
                           options);
  SparseHypothesisOptions reseeded = options;
  reseeded.seed = 43;
  ShardedHypothesis other_seed(kSize, 4, nullptr, HypothesisBackend::kSparse,
                               reseeded);

  Rng rng(2026);
  bool seed_matters = false;
  for (int round = 0; round < kRounds; ++round) {
    std::vector<double> payoff(kSize);
    for (double& value : payoff) value = rng.Gaussian(0.0, 1.0);
    const double eta = 0.1;
    dense.MultiplicativeUpdate(payoff, eta);
    approx.MultiplicativeUpdate(payoff, eta);
    replay.MultiplicativeUpdate(payoff, eta);
    other_seed.MultiplicativeUpdate(payoff, eta);
    for (int i = 0; i < kSize; ++i) {
      ASSERT_TRUE(SameBits(approx[i], replay[i]))
          << "round=" << round << " index=" << i;
      if (!SameBits(approx[i], other_seed[i])) seed_matters = true;
    }
  }
  EXPECT_TRUE(seed_matters);

  double l1 = 0.0, mass = 0.0;
  double min_ratio = 1e300, max_ratio = 0.0;
  for (int i = 0; i < kSize; ++i) {
    l1 += std::abs(approx[i] - dense[i]);
    mass += approx[i];
    const double ratio = approx[i] / dense[i];
    min_ratio = std::min(min_ratio, ratio);
    max_ratio = std::max(max_ratio, ratio);
  }
  EXPECT_LT(l1, 0.15);
  EXPECT_NEAR(mass, 1.0, 0.15);
  // One common rescale per round: the per-index ratio band is tight.
  EXPECT_LT(max_ratio - min_ratio, 1e-9);
}

TEST(ShardedHypothesisTest, PairwiseSumDecomposesAtEverySplit) {
  // The primitive under the normalizer: sum(lo, hi) must equal
  // sum(lo, mid) + sum(mid, hi) for the tree's own split point, at
  // every node — checked here for the root of assorted sizes.
  Rng rng(11);
  for (size_t n : {1u, 2u, 3u, 7u, 16u, 33u, 1024u, 1000u}) {
    std::vector<double> v(n);
    for (double& x : v) x = rng.Gaussian(0.0, 1.0);
    const double whole = PairwiseSum(v.data(), 0, n);
    if (n >= 2) {
      const size_t mid = n / 2;
      const double halves =
          PairwiseSum(v.data(), 0, mid) + PairwiseSum(v.data(), mid, n);
      EXPECT_TRUE(SameBits(whole, halves)) << "n=" << n;
    }
  }
}

}  // namespace
}  // namespace core
}  // namespace pmw
