// Bitwise-equivalence suite for the MW-update SIMD kernels.
//
// The serving contract says transcripts are bit-identical at every
// (shards x threads x backend x transport) configuration; the AVX2 hot
// loops (common/simd.h, losses/margin_kernels.h) extend that claim to
// "...x SIMD on/off". These tests pin the claim at two levels:
//
//   * Kernel level: every simd:: primitive and both hypercube margin
//     kernels produce the SAME BITS as the scalar loop they replace —
//     compared via uint64 bit patterns, not tolerances — including the
//     unaligned tail lanes (n not a multiple of 4) and the one documented
//     non-identity (the max fold may land on the other sign of zero,
//     which its only consumer exp(x - max) cannot observe).
//   * Objective level: convex::DatasetObjective, which every erm oracle
//     evaluates l_D through, reproduces the per-record row loop it
//     replaced on both its batched and its per-row path.
//   * Transcript level: the full serving stack replayed with SIMD
//     force-disabled (simd::SetEnabled(false)) matches the SIMD-enabled
//     transcript bit-for-bit across backend {dense, sparse} x shards
//     {1, 2, 4} x threads {1, 4}. The TSan CI job rebuilds this binary,
//     so the property also holds under the race detector.
//
// On hosts without AVX2 the comparisons collapse to scalar-vs-scalar;
// those tests GTEST_SKIP so a pass never overstates what was checked.

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "common/simd.h"
#include "convex/empirical_loss.h"
#include "core/pmw_cm.h"
#include "core/sharded_hypothesis.h"
#include "data/binary_universe.h"
#include "data/generators.h"
#include "data/universe.h"
#include "erm/noisy_gradient_oracle.h"
#include "gtest/gtest.h"
#include "losses/loss_family.h"
#include "losses/margin_kernels.h"
#include "losses/margin_losses.h"
#include "losses/transforms.h"
#include "serve/pmw_service.h"

namespace pmw {
namespace {

/// Restores the process-wide SIMD switch on scope exit so a failing
/// assertion cannot leak a disabled state into later tests.
class SimdToggleGuard {
 public:
  SimdToggleGuard() : prev_(simd::Enabled()) {}
  ~SimdToggleGuard() { simd::SetEnabled(prev_); }

 private:
  bool prev_;
};

uint64_t Bits(double x) {
  uint64_t u = 0;
  std::memcpy(&u, &x, sizeof(u));
  return u;
}

::testing::AssertionResult BitsEq(double got, double want) {
  if (Bits(got) == Bits(want)) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << "bit mismatch: got " << got << " (0x" << std::hex << Bits(got)
         << "), want " << want << " (0x" << Bits(want) << ")";
}

// ---------------------------------------------------------------------------
// simd:: primitives vs the scalar loops (Enabled() off IS the scalar
// loop — the kernels dispatch internally, so toggling the switch runs
// the two implementations on identical inputs).
// ---------------------------------------------------------------------------

TEST(SimdPrimitiveTest, PairwiseLeafNodesReproduceTreeAssociation) {
  SimdToggleGuard guard;
  if (!simd::Available()) GTEST_SKIP() << "AVX2 not available on this host";
  Rng rng(101);
  for (int trial = 0; trial < 200; ++trial) {
    double v[8];
    for (double& x : v) {
      // Mixed magnitudes make association errors visible: a re-ordered
      // sum of these WOULD round differently.
      x = rng.Uniform(-1.0, 1.0) * std::exp2(rng.Uniform(-30.0, 30.0));
    }
    const double want8 =
        ((v[0] + v[1]) + (v[2] + v[3])) + ((v[4] + v[5]) + (v[6] + v[7]));
    const double want4 = (v[0] + v[1]) + (v[2] + v[3]);
    simd::SetEnabled(true);
    EXPECT_TRUE(BitsEq(simd::PairwiseLeaf8(v), want8)) << "trial " << trial;
    EXPECT_TRUE(BitsEq(simd::PairwiseLeaf4(v), want4)) << "trial " << trial;
    simd::SetEnabled(false);
    EXPECT_TRUE(BitsEq(simd::PairwiseLeaf8(v), want8)) << "trial " << trial;
    EXPECT_TRUE(BitsEq(simd::PairwiseLeaf4(v), want4)) << "trial " << trial;
  }
}

TEST(SimdPrimitiveTest, AxpyMaxMatchesScalarBitwiseIncludingTails) {
  SimdToggleGuard guard;
  if (!simd::Available()) GTEST_SKIP() << "AVX2 not available on this host";
  Rng rng(202);
  // Sizes straddle the 4-lane width: below it, exact multiples, and
  // every tail remainder.
  for (size_t n : {1u, 2u, 3u, 4u, 5u, 7u, 8u, 15u, 64u, 67u}) {
    std::vector<double> dst0(n), src(n);
    for (size_t i = 0; i < n; ++i) {
      dst0[i] = rng.Uniform(-20.0, 2.0);  // SafeLog(p) territory
      src[i] = rng.Uniform(-1.0, 1.0);
    }
    const double scale = rng.Uniform(-2.0, 2.0);

    std::vector<double> want = dst0;
    double want_max = -std::numeric_limits<double>::infinity();
    simd::SetEnabled(false);
    simd::AxpyMax(want.data(), src.data(), scale, n, &want_max);

    std::vector<double> got = dst0;
    double got_max = -std::numeric_limits<double>::infinity();
    simd::SetEnabled(true);
    simd::AxpyMax(got.data(), src.data(), scale, n, &got_max);

    for (size_t i = 0; i < n; ++i) {
      EXPECT_TRUE(BitsEq(got[i], want[i])) << "n=" << n << " i=" << i;
    }
    // No +-0 ties in these inputs, so even the reorderable max fold must
    // agree bit-for-bit.
    EXPECT_TRUE(BitsEq(got_max, want_max)) << "n=" << n;
  }
}

TEST(SimdPrimitiveTest, MaxFoldSignedZeroTieIsInvisibleToExp) {
  SimdToggleGuard guard;
  if (!simd::Available()) GTEST_SKIP() << "AVX2 not available on this host";
  // The one documented freedom: when the running max ties at +-0.0, the
  // lane-reordered fold may keep the other zero. Build a slice whose
  // post-axpy values are exactly {+0.0, -0.0, negatives...} and check
  // the downstream contract directly: exp(x - max) is bit-identical for
  // every element no matter which zero won.
  std::vector<double> dst0 = {0.0, -0.0, -1.5, -3.25, 0.0, -0.0, -7.0};
  std::vector<double> src(dst0.size(), 0.0);
  const size_t n = dst0.size();

  std::vector<double> want = dst0;
  double want_max = -std::numeric_limits<double>::infinity();
  simd::SetEnabled(false);
  simd::AxpyMax(want.data(), src.data(), 0.0, n, &want_max);

  std::vector<double> got = dst0;
  double got_max = -std::numeric_limits<double>::infinity();
  simd::SetEnabled(true);
  simd::AxpyMax(got.data(), src.data(), 0.0, n, &got_max);

  EXPECT_EQ(got_max, want_max);  // numerically equal; bits may differ
  for (size_t i = 0; i < n; ++i) {
    ASSERT_TRUE(BitsEq(got[i], want[i])) << "i=" << i;
    EXPECT_TRUE(
        BitsEq(std::exp(got[i] - got_max), std::exp(want[i] - want_max)))
        << "i=" << i;
  }
}

TEST(SimdPrimitiveTest, SubScalarAndDivScalarToMatchBitwise) {
  SimdToggleGuard guard;
  if (!simd::Available()) GTEST_SKIP() << "AVX2 not available on this host";
  Rng rng(303);
  for (size_t n : {1u, 3u, 4u, 6u, 8u, 13u, 64u, 65u}) {
    std::vector<double> v0(n), src(n);
    for (size_t i = 0; i < n; ++i) {
      v0[i] = rng.Uniform(-50.0, 50.0);
      src[i] = rng.Uniform(0.0, 10.0);
    }
    const double c = rng.Uniform(0.5, 40.0);

    std::vector<double> want_sub = v0, got_sub = v0;
    std::vector<double> want_div(n), got_div(n);
    simd::SetEnabled(false);
    simd::SubScalar(want_sub.data(), c, n);
    simd::DivScalarTo(want_div.data(), src.data(), c, n);
    simd::SetEnabled(true);
    simd::SubScalar(got_sub.data(), c, n);
    simd::DivScalarTo(got_div.data(), src.data(), c, n);

    for (size_t i = 0; i < n; ++i) {
      EXPECT_TRUE(BitsEq(got_sub[i], want_sub[i])) << "n=" << n << " i=" << i;
      EXPECT_TRUE(BitsEq(got_div[i], want_div[i])) << "n=" << n << " i=" << i;
    }
  }
}

// ---------------------------------------------------------------------------
// Hypercube margin kernels vs the generic per-row loop (the exact
// fallback convex::SupportObjective runs when BatchValue declines).
// ---------------------------------------------------------------------------

/// A margin loss with no LinkKind: the kernels must run its virtual Link.
class OffsetSquaredLoss : public losses::MarginLoss {
 public:
  explicit OffsetSquaredLoss(int dim) : MarginLoss(dim) {}
  double Link(double z, double y) const override {
    return 0.5 * (z - 0.25 * y) * (z - 0.25 * y);
  }
  double LinkDerivative(double z, double y) const override {
    return z - 0.25 * y;
  }
  double lipschitz() const override { return 2.0; }
  std::string name() const override { return "offset-squared"; }
};

using Support = std::vector<std::pair<int, double>>;

class MarginKernelTest : public ::testing::Test {
 protected:
  /// BitsEq, except that any two NaNs match: a NaN's sign and payload
  /// depend on which operand the compiler put first, not on the kernels.
  static ::testing::AssertionResult SameBits(double got, double want) {
    if (std::isnan(got) && std::isnan(want)) {
      return ::testing::AssertionSuccess();
    }
    return BitsEq(got, want);
  }

  /// The generic path: materialize the (optionally transformed) row and
  /// go through the base margin loss's virtual Value/AddGradient,
  /// accumulating in entry order — exactly SupportObjective's fallback
  /// loop.
  static data::Row Transformed(const data::Universe& universe, int index,
                               const std::vector<int>* flips,
                               int label_flip) {
    data::Row row = universe.row(index);
    if (flips != nullptr) {
      for (size_t j = 0; j < row.features.size(); ++j) {
        row.features[j] = static_cast<double>((*flips)[j]) * row.features[j];
      }
    }
    row.label = static_cast<double>(label_flip) * row.label;
    return row;
  }

  /// Checks one loss's BatchValue/BatchAddGradient (the kernels' two entry
  /// points) against the generic loop, with SIMD off and on. `flips` and
  /// `label_flip` describe the transform `loss` applies to `base`.
  static void CheckLoss(const convex::LossFunction& loss,
                        const losses::MarginLoss& base,
                        const std::vector<int>* flips, int label_flip,
                        const data::Universe& universe,
                        const convex::Vec& theta, const Support& entries,
                        const std::string& context) {
    double want = 0.0;
    convex::Vec want_grad(theta.size(), 0.0);
    for (const auto& [index, mass] : entries) {
      const data::Row row = Transformed(universe, index, flips, label_flip);
      want += mass * base.Value(theta, row);
      base.AddGradient(theta, row, mass, &want_grad);
    }
    SimdToggleGuard guard;
    for (bool simd_on : {false, true}) {
      if (simd_on && !simd::Available()) continue;
      simd::SetEnabled(simd_on);
      const std::string where = context + " " + loss.name() +
                                (simd_on ? " [simd on]" : " [simd off]");
      double acc = 0.0;
      ASSERT_TRUE(loss.BatchValue(theta, universe, entries.data(),
                                  entries.size(), &acc))
          << where;
      EXPECT_TRUE(SameBits(acc, want)) << where;
      convex::Vec grad(theta.size(), 0.0);
      ASSERT_TRUE(loss.BatchAddGradient(theta, universe, entries.data(),
                                        entries.size(), &grad))
          << where;
      for (size_t j = 0; j < grad.size(); ++j) {
        EXPECT_TRUE(SameBits(grad[j], want_grad[j])) << where << " coord " << j;
      }
    }
  }

  /// Every link kind (Huber at both an interior and a kink-hitting
  /// delta, plus a kind-less subclass), each plain and through
  /// SignFlipLoss with coordinate and label flips.
  static void CheckEveryLink(const data::Universe& universe, int dim,
                             const convex::Vec& theta, const Support& entries,
                             const std::string& context) {
    const losses::SquaredLoss squared(dim);
    const losses::LogisticLoss logistic(dim);
    const losses::HingeLoss hinge(dim);
    const losses::AbsoluteLoss absolute(dim);
    const losses::HuberLoss huber(dim, 0.7);
    const losses::HuberLoss huber_wide(dim, 2.0);
    const OffsetSquaredLoss generic(dim);
    const losses::MarginLoss* all[] = {
        &squared, &logistic, &hinge, &absolute, &huber, &huber_wide, &generic};
    std::vector<int> alternating, none(static_cast<size_t>(dim), 1);
    for (int j = 0; j < dim; ++j) alternating.push_back(j % 2 == 0 ? -1 : 1);
    for (const losses::MarginLoss* base : all) {
      CheckLoss(*base, *base, nullptr, 1, universe, theta, entries, context);
      for (const std::vector<int>* flips : {&alternating, &none}) {
        for (int label_flip : {1, -1}) {
          const losses::SignFlipLoss flipped(base, *flips, label_flip);
          CheckLoss(flipped, *base, flips, label_flip, universe, theta,
                    entries, context);
        }
      }
    }
  }

  static convex::Vec RandomTheta(int dim, Rng* rng) {
    convex::Vec theta;
    for (int j = 0; j < dim; ++j) theta.push_back(rng->Uniform(-1.0, 1.0));
    return theta;
  }

  /// Every row except those with index % 9 == 4, truncated to `count`.
  static Support GappedSupport(const data::Universe& universe, size_t count,
                               Rng* rng) {
    Support entries;
    for (int i = 0; i < universe.size() && entries.size() < count; ++i) {
      if (i % 9 == 4) continue;
      entries.emplace_back(i, rng->Uniform(0.0, 1.0));
    }
    return entries;
  }
};

TEST_F(MarginKernelTest, EveryLinkMatchesGenericRowLoopBitwise) {
  const data::LabeledHypercubeUniverse universe(5);  // |X| = 64
  Rng rng(404);
  const convex::Vec theta = RandomTheta(5, &rng);
  // Gapped supports at every count mod 4 (the quad loop's tails), and
  // ones smaller than the 2^5-entry table, which shrink it.
  for (size_t count : {1, 2, 3, 5, 6, 7, 17, 40, 53, 54, 55, 56}) {
    const Support entries = GappedSupport(universe, count, &rng);
    ASSERT_EQ(entries.size(), count);
    CheckEveryLink(universe, 5, theta, entries,
                   "d=5 count=" + std::to_string(count));
  }
}

TEST_F(MarginKernelTest, WiderAndUnlabeledUniversesMatchBitwise) {
  // d = 10 fills the prefix table exactly; d = 12 leaves two coordinates
  // to the per-lane adds; the unlabeled cube has label 0 and no label bit.
  const data::LabeledHypercubeUniverse d10(10);
  const data::LabeledHypercubeUniverse d12(12);
  const data::HypercubeUniverse unlabeled(8);
  Rng rng(405);
  for (const data::Universe* universe :
       {static_cast<const data::Universe*>(&d10),
        static_cast<const data::Universe*>(&d12),
        static_cast<const data::Universe*>(&unlabeled)}) {
    const int dim = universe->feature_dim();
    const convex::Vec theta = RandomTheta(dim, &rng);
    const size_t full = GappedSupport(*universe, universe->size(), &rng).size();
    for (size_t count : {full, full - 1, full - 2, full - 3, size_t{11}}) {
      CheckEveryLink(*universe, dim, theta,
                     GappedSupport(*universe, count, &rng),
                     universe->name() + " count=" + std::to_string(count));
    }
  }
}

TEST_F(MarginKernelTest, StridedSupportWiderThanTheTableMatchesBitwise) {
  // 2^20 rows; a ~3000-entry strided support keeps the table at 2^10 and
  // leaves nine coordinates to the per-lane adds.
  const data::LabeledHypercubeUniverse universe(19);
  Rng rng(406);
  const convex::Vec theta = RandomTheta(19, &rng);
  Support entries;
  for (int i = 5; i < universe.size(); i += 349) {
    entries.emplace_back(i, rng.Uniform(0.0, 1.0));
  }
  ASSERT_EQ(entries.size() % 4, 1u);
  CheckEveryLink(universe, 19, theta, entries, "d=19 strided");
}

TEST_F(MarginKernelTest, KinksSignedZerosAndNaNMatchBitwise) {
  const data::LabeledHypercubeUniverse d5(5);
  const data::LabeledHypercubeUniverse d10(10);
  const data::HypercubeUniverse unlabeled(8);
  for (const data::Universe* universe :
       {static_cast<const data::Universe*>(&d5),
        static_cast<const data::Universe*>(&d10),
        static_cast<const data::Universe*>(&unlabeled)}) {
    const int dim = universe->feature_dim();
    Rng rng(407);
    const Support entries = GappedSupport(*universe, universe->size(), &rng);
    // One non-zero coordinate t with t * scale == 1.0 exactly, so every
    // z is +-1.0: hinge's 1 - y * z == 0, absolute's z == y and Huber's
    // |z - y| == delta = 2 all land on their kinks.
    const double scale = std::abs(universe->row(0).features[0]);
    double t = 1.0 / scale;
    for (int step = 0; step < 16 && t * scale != 1.0; ++step) {
      t = std::nextafter(t, step % 2 == 0 ? 0.0 : 10.0);
    }
    ASSERT_EQ(t * scale, 1.0) << universe->name();
    convex::Vec kink(static_cast<size_t>(dim), 0.0);
    kink[static_cast<size_t>(dim / 2)] = t;
    CheckEveryLink(*universe, dim, kink, entries,
                   universe->name() + " z=+-1");
    // Signed zeros: -0.0 coordinates make -0.0 terms in z.
    convex::Vec zeros = RandomTheta(dim, &rng);
    for (int j = 0; j < dim; j += 2) zeros[j] = j % 4 == 0 ? 0.0 : -0.0;
    CheckEveryLink(*universe, dim, zeros, entries,
                   universe->name() + " +-0");
    // A NaN z: hinge must still pick 0 for the value and the derivative,
    // absolute's derivative must be 0.
    convex::Vec nan_theta = RandomTheta(dim, &rng);
    nan_theta[0] = std::numeric_limits<double>::quiet_NaN();
    CheckEveryLink(*universe, dim, nan_theta, entries,
                   universe->name() + " NaN");
  }
}

TEST_F(MarginKernelTest, DeclinesNonHypercubeUniversesUntouched) {
  // The false-means-fallback contract: a universe that is not a
  // (Labeled)HypercubeUniverse — or one whose dimension disagrees with
  // theta — must be declined with the accumulators untouched.
  std::vector<data::Row> rows(4);
  for (size_t i = 0; i < rows.size(); ++i) {
    rows[i].features = {0.5, -0.25, 0.125, 0.0625, -0.5};
    rows[i].label = i % 2 == 0 ? 1.0 : -1.0;
  }
  const data::VectorUniverse generic(rows, "custom");
  Rng rng(408);
  const convex::Vec theta = RandomTheta(5, &rng);
  const losses::LogisticLoss loss(5);
  const std::pair<int, double> entry{0, 0.5};
  double acc = 1.25;
  EXPECT_FALSE(losses::kernels::HypercubeMarginValue(
      loss, theta, generic, nullptr, 1, &entry, 1, &acc));
  EXPECT_TRUE(BitsEq(acc, 1.25));
  convex::Vec grad(theta.size(), 0.75);
  EXPECT_FALSE(losses::kernels::HypercubeMarginAddGradient(
      loss, theta, generic, nullptr, 1, &entry, 1, &grad));
  for (double g : grad) EXPECT_TRUE(BitsEq(g, 0.75));

  // Dimension mismatch against a REAL hypercube universe declines too.
  const data::LabeledHypercubeUniverse wider(7);
  double acc2 = 0.0;
  EXPECT_FALSE(losses::kernels::HypercubeMarginValue(
      loss, theta, wider, nullptr, 1, &entry, 1, &acc2));
}

// ---------------------------------------------------------------------------
// convex::DatasetObjective (every erm oracle's l_D) vs the record-map
// arithmetic it replaced: std::map counts, count * (1/n) weights, and the
// virtual per-row Value/AddGradient in ascending row order.
// ---------------------------------------------------------------------------

TEST(DatasetObjectiveTest, MatchesRecordMapRowLoopBitwise) {
  SimdToggleGuard guard;
  const data::LabeledHypercubeUniverse universe(5);  // |X| = 64
  const int dim = universe.dim();
  Rng rng(505);
  // Repeated records, and every row with index % 5 == 2 left unused.
  std::vector<int> indices;
  for (int i = 0; i < 700; ++i) {
    const int index = rng.UniformInt(universe.size());
    if (index % 5 != 2) indices.push_back(index);
  }
  const data::Dataset dataset(&universe, indices);
  std::map<int, int> counts;
  for (int index : indices) counts[index] += 1;
  ASSERT_LT(counts.size(), indices.size());
  ASSERT_LT(counts.size(), static_cast<size_t>(universe.size()));
  const double inv_n = 1.0 / static_cast<double>(dataset.n());
  std::vector<std::pair<int, double>> weighted;
  for (const auto& [index, count] : counts) {
    weighted.emplace_back(index, count * inv_n);
  }

  std::vector<int> flips;
  for (int j = 0; j < dim; ++j) flips.push_back(j % 3 == 0 ? -1 : 1);
  const losses::LogisticLoss logistic(dim);
  const losses::SignFlipLoss flipped(&logistic, flips, -1);
  convex::Vec center = rng.InUnitBall(dim);
  convex::ScaleInPlace(&center, 0.5);
  const losses::TikhonovLoss tikhonov(&flipped, 0.3, center);

  for (int trial = 0; trial < 4; ++trial) {
    const convex::Vec theta = rng.InUnitBall(dim);
    // The two losses take the two evaluation paths.
    double probe = 0.0;
    ASSERT_TRUE(flipped.BatchValue(theta, universe, weighted.data(),
                                   weighted.size(), &probe));
    ASSERT_FALSE(tikhonov.BatchValue(theta, universe, weighted.data(),
                                     weighted.size(), &probe));
    for (const convex::LossFunction* loss :
         {static_cast<const convex::LossFunction*>(&flipped),
          static_cast<const convex::LossFunction*>(&tikhonov)}) {
      double want = 0.0;
      convex::Vec want_grad(theta.size(), 0.0);
      for (const auto& [index, weight] : weighted) {
        want += weight * loss->Value(theta, universe.row(index));
        loss->AddGradient(theta, universe.row(index), weight, &want_grad);
      }
      for (bool simd_on : {false, true}) {
        if (simd_on && !simd::Available()) continue;
        simd::SetEnabled(simd_on);
        const std::string where = loss->name() + " trial " +
                                  std::to_string(trial) +
                                  (simd_on ? " [simd on]" : " [simd off]");
        const convex::DatasetObjective objective(loss, &dataset);
        EXPECT_TRUE(BitsEq(objective.Value(theta), want)) << where;
        const convex::Vec grad = objective.Gradient(theta);
        ASSERT_EQ(grad.size(), want_grad.size()) << where;
        for (size_t j = 0; j < grad.size(); ++j) {
          EXPECT_TRUE(BitsEq(grad[j], want_grad[j])) << where << " coord " << j;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Transcript property: SIMD on/off x backend {dense, sparse} x shards
// {1, 2, 4} x threads {1, 4} — the end-to-end form of the bit-identity
// claim, through the full serving stack.
// ---------------------------------------------------------------------------

struct Transcript {
  std::vector<Result<convex::Vec>> answers;
  std::string ledger_report;
  int update_count = 0;
  long long queries_answered = 0;
};

core::PmwOptions PracticalOptions() {
  core::PmwOptions options;
  options.alpha = 0.15;
  options.beta = 0.05;
  options.privacy = {2.0, 1e-6};
  options.scale = 2.0;
  options.max_queries = 400;
  options.override_updates = 12;
  return options;
}

Transcript RunServe(const data::Dataset& dataset,
                    const std::vector<convex::CmQuery>& workload,
                    uint64_t seed, int num_shards, int num_threads,
                    core::HypothesisBackend backend, bool simd_on) {
  SimdToggleGuard guard;
  simd::SetEnabled(simd_on);
  erm::NoisyGradientOracle oracle;
  serve::ServeOptions serve_options;
  serve_options.num_threads = num_threads;
  serve_options.num_shards = num_shards;
  serve_options.hypothesis_backend = backend;
  serve::PmwService service(&dataset, &oracle, PracticalOptions(), seed,
                            serve_options);
  Transcript t;
  for (size_t start = 0; start < workload.size(); start += 16) {
    const size_t count = std::min<size_t>(16, workload.size() - start);
    std::span<const convex::CmQuery> batch(&workload[start], count);
    for (auto& result : service.AnswerBatch(batch)) {
      t.answers.push_back(std::move(result));
    }
  }
  t.ledger_report = service.mechanism().ledger().Report();
  t.update_count = service.mechanism().update_count();
  t.queries_answered = service.mechanism().queries_answered();
  return t;
}

void ExpectIdentical(const Transcript& got, const Transcript& want,
                     const std::string& context) {
  ASSERT_EQ(got.answers.size(), want.answers.size()) << context;
  for (size_t j = 0; j < want.answers.size(); ++j) {
    ASSERT_EQ(got.answers[j].ok(), want.answers[j].ok())
        << context << " status diverged at query " << j;
    if (!want.answers[j].ok()) {
      EXPECT_EQ(got.answers[j].status().code(),
                want.answers[j].status().code())
          << context << " at query " << j;
      continue;
    }
    const convex::Vec& g = *got.answers[j];
    const convex::Vec& w = *want.answers[j];
    ASSERT_EQ(g.size(), w.size()) << context << " at query " << j;
    for (size_t i = 0; i < w.size(); ++i) {
      EXPECT_TRUE(BitsEq(g[i], w[i]))
          << context << " query " << j << " coordinate " << i;
    }
  }
  EXPECT_EQ(got.ledger_report, want.ledger_report) << context;
  EXPECT_EQ(got.update_count, want.update_count) << context;
  EXPECT_EQ(got.queries_answered, want.queries_answered) << context;
}

class SimdTranscriptPropertyTest : public ::testing::TestWithParam<int> {
 protected:
  SimdTranscriptPropertyTest() : universe_(3), family_(3) {
    Rng rng(7500 + static_cast<uint64_t>(GetParam()));
    std::vector<double> theta_star, biases;
    for (int d = 0; d < 3; ++d) {
      theta_star.push_back(rng.Uniform(-1.0, 1.0));
      biases.push_back(rng.Uniform(0.3, 0.7));
    }
    data::Histogram dist = data::LogisticModelDistribution(
        universe_, theta_star, biases, rng.Uniform(0.2, 0.4));
    dataset_ = std::make_unique<data::Dataset>(
        data::RoundedDataset(universe_, dist, 60000));
    Rng query_rng(8500 + static_cast<uint64_t>(GetParam()));
    std::vector<convex::CmQuery> pool = family_.Generate(10, &query_rng);
    for (int j = 0; j < 48; ++j) {
      workload_.push_back(pool[static_cast<size_t>(j) % pool.size()]);
    }
  }

  data::LabeledHypercubeUniverse universe_;
  losses::LipschitzFamily family_;
  std::unique_ptr<data::Dataset> dataset_;
  std::vector<convex::CmQuery> workload_;
};

TEST_P(SimdTranscriptPropertyTest, SimdOnOffTranscriptsMatchEverywhere) {
  if (!simd::Available()) {
    GTEST_SKIP() << "AVX2 not available: on/off would compare scalar to "
                    "itself";
  }
  const uint64_t seed = 9500 + static_cast<uint64_t>(GetParam());
  for (core::HypothesisBackend backend :
       {core::HypothesisBackend::kDense, core::HypothesisBackend::kSparse}) {
    for (int shards : {1, 2, 4}) {
      for (int threads : {1, 4}) {
        const std::string context =
            std::string(backend == core::HypothesisBackend::kDense
                            ? "dense"
                            : "sparse") +
            " shards=" + std::to_string(shards) +
            " threads=" + std::to_string(threads);
        Transcript off = RunServe(*dataset_, workload_, seed, shards, threads,
                                  backend, /*simd_on=*/false);
        ASSERT_GT(off.update_count, 0)
            << context << ": scenario never exercised the MW update path";
        Transcript on = RunServe(*dataset_, workload_, seed, shards, threads,
                                 backend, /*simd_on=*/true);
        ExpectIdentical(on, off, context);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomScenarios, SimdTranscriptPropertyTest,
                         ::testing::Range(0, 2));

}  // namespace
}  // namespace pmw
