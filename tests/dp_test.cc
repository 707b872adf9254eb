// Tests for the DP primitives: mechanisms (statistical checks with fixed
// seeds), composition arithmetic (Theorem 3.10), the sparse vector
// (Theorem 3.1's behaviour), and the privacy ledger.

#include <cmath>
#include <vector>

#include "common/random.h"
#include "common/stats.h"
#include "dp/composition.h"
#include "dp/ledger.h"
#include "dp/mechanisms.h"
#include "dp/privacy.h"
#include "dp/sparse_vector.h"
#include "gtest/gtest.h"

namespace pmw {
namespace dp {
namespace {

TEST(PrivacyParamsTest, PureDetection) {
  EXPECT_TRUE((PrivacyParams{1.0, 0.0}).IsPure());
  EXPECT_FALSE((PrivacyParams{1.0, 1e-6}).IsPure());
}

TEST(LaplaceMechanismTest, UnbiasedWithCorrectScale) {
  Rng rng(1);
  RunningStats stats;
  for (int i = 0; i < 100000; ++i) {
    stats.Add(LaplaceMechanism(5.0, /*sensitivity=*/0.5, /*epsilon=*/2.0,
                               &rng));
  }
  EXPECT_NEAR(stats.mean(), 5.0, 0.01);
  // Variance of Lap(b) is 2 b^2 with b = 0.25.
  EXPECT_NEAR(stats.variance(), 2.0 * 0.0625, 0.01);
}

TEST(GaussianMechanismTest, SigmaMatchesClassicFormula) {
  PrivacyParams p{1.0, 1e-5};
  double sigma = GaussianSigma(0.1, p);
  EXPECT_NEAR(sigma, 0.1 * std::sqrt(2.0 * std::log(1.25e5)) / 1.0, 1e-12);
}

TEST(GaussianMechanismTest, VectorAddsIndependentNoise) {
  Rng rng(3);
  PrivacyParams p{1.0, 1e-6};
  std::vector<double> base(2, 0.0);
  RunningStats s0, s1;
  for (int i = 0; i < 20000; ++i) {
    auto noisy = GaussianMechanismVector(base, 0.05, p, &rng);
    s0.Add(noisy[0]);
    s1.Add(noisy[1]);
  }
  double sigma = GaussianSigma(0.05, p);
  EXPECT_NEAR(s0.stddev(), sigma, 0.05 * sigma);
  EXPECT_NEAR(s1.stddev(), sigma, 0.05 * sigma);
}

TEST(ExponentialMechanismTest, PrefersHighScores) {
  Rng rng(5);
  std::vector<double> scores = {0.0, 1.0, 0.2};
  std::vector<int> counts(3, 0);
  for (int i = 0; i < 20000; ++i) {
    counts[ExponentialMechanism(scores, 0.1, 2.0, &rng)] += 1;
  }
  EXPECT_GT(counts[1], counts[0]);
  EXPECT_GT(counts[1], counts[2]);
  // P(1)/P(0) should be ~ exp(eps*(s1-s0)/(2*sens)) = exp(10).
  EXPECT_GT(static_cast<double>(counts[1]) / (counts[0] + 1), 100.0);
}

TEST(ExponentialMechanismTest, GumbelSamplingMatchesSoftmaxRatios) {
  Rng rng(7);
  std::vector<double> scores = {0.0, 0.3};
  const double eps = 1.0, sens = 0.5;
  int count1 = 0;
  const int trials = 100000;
  for (int i = 0; i < trials; ++i) {
    count1 += ExponentialMechanism(scores, sens, eps, &rng);
  }
  double expected = std::exp(eps * 0.3 / (2 * sens)) /
                    (1.0 + std::exp(eps * 0.3 / (2 * sens)));
  EXPECT_NEAR(static_cast<double>(count1) / trials, expected, 0.01);
}

TEST(ReportNoisyMaxTest, PrefersHighScores) {
  Rng rng(9);
  std::vector<double> scores = {0.1, 0.9, 0.0};
  std::vector<int> counts(3, 0);
  for (int i = 0; i < 5000; ++i) {
    counts[ReportNoisyMax(scores, 0.05, 1.0, &rng)] += 1;
  }
  EXPECT_GT(counts[1], 4500);
}

TEST(CompositionTest, BasicAddsUp) {
  PrivacyParams total = BasicComposition({0.1, 1e-8}, 10);
  EXPECT_NEAR(total.epsilon, 1.0, 1e-12);
  EXPECT_NEAR(total.delta, 1e-7, 1e-18);
}

TEST(CompositionTest, StrongMatchesTheorem310Formula) {
  PrivacyParams per{0.05, 1e-9};
  int rounds = 50;
  double delta_prime = 1e-6;
  PrivacyParams total = StrongComposition(per, rounds, delta_prime);
  double expected_eps =
      std::sqrt(2.0 * 50 * std::log(1e6)) * 0.05 + 2.0 * 50 * 0.0025;
  EXPECT_NEAR(total.epsilon, expected_eps, 1e-12);
  EXPECT_NEAR(total.delta, 1e-6 + 50e-9, 1e-15);
}

TEST(CompositionTest, PerRoundBudgetComposesBackWithinTotal) {
  // The paper's split must re-compose to within (eps, delta).
  PrivacyParams total{0.5, 1e-6};
  for (int rounds : {1, 8, 64, 512}) {
    PrivacyParams per = PerRoundBudget(total, rounds);
    PrivacyParams recomposed =
        StrongComposition(per, rounds, total.delta / 2.0);
    EXPECT_LE(recomposed.epsilon, total.epsilon + 1e-9)
        << "rounds=" << rounds;
    EXPECT_LE(recomposed.delta, total.delta + 1e-15) << "rounds=" << rounds;
  }
}

TEST(CompositionTest, MoreRoundsMeansSmallerPerRoundBudget) {
  PrivacyParams total{1.0, 1e-6};
  double prev = 1e9;
  for (int rounds : {1, 2, 4, 8, 16}) {
    PrivacyParams per = PerRoundBudget(total, rounds);
    EXPECT_LT(per.epsilon, prev);
    prev = per.epsilon;
  }
}

TEST(SparseVectorTest, ClearlyAboveGetsTop) {
  SparseVector::Options options;
  options.max_top_answers = 5;
  options.alpha = 0.2;
  options.sensitivity = 1e-4;  // big n => tiny noise
  options.privacy = {1.0, 1e-6};
  SparseVector sv(options, 42);
  for (int i = 0; i < 5; ++i) {
    auto a = sv.Process(0.5);  // far above alpha
    ASSERT_TRUE(a.ok());
    EXPECT_EQ(*a, SparseVector::Answer::kTop);
  }
  EXPECT_TRUE(sv.halted());
}

TEST(SparseVectorTest, ClearlyBelowGetsBottom) {
  SparseVector::Options options;
  options.max_top_answers = 3;
  options.alpha = 0.2;
  options.sensitivity = 1e-4;
  options.privacy = {1.0, 1e-6};
  SparseVector sv(options, 43);
  for (int i = 0; i < 200; ++i) {
    auto a = sv.Process(0.0);
    ASSERT_TRUE(a.ok());
    EXPECT_EQ(*a, SparseVector::Answer::kBottom);
  }
  EXPECT_FALSE(sv.halted());
  EXPECT_EQ(sv.top_count(), 0);
  EXPECT_EQ(sv.queries_processed(), 200);
}

TEST(SparseVectorTest, HaltsAfterTTops) {
  SparseVector::Options options;
  options.max_top_answers = 2;
  options.alpha = 0.1;
  options.sensitivity = 1e-4;
  options.privacy = {1.0, 1e-6};
  SparseVector sv(options, 44);
  EXPECT_TRUE(sv.Process(1.0).ok());
  EXPECT_TRUE(sv.Process(1.0).ok());
  auto after = sv.Process(1.0);
  EXPECT_FALSE(after.ok());
  EXPECT_EQ(after.status().code(), StatusCode::kHalted);
}

TEST(SparseVectorTest, NoiseScalesGrowWithT) {
  SparseVector::Options options;
  options.max_top_answers = 4;
  options.alpha = 0.1;
  options.sensitivity = 0.01;
  options.privacy = {1.0, 1e-6};
  SparseVector small_t(options, 1);
  options.max_top_answers = 64;
  SparseVector big_t(options, 1);
  EXPECT_GT(big_t.query_noise_scale(), small_t.query_noise_scale());
}

TEST(SparseVectorTest, PureDpModeWorks) {
  SparseVector::Options options;
  options.max_top_answers = 2;
  options.alpha = 0.3;
  options.sensitivity = 1e-5;
  options.privacy = {1.0, 0.0};  // pure DP
  SparseVector sv(options, 45);
  auto a = sv.Process(0.0);
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(*a, SparseVector::Answer::kBottom);
}

// Theorem 3.1's accuracy event: at the theorem-sized n, every planted
// above-threshold query answers kTop and every below-half query answers
// kBottom, across the full adaptive stream.
class SparseVectorAccuracyTest : public ::testing::TestWithParam<int> {};

TEST_P(SparseVectorAccuracyTest, AccurateAtTheoremN) {
  const int T = 4;
  const long long k = 200;
  const double alpha = 0.2;
  const double beta = 0.05;
  PrivacyParams privacy{1.0, 1e-6};
  const double S = 1.0;
  double n = SparseVector::TheoremRequiredN(S, T, k, alpha, privacy, beta);

  SparseVector::Options options;
  options.max_top_answers = T;
  options.alpha = alpha;
  options.sensitivity = 3.0 * S / n;
  options.privacy = privacy;
  SparseVector sv(options, 1000 + GetParam());

  Rng rng(2000 + GetParam());
  int planted_tops = 0;
  for (long long j = 0; j < k && !sv.halted(); ++j) {
    bool plant_high = planted_tops < T - 1 && rng.Bernoulli(0.02);
    double value = plant_high ? alpha * 1.5 : alpha * 0.25;
    auto a = sv.Process(value);
    ASSERT_TRUE(a.ok());
    if (plant_high) {
      EXPECT_EQ(*a, SparseVector::Answer::kTop) << "query " << j;
      ++planted_tops;
    } else {
      EXPECT_EQ(*a, SparseVector::Answer::kBottom) << "query " << j;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SparseVectorAccuracyTest,
                         ::testing::Range(0, 6));

TEST(LedgerTest, RecordsAndTotals) {
  PrivacyLedger ledger;
  ledger.Record("oracle:a", {0.1, 1e-8});
  ledger.Record("oracle:a", {0.1, 1e-8});
  ledger.Record("sparse-vector", {0.5, 1e-7});
  EXPECT_EQ(ledger.event_count(), 3);
  EXPECT_EQ(ledger.CountWithPrefix("oracle:"), 2);
  PrivacyParams basic = ledger.BasicTotal();
  EXPECT_NEAR(basic.epsilon, 0.7, 1e-12);
  PrivacyParams grouped = ledger.GroupedStrongTotal(1e-9);
  EXPECT_GT(grouped.epsilon, 0.0);
  EXPECT_NE(ledger.Report().find("sparse-vector"), std::string::npos);
}

TEST(LedgerTest, GroupedStrongBeatsBasicForManyEvents) {
  PrivacyLedger ledger;
  for (int i = 0; i < 400; ++i) ledger.Record("call", {0.01, 1e-10});
  double basic_eps = ledger.BasicTotal().epsilon;
  double strong_eps = ledger.GroupedStrongTotal(1e-8).epsilon;
  EXPECT_LT(strong_eps, basic_eps);
}

TEST(LedgerTest, BasicTotalWithPrefixIsolatesLabelFamilies) {
  PrivacyLedger ledger;
  ledger.Record("sparse-vector", {0.5, 1e-7});
  ledger.Record("oracle:gd", {0.1, 1e-8});
  ledger.Record("oracle:gd", {0.1, 1e-8});
  PrivacyParams oracle_total = ledger.BasicTotalWithPrefix("oracle:");
  EXPECT_NEAR(oracle_total.epsilon, 0.2, 1e-12);
  EXPECT_NEAR(oracle_total.delta, 2e-8, 1e-20);
  PrivacyParams none = ledger.BasicTotalWithPrefix("nothing:");
  EXPECT_EQ(none.epsilon, 0.0);
  EXPECT_EQ(none.delta, 0.0);
}

TEST(BudgetViewTest, TracksConsumptionAgainstAnEventBudget) {
  // The quota view the serving front-end uses: "oracle:" events against
  // the schedule's T. It must track the ledger live — the ledger is the
  // single source of truth, the view holds no state of its own.
  PrivacyLedger ledger;
  BudgetView view(&ledger, "oracle:", 3);
  EXPECT_EQ(view.consumed(), 0);
  EXPECT_EQ(view.remaining(), 3);
  EXPECT_FALSE(view.exhausted());

  ledger.Record("sparse-vector", {0.5, 1e-7});  // other labels don't count
  EXPECT_EQ(view.consumed(), 0);

  for (int i = 0; i < 3; ++i) ledger.Record("oracle:gd", {0.1, 1e-8});
  EXPECT_EQ(view.consumed(), 3);
  EXPECT_EQ(view.remaining(), 0);
  EXPECT_TRUE(view.exhausted());
  EXPECT_NEAR(view.Spent().epsilon, 0.3, 1e-12);

  // Over-consumption (shouldn't happen, but the view must stay sane).
  ledger.Record("oracle:gd", {0.1, 1e-8});
  EXPECT_EQ(view.remaining(), 0);
  EXPECT_TRUE(view.exhausted());
}

TEST(BudgetViewTest, NonPositiveMaxMeansUnlimited) {
  PrivacyLedger ledger;
  BudgetView view(&ledger, "oracle:", 0);
  for (int i = 0; i < 10; ++i) ledger.Record("oracle:gd", {0.1, 1e-8});
  EXPECT_EQ(view.consumed(), 10);
  EXPECT_FALSE(view.exhausted());
  EXPECT_GT(view.remaining(), 1LL << 40);
}

}  // namespace
}  // namespace dp
}  // namespace pmw
