// End-to-end and unit tests for the core mechanisms: Figure 3's schedule
// arithmetic, the online PMW-CM mechanism, HR10 linear PMW, MWEM, the
// offline variant, the composition baseline, and the accuracy game.

#include <cmath>
#include <cstring>
#include <memory>
#include <vector>

#include "common/random.h"
#include "core/accuracy_game.h"
#include "core/analysts.h"
#include "core/composition_baseline.h"
#include "core/error.h"
#include "core/linear_query.h"
#include "core/mwem.h"
#include "core/pmw_answerer.h"
#include "core/pmw_cm.h"
#include "core/pmw_linear.h"
#include "core/pmw_offline.h"
#include "data/binary_universe.h"
#include "data/generators.h"
#include "erm/noisy_gradient_oracle.h"
#include "erm/nonprivate_oracle.h"
#include "gtest/gtest.h"
#include "losses/loss_family.h"

namespace pmw {
namespace core {
namespace {

// Skewed logistic-model data over the labeled 3-cube (|X| = 16).
class CoreTest : public ::testing::Test {
 protected:
  CoreTest()
      : universe_(3),
        dist_(data::LogisticModelDistribution(universe_, {1.0, -0.8, 0.5},
                                              {0.7, 0.4, 0.5}, 0.25)),
        dataset_(data::RoundedDataset(universe_, dist_, 150000)),
        data_hist_(data::Histogram::FromDataset(dataset_)),
        error_oracle_(&universe_) {}

  PmwOptions PracticalOptions() const {
    PmwOptions options;
    options.alpha = 0.15;
    options.beta = 0.05;
    options.privacy = {2.0, 1e-6};
    options.scale = 2.0;
    options.max_queries = 400;
    options.override_updates = 16;
    return options;
  }

  data::LabeledHypercubeUniverse universe_;
  data::Histogram dist_;
  data::Dataset dataset_;
  data::Histogram data_hist_;
  ErrorOracle error_oracle_;
};

TEST(PmwScheduleTest, MatchesFigure3Formulas) {
  PmwOptions options;
  options.alpha = 0.1;
  options.beta = 0.05;
  options.privacy = {1.0, 1e-6};
  options.scale = 2.0;
  double log_universe = std::log(1024.0);
  PmwSchedule s = PmwSchedule::Compute(options, log_universe);
  double expected_T = 64.0 * 4.0 * log_universe / 0.01;
  EXPECT_EQ(s.T, static_cast<int>(std::ceil(expected_T)));
  EXPECT_NEAR(s.eta, std::sqrt(log_universe / s.T), 1e-12);
  EXPECT_NEAR(s.oracle_budget.epsilon,
              1.0 / std::sqrt(8.0 * s.T * std::log(4.0 / 1e-6)), 1e-15);
  EXPECT_NEAR(s.oracle_budget.delta, 1e-6 / (4.0 * s.T), 1e-20);
  EXPECT_NEAR(s.sv_budget.epsilon, 0.5, 1e-12);
  EXPECT_NEAR(s.alpha0, 0.025, 1e-12);
  EXPECT_NEAR(s.beta0, 0.05 / (2.0 * s.T), 1e-15);
}

TEST(PmwScheduleTest, OverridesApply) {
  PmwOptions options;
  options.override_updates = 12;
  options.override_eta = 0.33;
  PmwSchedule s = PmwSchedule::Compute(options, std::log(16.0));
  EXPECT_EQ(s.T, 12);
  EXPECT_NEAR(s.eta, 0.33, 1e-12);
}

TEST(PmwScheduleTest, TheoremNGrowsLogarithmicallyInK) {
  PmwOptions options;
  double log_universe = std::log(1024.0);
  options.max_queries = 100;
  double n100 = PmwSchedule::TheoremRequiredN(options, log_universe, 0.0);
  options.max_queries = 10000;
  double n10000 = PmwSchedule::TheoremRequiredN(options, log_universe, 0.0);
  EXPECT_GT(n10000, n100);
  // 100x more queries should cost far less than 2x the data.
  EXPECT_LT(n10000 / n100, 2.0);
}

TEST_F(CoreTest, AnswersAllQueriesAccuratelyWithExactOracle) {
  erm::NonPrivateOracle oracle;
  PmwCm mechanism(&dataset_, &oracle, PracticalOptions(), 101);
  losses::LipschitzFamily family(3);
  Rng rng(11);

  double max_err = 0.0;
  for (int j = 0; j < 120; ++j) {
    convex::CmQuery query = family.Next(&rng);
    Result<PmwAnswer> answer = mechanism.AnswerQuery(query);
    ASSERT_TRUE(answer.ok()) << "halted at query " << j;
    max_err = std::max(max_err, error_oracle_.AnswerError(
                                    query, data_hist_, answer.value().theta));
  }
  EXPECT_LE(max_err, 0.15 + 0.02);
  EXPECT_LE(mechanism.update_count(), mechanism.schedule().T);
  EXPECT_EQ(mechanism.queries_answered(), 120);
}

TEST_F(CoreTest, AnswersAccuratelyWithPrivateOracle) {
  erm::NoisyGradientOracle oracle;
  PmwOptions options = PracticalOptions();
  options.privacy = {4.0, 1e-6};  // generous but finite
  PmwCm mechanism(&dataset_, &oracle, options, 102);
  losses::LipschitzFamily family(3);
  Rng rng(12);

  double max_err = 0.0;
  for (int j = 0; j < 80; ++j) {
    convex::CmQuery query = family.Next(&rng);
    Result<PmwAnswer> answer = mechanism.AnswerQuery(query);
    ASSERT_TRUE(answer.ok());
    max_err = std::max(max_err, error_oracle_.AnswerError(
                                    query, data_hist_, answer.value().theta));
  }
  EXPECT_LE(max_err, 0.3);  // private oracle at practical budget
}

TEST_F(CoreTest, UniformDataNeedsNoUpdates) {
  // When D is uniform, the initial hypothesis equals D, every error query
  // is ~0, and every answer must come from the kBottom path for free.
  data::Dataset uniform_data = data::RoundedDataset(
      universe_, data::UniformDistribution(universe_), 150000);
  erm::NonPrivateOracle oracle;
  PmwCm mechanism(&uniform_data, &oracle, PracticalOptions(), 103);
  losses::LipschitzFamily family(3);
  Rng rng(13);
  for (int j = 0; j < 50; ++j) {
    auto answer = mechanism.AnswerQuery(family.Next(&rng));
    ASSERT_TRUE(answer.ok());
    EXPECT_FALSE(answer.value().was_update);
  }
  EXPECT_EQ(mechanism.update_count(), 0);
}

TEST_F(CoreTest, LedgerMatchesUpdateCount) {
  erm::NonPrivateOracle oracle;
  PmwCm mechanism(&dataset_, &oracle, PracticalOptions(), 104);
  losses::LipschitzFamily family(3);
  Rng rng(14);
  for (int j = 0; j < 60; ++j) {
    ASSERT_TRUE(mechanism.AnswerQuery(family.Next(&rng)).ok());
  }
  EXPECT_EQ(mechanism.ledger().CountWithPrefix("oracle:"),
            mechanism.update_count());
  EXPECT_EQ(mechanism.ledger().CountWithPrefix("sparse-vector"), 1);
  // Basic-composition audit: oracle calls at (eps0, delta0) plus the SV's
  // (eps/2, delta/2) must stay within the strong-composition budget that
  // Theorem 3.9 guarantees; here we sanity-check the per-event budgets.
  EXPECT_NEAR(mechanism.ledger().BasicTotal().epsilon,
              mechanism.schedule().sv_budget.epsilon +
                  mechanism.update_count() *
                      mechanism.schedule().oracle_budget.epsilon,
              1e-9);
}

TEST_F(CoreTest, PrepareReusesEarlierDataMinBitExactly) {
  const auto same_bits = [](double a, double b) {
    return std::memcmp(&a, &b, sizeof(double)) == 0;
  };
  erm::NonPrivateOracle oracle;
  PmwCm mechanism(&dataset_, &oracle, PracticalOptions(), 106);
  losses::LipschitzFamily family(3);
  Rng rng(19);
  const std::vector<convex::CmQuery> queries = family.Generate(6, &rng);
  const HypothesisSnapshot initial = mechanism.SnapshotHypothesis();
  std::vector<PreparedQuery> older;
  for (const convex::CmQuery& query : queries) {
    older.push_back(mechanism.Prepare(query, initial));
  }
  for (int j = 0; j < 200 && mechanism.update_count() < 3; ++j) {
    ASSERT_TRUE(mechanism.AnswerQuery(family.Next(&rng)).ok());
  }
  ASSERT_GE(mechanism.update_count(), 3);

  const HypothesisSnapshot now = mechanism.SnapshotHypothesis();
  const PreparedQuery unset;
  for (size_t i = 0; i < queries.size(); ++i) {
    const PreparedQuery fresh = mechanism.Prepare(queries[i], now);
    ASSERT_FALSE(std::isnan(fresh.data_min));
    const PreparedQuery& old = older[i];
    ASSERT_LT(old.hypothesis_version, now.version);
    for (const PreparedQuery* earlier : {&old, &unset}) {
      // An older version's plan lends its data_min; a default plan has
      // none, so Prepare solves. Either way the plan is the fresh one.
      const PreparedQuery plan = mechanism.Prepare(queries[i], now, earlier);
      ASSERT_EQ(plan.theta_hat.size(), fresh.theta_hat.size());
      for (size_t c = 0; c < plan.theta_hat.size(); ++c) {
        EXPECT_TRUE(same_bits(plan.theta_hat[c], fresh.theta_hat[c]));
      }
      EXPECT_TRUE(same_bits(plan.query_value, fresh.query_value)) << i;
      EXPECT_TRUE(same_bits(plan.data_min, fresh.data_min)) << i;
      EXPECT_EQ(plan.hypothesis_version, now.version);
    }
  }
  // The value really is borrowed, not re-solved: a planted data_min
  // comes back as-is (which is why only the plan cache, whose key pins
  // the query, may lend one).
  PreparedQuery planted;
  planted.data_min = -0.5;
  EXPECT_EQ(mechanism.Prepare(queries[0], now, &planted).data_min, -0.5);
}

TEST_F(CoreTest, HypothesisConvergesTowardData) {
  erm::NonPrivateOracle oracle;
  PmwCm mechanism(&dataset_, &oracle, PracticalOptions(), 105);
  losses::LipschitzFamily family(3);
  Rng rng(15);
  double initial_kl =
      data_hist_.Kl(data::Histogram::Uniform(universe_.size()));
  for (int j = 0; j < 100; ++j) {
    ASSERT_TRUE(mechanism.AnswerQuery(family.Next(&rng)).ok());
  }
  if (mechanism.update_count() > 0) {
    double final_kl = data_hist_.Kl(mechanism.hypothesis());
    EXPECT_LT(final_kl, initial_kl);
  }
}

TEST_F(CoreTest, HaltsWhenUpdateBudgetExhausted) {
  erm::NonPrivateOracle oracle;
  PmwOptions options = PracticalOptions();
  options.override_updates = 1;
  options.alpha = 0.02;  // nearly every query exceeds threshold
  PmwCm mechanism(&dataset_, &oracle, options, 106);
  losses::LipschitzFamily family(3);
  Rng rng(16);
  bool halted = false;
  for (int j = 0; j < 100; ++j) {
    auto answer = mechanism.AnswerQuery(family.Next(&rng));
    if (!answer.ok()) {
      EXPECT_EQ(answer.status().code(), StatusCode::kHalted);
      halted = true;
      break;
    }
  }
  EXPECT_TRUE(halted);
  EXPECT_TRUE(mechanism.halted());
}

TEST_F(CoreTest, RespectsMaxQueries) {
  erm::NonPrivateOracle oracle;
  PmwOptions options = PracticalOptions();
  options.max_queries = 5;
  PmwCm mechanism(&dataset_, &oracle, options, 107);
  losses::LipschitzFamily family(3);
  Rng rng(17);
  for (int j = 0; j < 5; ++j) {
    ASSERT_TRUE(mechanism.AnswerQuery(family.Next(&rng)).ok());
  }
  auto extra = mechanism.AnswerQuery(family.Next(&rng));
  EXPECT_FALSE(extra.ok());
  EXPECT_EQ(extra.status().code(), StatusCode::kResourceExhausted);
}

TEST_F(CoreTest, FailureInjectionDegradesAccuracy) {
  erm::NonPrivateOracle inner;
  erm::BiasedOracle broken(&inner, /*bias_radius=*/1.5);
  PmwOptions options = PracticalOptions();
  PmwCm clean(&dataset_, &inner, options, 108);
  PmwCm corrupted(&dataset_, &broken, options, 108);
  losses::LipschitzFamily family_a(3), family_b(3);
  Rng rng_a(18), rng_b(18);
  double clean_max = 0.0, corrupted_max = 0.0;
  for (int j = 0; j < 60; ++j) {
    auto qa = family_a.Next(&rng_a);
    auto a = clean.AnswerQuery(qa);
    if (a.ok()) {
      clean_max = std::max(
          clean_max, error_oracle_.AnswerError(qa, data_hist_, a.value().theta));
    }
    auto qb = family_b.Next(&rng_b);
    auto b = corrupted.AnswerQuery(qb);
    if (b.ok()) {
      corrupted_max =
          std::max(corrupted_max,
                   error_oracle_.AnswerError(qb, data_hist_, b.value().theta));
    }
  }
  EXPECT_GT(corrupted_max, clean_max);
}

TEST_F(CoreTest, PmwLinearAnswersConjunctionsAccurately) {
  PmwLinearOptions options;
  options.alpha = 0.1;
  options.privacy = {2.0, 1e-6};
  options.override_updates = 20;
  PmwLinear mechanism(&dataset_, options, 201);
  Rng rng(21);
  auto queries = RandomConjunctionQueries(universe_, 150, 2, true, &rng);
  double max_err = 0.0;
  for (const auto& q : queries) {
    auto answer = mechanism.AnswerQuery(q);
    ASSERT_TRUE(answer.ok());
    max_err = std::max(max_err,
                       std::abs(answer.value().value - q.Evaluate(data_hist_)));
  }
  EXPECT_LE(max_err, 0.12);
  EXPECT_LE(mechanism.update_count(), 20);
}

TEST_F(CoreTest, MwemReducesMaxError) {
  Rng rng(22);
  auto queries = RandomConjunctionQueries(universe_, 40, 2, true, &rng);
  MwemOptions options;
  options.rounds = 12;
  options.privacy = {2.0, 0.0};
  MwemResult result = RunMwem(dataset_, queries, options, 301);
  ASSERT_EQ(static_cast<int>(result.max_error_trace.size()), 12);
  double initial_max = 0.0;
  data::Histogram uniform = data::Histogram::Uniform(universe_.size());
  for (const auto& q : queries) {
    initial_max = std::max(initial_max, std::abs(q.Evaluate(data_hist_) -
                                                 q.Evaluate(uniform)));
  }
  EXPECT_LT(result.max_error_trace.back(), initial_max);
  EXPECT_LE(result.max_error_trace.back(), 0.15);
}

TEST_F(CoreTest, PmwOfflineAnswersFixedQuerySet) {
  losses::LipschitzFamily family(3);
  Rng rng(23);
  auto queries = family.Generate(24, &rng);
  erm::NonPrivateOracle oracle;
  PmwOfflineOptions options;
  options.rounds = 14;
  options.privacy = {3.0, 1e-6};
  options.scale = family.scale();
  PmwOfflineResult result =
      RunPmwOffline(dataset_, queries, &oracle, options, 302);
  ASSERT_EQ(result.answers.size(), queries.size());
  double max_err = 0.0;
  for (size_t q = 0; q < queries.size(); ++q) {
    max_err = std::max(max_err, error_oracle_.AnswerError(
                                    queries[q], data_hist_, result.answers[q]));
  }
  EXPECT_LE(max_err, 0.2);
}

TEST_F(CoreTest, CompositionBaselinePerQueryBudgetShrinksWithK) {
  erm::NonPrivateOracle oracle;
  CompositionBaseline::Options small_k;
  small_k.max_queries = 4;
  CompositionBaseline::Options big_k;
  big_k.max_queries = 400;
  CompositionBaseline a(&dataset_, &oracle, small_k, 401);
  CompositionBaseline b(&dataset_, &oracle, big_k, 402);
  EXPECT_GT(a.per_query_budget().epsilon, b.per_query_budget().epsilon * 5);
}

TEST_F(CoreTest, CompositionBaselineExhaustsAfterK) {
  erm::NonPrivateOracle oracle;
  CompositionBaseline::Options options;
  options.max_queries = 3;
  CompositionBaseline baseline(&dataset_, &oracle, options, 403);
  losses::LipschitzFamily family(3);
  Rng rng(24);
  for (int j = 0; j < 3; ++j) {
    ASSERT_TRUE(baseline.Answer(family.Next(&rng)).ok());
  }
  EXPECT_FALSE(baseline.Answer(family.Next(&rng)).ok());
}

TEST_F(CoreTest, AccuracyGameRecordsErrors) {
  erm::NonPrivateOracle oracle;
  PmwCm mechanism(&dataset_, &oracle, PracticalOptions(), 501);
  PmwAnswerer answerer(&mechanism);
  losses::LipschitzFamily family(3);
  FamilyAnalyst analyst(&family);
  Rng rng(25);
  GameResult result = RunAccuracyGame(&answerer, &analyst, 50, error_oracle_,
                                      data_hist_, &rng);
  EXPECT_EQ(result.queries_answered, 50);
  EXPECT_EQ(static_cast<int>(result.errors.size()), 50);
  EXPECT_FALSE(result.mechanism_halted);
  EXPECT_LE(result.MaxError(), 0.2);
  EXPECT_LE(result.MeanError(), result.MaxError());
  EXPECT_GE(result.AccurateFraction(0.2), 0.99);
}

TEST_F(CoreTest, RepeatingAnalystMostlyFreeAfterWarmup) {
  erm::NonPrivateOracle oracle;
  PmwOptions options = PracticalOptions();
  PmwCm mechanism(&dataset_, &oracle, options, 502);
  losses::LipschitzFamily family(3);
  Rng pool_rng(26);
  RepeatingAnalyst analyst(&family, /*pool_size=*/8, &pool_rng);
  PmwAnswerer answerer(&mechanism);
  Rng rng(27);
  GameResult result = RunAccuracyGame(&answerer, &analyst, 200, error_oracle_,
                                      data_hist_, &rng);
  EXPECT_EQ(result.queries_answered, 200);
  // 8 distinct queries cannot trigger more than 8ish updates.
  EXPECT_LE(mechanism.update_count(), 10);
}

TEST_F(CoreTest, AdaptiveAnalystStillAnsweredAccurately) {
  erm::NonPrivateOracle oracle;
  PmwOptions options = PracticalOptions();
  options.scale = 2.0 * (1.0 + 1.5 * 0.3);  // adaptive Tikhonov widens S
  PmwCm mechanism(&dataset_, &oracle, options, 503);
  PmwAnswerer answerer(&mechanism);
  losses::LipschitzFamily family(3);
  AdaptiveRefinementAnalyst analyst(&family, /*sigma=*/0.3,
                                    /*fresh_probability=*/0.5);
  Rng rng(28);
  GameResult result = RunAccuracyGame(&answerer, &analyst, 80, error_oracle_,
                                      data_hist_, &rng);
  EXPECT_EQ(result.queries_answered, 80);
  EXPECT_LE(result.MaxError(), 0.25);
}

}  // namespace
}  // namespace core
}  // namespace pmw
