// Tests for the single-query oracles A': accuracy at generous budgets,
// precondition checks, noise behaviour across budgets, and the Table 1
// single-query shapes (GLM dimension-independence, output perturbation's
// strong-convexity requirement).

#include <cmath>
#include <memory>

#include "common/random.h"
#include "common/stats.h"
#include "convex/cm_query.h"
#include "convex/empirical_loss.h"
#include "core/error.h"
#include "data/binary_universe.h"
#include "data/generators.h"
#include "erm/exponential_erm_oracle.h"
#include "erm/glm_oracle.h"
#include "erm/localization_oracle.h"
#include "erm/noisy_gradient_oracle.h"
#include "erm/nonprivate_oracle.h"
#include "erm/objective_perturbation_oracle.h"
#include "erm/output_perturbation_oracle.h"
#include "gtest/gtest.h"
#include "losses/loss_family.h"
#include "losses/margin_losses.h"
#include "losses/transforms.h"

namespace pmw {
namespace erm {
namespace {

// Shared fixture: labeled 3-cube universe, logistic-model data, n = 4000.
class OracleTest : public ::testing::Test {
 protected:
  OracleTest()
      : universe_(3),
        dist_(data::LogisticModelDistribution(universe_, {1.0, -0.5, 0.2},
                                              {0.5, 0.5, 0.5}, 0.3)),
        dataset_(data::RoundedDataset(universe_, dist_, 4000)),
        error_oracle_(&universe_),
        data_hist_(data::Histogram::FromDataset(dataset_)) {}

  double ExcessRisk(const convex::CmQuery& query, const convex::Vec& theta) {
    return error_oracle_.AnswerError(query, data_hist_, theta);
  }

  data::LabeledHypercubeUniverse universe_;
  data::Histogram dist_;
  data::Dataset dataset_;
  core::ErrorOracle error_oracle_;
  data::Histogram data_hist_;
};

TEST_F(OracleTest, NonPrivateOracleIsNearExact) {
  losses::LogisticLoss loss(3);
  convex::L2Ball ball(3);
  convex::CmQuery query{&loss, &ball, "logistic"};
  NonPrivateOracle oracle;
  Rng rng(1);
  OracleContext context;
  auto result = oracle.Solve(query, dataset_, context, &rng);
  ASSERT_TRUE(result.ok());
  EXPECT_LE(ExcessRisk(query, *result), 1e-4);
}

TEST_F(OracleTest, NoisyGradientAccurateAtGenerousBudget) {
  losses::LogisticLoss loss(3);
  convex::L2Ball ball(3);
  convex::CmQuery query{&loss, &ball, "logistic"};
  NoisyGradientOracle oracle;
  Rng rng(2);
  OracleContext context;
  context.privacy = {2.0, 1e-6};
  auto result = oracle.Solve(query, dataset_, context, &rng);
  ASSERT_TRUE(result.ok());
  EXPECT_LE(ExcessRisk(query, *result), 0.05);
}

TEST_F(OracleTest, NoisyGradientErrorGrowsAsBudgetShrinks) {
  losses::SquaredLoss loss(3);
  convex::L2Ball ball(3);
  convex::CmQuery query{&loss, &ball, "squared"};
  NoisyGradientOracle oracle;
  RunningStats generous, tight;
  for (int seed = 0; seed < 8; ++seed) {
    Rng rng(100 + seed);
    OracleContext context;
    context.privacy = {4.0, 1e-6};
    generous.Add(ExcessRisk(query, *oracle.Solve(query, dataset_, context,
                                                 &rng)));
    context.privacy = {0.05, 1e-6};
    tight.Add(ExcessRisk(query, *oracle.Solve(query, dataset_, context,
                                              &rng)));
  }
  EXPECT_LT(generous.mean(), tight.mean());
}

TEST_F(OracleTest, NoisyGradientRejectsPureDp) {
  losses::LogisticLoss loss(3);
  convex::L2Ball ball(3);
  convex::CmQuery query{&loss, &ball, "q"};
  NoisyGradientOracle oracle;
  Rng rng(3);
  OracleContext context;
  context.privacy = {1.0, 0.0};
  auto result = oracle.Solve(query, dataset_, context, &rng);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kMalformedRequest);
}

TEST_F(OracleTest, OutputPerturbationRequiresStrongConvexity) {
  losses::LogisticLoss loss(3);  // not strongly convex
  convex::L2Ball ball(3);
  convex::CmQuery query{&loss, &ball, "q"};
  OutputPerturbationOracle oracle;
  Rng rng(4);
  OracleContext context;
  context.privacy = {1.0, 1e-6};
  auto result = oracle.Solve(query, dataset_, context, &rng);
  EXPECT_FALSE(result.ok());
}

TEST_F(OracleTest, OutputPerturbationAccurateOnStronglyConvex) {
  losses::SquaredLoss base(3);
  losses::TikhonovLoss loss(&base, 0.5, convex::Zeros(3));
  convex::L2Ball ball(3);
  convex::CmQuery query{&loss, &ball, "ridge"};
  OutputPerturbationOracle oracle;
  Rng rng(5);
  OracleContext context;
  context.privacy = {2.0, 1e-6};
  auto result = oracle.Solve(query, dataset_, context, &rng);
  ASSERT_TRUE(result.ok());
  EXPECT_LE(ExcessRisk(query, *result), 0.05);
}

TEST_F(OracleTest, MinimizerSensitivityFormula) {
  EXPECT_NEAR(OutputPerturbationOracle::MinimizerSensitivity(1.0, 0.5, 100),
              2.0 / 50.0, 1e-12);
}

TEST_F(OracleTest, LocalizationBeatsPlainOutputPerturbationAtTightBudget) {
  // Localization's advantage is the very-tight-budget regime (BST14): at
  // eps = 0.02 the plain mechanism's noise dominates while localization's
  // geometrically shrinking sensitivity keeps the answer usable.
  losses::SquaredLoss base(3);
  losses::TikhonovLoss loss(&base, 0.25, convex::Zeros(3));
  convex::L2Ball ball(3);
  convex::CmQuery query{&loss, &ball, "ridge"};
  OutputPerturbationOracle plain;
  LocalizationOracle localized;
  RunningStats plain_err, localized_err;
  for (int seed = 0; seed < 12; ++seed) {
    Rng rng_a(200 + seed), rng_b(200 + seed);
    OracleContext context;
    context.privacy = {0.02, 1e-6};
    plain_err.Add(
        ExcessRisk(query, *plain.Solve(query, dataset_, context, &rng_a)));
    localized_err.Add(ExcessRisk(
        query, *localized.Solve(query, dataset_, context, &rng_b)));
  }
  EXPECT_LT(localized_err.mean(), plain_err.mean());
}

TEST_F(OracleTest, LocalizationAccurateAtGenerousBudget) {
  losses::SquaredLoss base(3);
  losses::TikhonovLoss loss(&base, 0.5, convex::Zeros(3));
  convex::L2Ball ball(3);
  convex::CmQuery query{&loss, &ball, "ridge"};
  LocalizationOracle localized;
  Rng rng(77);
  OracleContext context;
  context.privacy = {2.0, 1e-6};
  auto result = localized.Solve(query, dataset_, context, &rng);
  ASSERT_TRUE(result.ok());
  EXPECT_LE(ExcessRisk(query, *result), 0.05);
}

TEST_F(OracleTest, GlmOracleRequiresGlm) {
  losses::SquaredLoss base(3);
  losses::TikhonovLoss non_glm(&base, 0.5, convex::Zeros(3));
  convex::L2Ball ball(3);
  convex::CmQuery query{&non_glm, &ball, "q"};
  GlmOracle oracle;
  Rng rng(6);
  OracleContext context;
  context.privacy = {1.0, 1e-6};
  auto result = oracle.Solve(query, dataset_, context, &rng);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kMalformedRequest);
}

TEST_F(OracleTest, GlmOracleAccurateOnLogistic) {
  losses::LogisticLoss loss(3);
  convex::L2Ball ball(3);
  convex::CmQuery query{&loss, &ball, "logistic"};
  GlmOracle oracle;
  Rng rng(7);
  OracleContext context;
  context.privacy = {2.0, 1e-6};
  context.target_alpha = 0.05;
  auto result = oracle.Solve(query, dataset_, context, &rng);
  ASSERT_TRUE(result.ok());
  EXPECT_LE(ExcessRisk(query, *result), 0.1);
}

TEST_F(OracleTest, ObjectivePerturbationAccurateOnSmoothLoss) {
  losses::LogisticLoss loss(3);
  convex::L2Ball ball(3);
  convex::CmQuery query{&loss, &ball, "logistic"};
  ObjectivePerturbationOracle oracle;
  Rng rng(8);
  OracleContext context;
  context.privacy = {2.0, 1e-6};
  auto result = oracle.Solve(query, dataset_, context, &rng);
  ASSERT_TRUE(result.ok());
  EXPECT_LE(ExcessRisk(query, *result), 0.05);
}

TEST_F(OracleTest, ExponentialErmAccurateOn1D) {
  losses::LinearQueryLoss loss(
      [](const data::Row& r) { return r.label > 0 ? 1.0 : 0.0; }, "label");
  convex::Interval interval(0.0, 1.0);
  convex::CmQuery query{&loss, &interval, "linq"};
  ExponentialErmOracle oracle;
  Rng rng(9);
  OracleContext context;
  context.privacy = {2.0, 0.0};  // pure DP
  auto result = oracle.Solve(query, dataset_, context, &rng);
  ASSERT_TRUE(result.ok());
  EXPECT_LE(ExcessRisk(query, *result), 0.01);
}

TEST_F(OracleTest, ExponentialErmReasonableOnBall) {
  losses::LogisticLoss loss(3);
  convex::L2Ball ball(3);
  convex::CmQuery query{&loss, &ball, "logistic"};
  ExponentialErmOracle oracle;
  Rng rng(10);
  OracleContext context;
  context.privacy = {4.0, 0.0};
  auto result = oracle.Solve(query, dataset_, context, &rng);
  ASSERT_TRUE(result.ok());
  EXPECT_LE(ExcessRisk(query, *result), 0.15);
}

TEST_F(OracleTest, BiasedOracleDegradesAnswer) {
  losses::SquaredLoss loss(3);
  convex::L2Ball ball(3);
  convex::CmQuery query{&loss, &ball, "squared"};
  NonPrivateOracle inner;
  BiasedOracle biased(&inner, /*bias_radius=*/0.8);
  RunningStats clean_err, biased_err;
  for (int seed = 0; seed < 6; ++seed) {
    Rng rng(300 + seed);
    OracleContext context;
    clean_err.Add(
        ExcessRisk(query, *inner.Solve(query, dataset_, context, &rng)));
    biased_err.Add(
        ExcessRisk(query, *biased.Solve(query, dataset_, context, &rng)));
  }
  EXPECT_GT(biased_err.mean(), clean_err.mean() + 0.01);
}

// Table 1 row 3's defining property: GLM oracle error does not grow with
// the dimension, unlike the generic noisy-gradient route. Measured at a
// tight budget where the sqrt(d) noise cost is visible.
class GlmDimensionIndependenceTest : public ::testing::TestWithParam<int> {};

TEST_P(GlmDimensionIndependenceTest, ErrorFlatAcrossDimensions) {
  const int d = GetParam();
  data::LabeledHypercubeUniverse universe(d);
  std::vector<double> theta_star(d, 0.0);
  theta_star[0] = 1.0;
  data::Histogram dist = data::LogisticModelDistribution(
      universe, theta_star, std::vector<double>(d, 0.5), 0.3);
  data::Dataset dataset = data::RoundedDataset(universe, dist, 2000);
  core::ErrorOracle error_oracle(&universe);
  data::Histogram hist = data::Histogram::FromDataset(dataset);

  losses::LogisticLoss loss(d);
  convex::L2Ball ball(d);
  convex::CmQuery query{&loss, &ball, "logistic"};
  GlmOracle oracle;
  RunningStats errs;
  for (int seed = 0; seed < 6; ++seed) {
    Rng rng(400 + seed);
    OracleContext context;
    context.privacy = {0.5, 1e-6};
    context.target_alpha = 0.1;
    auto result = oracle.Solve(query, dataset, context, &rng);
    ASSERT_TRUE(result.ok());
    errs.Add(error_oracle.AnswerError(query, hist, *result));
  }
  // Error stays bounded by a d-independent constant across d in {2..6}.
  EXPECT_LE(errs.mean(), 0.2) << "d=" << d;
}

INSTANTIATE_TEST_SUITE_P(Dims, GlmDimensionIndependenceTest,
                         ::testing::Values(2, 4, 6));

}  // namespace
}  // namespace erm
}  // namespace pmw
