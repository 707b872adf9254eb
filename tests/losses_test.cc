// Tests for the loss library: values, gradient correctness via central
// finite differences (property sweep over every loss type), Lipschitz and
// convexity properties, transforms, linear-query embedding, and families.

#include <cmath>
#include <memory>

#include "common/random.h"
#include "convex/cm_query.h"
#include "convex/vector_ops.h"
#include "data/binary_universe.h"
#include "gtest/gtest.h"
#include "losses/linear_query_loss.h"
#include "losses/loss_family.h"
#include "losses/margin_losses.h"
#include "losses/transforms.h"

namespace pmw {
namespace losses {
namespace {

using convex::Vec;

data::Row MakeRow(std::vector<double> features, double label) {
  data::Row r;
  r.features = std::move(features);
  r.label = label;
  return r;
}

// Central finite-difference check of AddGradient for an arbitrary loss.
void CheckGradient(const convex::LossFunction& loss, const Vec& theta,
                   const data::Row& row, double tol = 1e-6) {
  Vec grad = loss.Gradient(theta, row);
  const double h = 1e-6;
  for (int j = 0; j < loss.dim(); ++j) {
    Vec plus = theta, minus = theta;
    plus[j] += h;
    minus[j] -= h;
    double fd = (loss.Value(plus, row) - loss.Value(minus, row)) / (2.0 * h);
    EXPECT_NEAR(grad[j], fd, tol) << loss.name() << " coord " << j;
  }
}

TEST(SquaredLossTest, ValueMatchesFormula) {
  SquaredLoss loss(2);
  data::Row row = MakeRow({0.6, 0.8}, 1.0);
  Vec theta = {0.5, 0.0};
  // z = 0.3, value = 0.25 * (0.3 - 1)^2 = 0.1225.
  EXPECT_NEAR(loss.Value(theta, row), 0.1225, 1e-12);
}

TEST(SquaredLossTest, MinimizedAtPerfectPrediction) {
  SquaredLoss loss(1);
  data::Row row = MakeRow({1.0}, 0.4);
  EXPECT_NEAR(loss.Value({0.4}, row), 0.0, 1e-12);
}

TEST(LogisticLossTest, ValueAtZeroIsLog2) {
  LogisticLoss loss(2);
  data::Row row = MakeRow({0.6, 0.8}, 1.0);
  EXPECT_NEAR(loss.Value({0.0, 0.0}, row), std::log(2.0), 1e-12);
}

TEST(LogisticLossTest, CorrectClassificationLowersLoss) {
  LogisticLoss loss(1);
  data::Row pos = MakeRow({1.0}, 1.0);
  EXPECT_LT(loss.Value({0.9}, pos), loss.Value({-0.9}, pos));
}

TEST(HingeLossTest, ZeroBeyondMargin) {
  HingeLoss loss(1);
  data::Row row = MakeRow({1.0}, 1.0);
  EXPECT_NEAR(loss.Value({1.5}, row), 0.0, 1e-12);
  EXPECT_NEAR(loss.Value({0.0}, row), 1.0, 1e-12);
  EXPECT_NEAR(loss.Value({-1.0}, row), 2.0, 1e-12);
}

TEST(AbsoluteLossTest, Value) {
  AbsoluteLoss loss(1);
  data::Row row = MakeRow({1.0}, 0.5);
  EXPECT_NEAR(loss.Value({0.2}, row), 0.3, 1e-12);
}

TEST(HuberLossTest, QuadraticInsideLinearOutside) {
  HuberLoss loss(1, 0.5);
  data::Row row = MakeRow({1.0}, 0.0);
  EXPECT_NEAR(loss.Value({0.2}, row), 0.5 * 0.04, 1e-12);   // quadratic
  EXPECT_NEAR(loss.Value({2.0}, row), 0.5 * (2.0 - 0.25), 1e-12);  // linear
  EXPECT_NEAR(loss.lipschitz(), 0.5, 1e-12);
}

TEST(MarginLossTest, AllAreGeneralizedLinear) {
  EXPECT_TRUE(SquaredLoss(2).is_generalized_linear());
  EXPECT_TRUE(LogisticLoss(2).is_generalized_linear());
  EXPECT_TRUE(HingeLoss(2).is_generalized_linear());
  EXPECT_TRUE(AbsoluteLoss(2).is_generalized_linear());
  EXPECT_TRUE(HuberLoss(2).is_generalized_linear());
}

// Parameterized gradient sweep across every margin loss type.
class MarginLossGradientTest : public ::testing::TestWithParam<int> {
 protected:
  std::unique_ptr<convex::LossFunction> MakeLoss(int type, int dim) {
    switch (type) {
      case 0:
        return std::make_unique<SquaredLoss>(dim);
      case 1:
        return std::make_unique<LogisticLoss>(dim);
      case 2:
        return std::make_unique<HuberLoss>(dim, 1.0);
      case 3:
        return std::make_unique<AbsoluteLoss>(dim);
      default:
        return std::make_unique<HingeLoss>(dim);
    }
  }
};

TEST_P(MarginLossGradientTest, GradientMatchesFiniteDifferences) {
  const int type = GetParam() % 5;
  const int dim = 3;
  auto loss = MakeLoss(type, dim);
  Rng rng(500 + GetParam());
  for (int trial = 0; trial < 20; ++trial) {
    Vec theta = rng.InUnitBall(dim);
    // Keep away from the kink of hinge/absolute for finite differences.
    data::Row row = MakeRow(rng.OnUnitSphere(dim),
                            rng.Bernoulli(0.5) ? 1.0 : -1.0);
    double z = convex::Dot(theta, {row.features});
    if ((type == 3 || type == 4) && std::abs(z * row.label - 1.0) < 1e-3) {
      continue;
    }
    CheckGradient(*loss, theta, row, 1e-5);
  }
}

TEST_P(MarginLossGradientTest, LipschitzBoundHolds) {
  const int type = GetParam() % 5;
  const int dim = 4;
  auto loss = MakeLoss(type, dim);
  Rng rng(900 + GetParam());
  for (int trial = 0; trial < 50; ++trial) {
    Vec theta = rng.InUnitBall(dim);
    data::Row row = MakeRow(rng.OnUnitSphere(dim),
                            rng.Bernoulli(0.5) ? 1.0 : -1.0);
    Vec grad = loss->Gradient(theta, row);
    EXPECT_LE(convex::Norm2(grad), loss->lipschitz() + 1e-9)
        << loss->name();
  }
}

TEST_P(MarginLossGradientTest, ConvexityAlongSegments) {
  const int type = GetParam() % 5;
  const int dim = 3;
  auto loss = MakeLoss(type, dim);
  Rng rng(1300 + GetParam());
  for (int trial = 0; trial < 50; ++trial) {
    Vec a = rng.InUnitBall(dim);
    Vec b = rng.InUnitBall(dim);
    Vec mid(dim);
    for (int j = 0; j < dim; ++j) mid[j] = 0.5 * (a[j] + b[j]);
    data::Row row = MakeRow(rng.OnUnitSphere(dim),
                            rng.Bernoulli(0.5) ? 1.0 : -1.0);
    double lhs = loss->Value(mid, row);
    double rhs = 0.5 * loss->Value(a, row) + 0.5 * loss->Value(b, row);
    EXPECT_LE(lhs, rhs + 1e-10) << loss->name();
  }
}

INSTANTIATE_TEST_SUITE_P(AllMarginLosses, MarginLossGradientTest,
                         ::testing::Range(0, 10));

TEST(SignFlipLossTest, FlipsFeaturesAndLabel) {
  LogisticLoss base(2);
  SignFlipLoss flipped(&base, {1, -1}, -1);
  data::Row row = MakeRow({0.5, 0.5}, 1.0);
  data::Row manual = MakeRow({0.5, -0.5}, -1.0);
  Vec theta = {0.3, -0.4};
  EXPECT_NEAR(flipped.Value(theta, row), base.Value(theta, manual), 1e-12);
}

TEST(SignFlipLossTest, PreservesMetadata) {
  HingeLoss base(3);
  SignFlipLoss flipped(&base, {-1, -1, 1}, 1);
  EXPECT_EQ(flipped.lipschitz(), base.lipschitz());
  EXPECT_TRUE(flipped.is_generalized_linear());
  EXPECT_EQ(flipped.dim(), 3);
}

TEST(SignFlipLossTest, GradientMatchesFiniteDifferences) {
  SquaredLoss base(3);
  SignFlipLoss flipped(&base, {-1, 1, -1}, -1);
  Rng rng(7);
  for (int trial = 0; trial < 10; ++trial) {
    CheckGradient(flipped, rng.InUnitBall(3),
                  MakeRow(rng.OnUnitSphere(3), 1.0), 1e-5);
  }
}

TEST(TikhonovLossTest, AddsStrongConvexity) {
  LogisticLoss base(2);
  TikhonovLoss reg(&base, 0.5, {0.1, 0.1});
  EXPECT_NEAR(reg.strong_convexity(), 0.5, 1e-12);
  EXPECT_GT(reg.lipschitz(), base.lipschitz());
}

TEST(TikhonovLossTest, ValueAddsQuadratic) {
  SquaredLoss base(1);
  TikhonovLoss reg(&base, 2.0, {0.0});
  data::Row row = MakeRow({1.0}, 0.0);
  EXPECT_NEAR(reg.Value({0.5}, row),
              base.Value({0.5}, row) + 0.5 * 2.0 * 0.25, 1e-12);
}

TEST(TikhonovLossTest, StrongConvexityInequalityHolds) {
  // l(b) >= l(a) + <grad(a), b-a> + (sigma/2)||b-a||^2 (Section 1.1).
  LogisticLoss base(3);
  TikhonovLoss reg(&base, 0.7, {0.0, 0.0, 0.0});
  Rng rng(21);
  for (int trial = 0; trial < 50; ++trial) {
    Vec a = rng.InUnitBall(3);
    Vec b = rng.InUnitBall(3);
    data::Row row = MakeRow(rng.OnUnitSphere(3), 1.0);
    Vec grad = reg.Gradient(a, row);
    double lhs = reg.Value(b, row);
    double dist = convex::Dist2(a, b);
    double rhs = reg.Value(a, row) + convex::Dot(grad, convex::Sub(b, a)) +
                 0.5 * 0.7 * dist * dist;
    EXPECT_GE(lhs + 1e-10, rhs);
  }
}

TEST(TikhonovLossTest, GradientMatchesFiniteDifferences) {
  SquaredLoss base(2);
  TikhonovLoss reg(&base, 1.3, {0.2, -0.1});
  Rng rng(31);
  for (int trial = 0; trial < 10; ++trial) {
    CheckGradient(reg, rng.InUnitBall(2), MakeRow(rng.OnUnitSphere(2), -1.0),
                  1e-5);
  }
}

TEST(LinearQueryLossTest, MinimizerIsQueryAnswer) {
  // For l = (theta - p(x))^2/2, the empirical minimizer is E[p(x)].
  LinearQueryLoss loss(
      [](const data::Row& r) { return r.label > 0 ? 1.0 : 0.0; }, "label");
  data::Row pos = MakeRow({1.0}, 1.0);
  data::Row neg = MakeRow({1.0}, -1.0);
  // Mixture 30% positive: minimize 0.3*(t-1)^2/2 + 0.7*t^2/2 -> t = 0.3.
  auto objective = [&](double t) {
    return 0.3 * loss.Value({t}, pos) + 0.7 * loss.Value({t}, neg);
  };
  double best_t = 0.0, best_v = 1e9;
  for (double t = 0.0; t <= 1.0; t += 0.001) {
    if (objective(t) < best_v) {
      best_v = objective(t);
      best_t = t;
    }
  }
  EXPECT_NEAR(best_t, 0.3, 2e-3);
}

TEST(LinearQueryLossTest, GradientCorrect) {
  LinearQueryLoss loss(
      [](const data::Row& r) { return r.features[0] > 0 ? 1.0 : 0.0; },
      "feat0");
  data::Row row = MakeRow({0.5}, 0.0);
  Vec theta = {0.4};
  Vec g = loss.Gradient(theta, row);
  EXPECT_NEAR(g[0], 0.4 - 1.0, 1e-12);
}

TEST(PredicateTest, ConjunctionMatchesManually) {
  auto pred = ConjunctionPredicate({0, 2}, {1, -1}, 1);
  data::Row hit = MakeRow({0.5, -0.5, -0.5}, 1.0);
  data::Row miss_sign = MakeRow({0.5, -0.5, 0.5}, 1.0);
  data::Row miss_label = MakeRow({0.5, -0.5, -0.5}, -1.0);
  EXPECT_EQ(pred(hit), 1.0);
  EXPECT_EQ(pred(miss_sign), 0.0);
  EXPECT_EQ(pred(miss_label), 0.0);
}

TEST(PredicateTest, HalfspaceAndParity) {
  auto half = HalfspacePredicate({1.0, 0.0}, 0.2);
  EXPECT_EQ(half(MakeRow({0.5, 0.9}, 0.0)), 1.0);
  EXPECT_EQ(half(MakeRow({0.1, 0.9}, 0.0)), 0.0);
  auto parity = ParityPredicate({0, 1});
  EXPECT_EQ(parity(MakeRow({0.5, 0.5}, 0.0)), 0.0);
  EXPECT_EQ(parity(MakeRow({0.5, -0.5}, 0.0)), 1.0);
}

TEST(LipschitzFamilyTest, GeneratesDistinctValidQueries) {
  LipschitzFamily family(4);
  Rng rng(11);
  auto queries = family.Generate(32, &rng);
  EXPECT_EQ(queries.size(), 32u);
  std::set<std::string> names;
  for (const auto& q : queries) {
    ASSERT_NE(q.loss, nullptr);
    ASSERT_NE(q.domain, nullptr);
    EXPECT_EQ(q.loss->dim(), 4);
    EXPECT_LE(q.loss->lipschitz(), 1.0 + 1e-12);
    names.insert(q.label);
  }
  EXPECT_GT(names.size(), 10u);  // sign flips make most queries distinct
  EXPECT_NEAR(family.scale(), 2.0, 1e-12);
}

TEST(GlmFamilyTest, AllQueriesAreGlm) {
  GlmFamily family(3);
  Rng rng(13);
  for (const auto& q : family.Generate(16, &rng)) {
    EXPECT_TRUE(q.loss->is_generalized_linear());
  }
}

TEST(StronglyConvexFamilyTest, QueriesCarrySigma) {
  StronglyConvexFamily family(3, 0.8);
  Rng rng(15);
  for (const auto& q : family.Generate(8, &rng)) {
    EXPECT_NEAR(q.loss->strong_convexity(), 0.8, 1e-12);
  }
  EXPECT_NEAR(family.scale(), 2.0 * (1.0 + 1.2), 1e-12);
}

TEST(LinearQueryFamilyTest, OneDimensionalUnitInterval) {
  LinearQueryFamily family(5, 3, true);
  Rng rng(17);
  auto queries = family.Generate(16, &rng);
  for (const auto& q : queries) {
    EXPECT_EQ(q.loss->dim(), 1);
    EXPECT_NEAR(q.domain->Diameter(), 1.0, 1e-12);
  }
  EXPECT_NEAR(family.scale(), 1.0, 1e-12);
}

TEST(ScaleBoundTest, UnitBallLipschitzGivesTwo) {
  LogisticLoss loss(3);
  convex::L2Ball ball(3);
  convex::CmQuery query{&loss, &ball, "q"};
  EXPECT_NEAR(convex::ScaleBound(query), 2.0, 1e-12);
}

}  // namespace
}  // namespace losses
}  // namespace pmw
