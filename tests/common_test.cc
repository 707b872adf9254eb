// Unit tests for the common substrate: math, stats, random, results, tables.

#include <cmath>
#include <limits>
#include <vector>

#include "common/math_util.h"
#include "common/random.h"
#include "common/result.h"
#include "common/stats.h"
#include "common/table_printer.h"
#include "gtest/gtest.h"

namespace pmw {
namespace {

TEST(MathUtilTest, ClampInsideRange) { EXPECT_EQ(Clamp(0.5, 0.0, 1.0), 0.5); }

TEST(MathUtilTest, ClampBelow) { EXPECT_EQ(Clamp(-3.0, 0.0, 1.0), 0.0); }

TEST(MathUtilTest, ClampAbove) { EXPECT_EQ(Clamp(7.0, 0.0, 1.0), 1.0); }

TEST(MathUtilTest, LogSumExpMatchesDirectComputation) {
  std::vector<double> v = {0.1, -2.0, 1.5};
  double direct = std::log(std::exp(0.1) + std::exp(-2.0) + std::exp(1.5));
  EXPECT_NEAR(LogSumExp(v), direct, 1e-12);
}

TEST(MathUtilTest, LogSumExpStableForLargeValues) {
  std::vector<double> v = {1000.0, 1000.0};
  EXPECT_NEAR(LogSumExp(v), 1000.0 + std::log(2.0), 1e-9);
}

TEST(MathUtilTest, LogSumExpSingleElement) {
  EXPECT_NEAR(LogSumExp({-3.25}), -3.25, 1e-12);
}

TEST(MathUtilTest, Log1PExpMatchesNaiveInMidRange) {
  for (double z : {-5.0, -1.0, 0.0, 1.0, 5.0}) {
    EXPECT_NEAR(Log1PExp(z), std::log1p(std::exp(z)), 1e-12);
  }
}

TEST(MathUtilTest, Log1PExpLargePositiveIsLinear) {
  EXPECT_NEAR(Log1PExp(100.0), 100.0, 1e-9);
}

TEST(MathUtilTest, SigmoidSymmetry) {
  for (double z : {-30.0, -2.0, 0.0, 0.7, 30.0}) {
    EXPECT_NEAR(Sigmoid(z) + Sigmoid(-z), 1.0, 1e-12);
  }
}

TEST(MathUtilTest, SigmoidAtZero) { EXPECT_NEAR(Sigmoid(0.0), 0.5, 1e-15); }

/// |got - want| in units of the last place of want rounded to double.
long double UlpError(double got, long double want) {
  const double w = static_cast<double>(want);
  const long double ulp = std::ldexp(1.0L, std::ilogb(w) - 52);
  return std::fabs(static_cast<long double>(got) - want) / ulp;
}

TEST(MathUtilTest, LogisticPolynomialWithinUlpsOfLongDouble) {
  // Half the points uniform on [-700, 700], half log-uniform in
  // magnitude on [2^-30, 2^9.45] so the range near 0 is covered too.
  Rng rng(2015);
  long double worst_softplus = 0.0L, worst_sigmoid = 0.0L;
  double at_softplus = 0.0, at_sigmoid = 0.0;
  for (int i = 0; i < 1'000'000; ++i) {
    double z = rng.Uniform(-700.0, 700.0);
    if (i % 2 == 1) {
      z = std::exp2(rng.Uniform(-30.0, 9.45)) * (i % 4 == 1 ? 1.0 : -1.0);
    }
    const long double zl = z;
    const long double softplus = UlpError(Log1PExp(z), log1pl(expl(zl)));
    const long double sigmoid =
        UlpError(Sigmoid(z), 1.0L / (1.0L + expl(-zl)));
    if (softplus > worst_softplus) {
      worst_softplus = softplus;
      at_softplus = z;
    }
    if (sigmoid > worst_sigmoid) {
      worst_sigmoid = sigmoid;
      at_sigmoid = z;
    }
  }
  EXPECT_LE(worst_softplus, 4.0L) << "Log1PExp at z = " << at_softplus;
  EXPECT_LE(worst_sigmoid, 3.0L) << "Sigmoid at z = " << at_sigmoid;

  EXPECT_EQ(Sigmoid(0.0), 0.5);
  EXPECT_EQ(Sigmoid(-0.0), 0.5);
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(Log1PExp(inf), inf);
  EXPECT_EQ(Log1PExp(-inf), 0.0);
  EXPECT_EQ(Sigmoid(inf), 1.0);
  EXPECT_EQ(Sigmoid(-inf), 0.0);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_TRUE(std::isnan(Log1PExp(nan)));
  EXPECT_TRUE(std::isnan(Sigmoid(nan)));
  // Past 708, e^-|z| < 1e-300: the results sit within 1e-300 of their
  // limits z, 0, 1 and 0.
  for (double z : {708.5, 709.0, 745.0, 746.0, 1000.0, 1e300}) {
    EXPECT_LE(std::abs(Log1PExp(z) - z), 1e-300) << z;
    EXPECT_GE(Log1PExp(-z), 0.0) << z;
    EXPECT_LE(Log1PExp(-z), 1e-300) << z;
    EXPECT_LE(std::abs(Sigmoid(z) - 1.0), 1e-300) << z;
    EXPECT_GE(Sigmoid(-z), 0.0) << z;
    EXPECT_LE(Sigmoid(-z), 1e-300) << z;
  }
}

TEST(MathUtilTest, KlDivergenceZeroForIdentical) {
  std::vector<double> p = {0.2, 0.3, 0.5};
  EXPECT_NEAR(KlDivergence(p, p), 0.0, 1e-12);
}

TEST(MathUtilTest, KlDivergenceNonNegative) {
  std::vector<double> p = {0.7, 0.2, 0.1};
  std::vector<double> q = {0.1, 0.45, 0.45};
  EXPECT_GE(KlDivergence(p, q), 0.0);
  EXPECT_GE(KlDivergence(q, p), 0.0);
}

TEST(MathUtilTest, KlNormalizesInputs) {
  std::vector<double> p = {2.0, 3.0, 5.0};
  std::vector<double> p_norm = {0.2, 0.3, 0.5};
  std::vector<double> q = {1.0, 1.0, 2.0};
  EXPECT_NEAR(KlDivergence(p, q), KlDivergence(p_norm, q), 1e-12);
}

TEST(MathUtilTest, CeilLog2) {
  EXPECT_EQ(CeilLog2(1), 0);
  EXPECT_EQ(CeilLog2(2), 1);
  EXPECT_EQ(CeilLog2(3), 2);
  EXPECT_EQ(CeilLog2(1024), 10);
  EXPECT_EQ(CeilLog2(1025), 11);
}

TEST(MathUtilTest, NextPow2) {
  EXPECT_EQ(NextPow2(1), 1);
  EXPECT_EQ(NextPow2(5), 8);
  EXPECT_EQ(NextPow2(8), 8);
}

TEST(RunningStatsTest, MeanAndVariance) {
  RunningStats s;
  for (double x : {1.0, 2.0, 3.0, 4.0}) s.Add(x);
  EXPECT_EQ(s.count(), 4);
  EXPECT_NEAR(s.mean(), 2.5, 1e-12);
  EXPECT_NEAR(s.variance(), 5.0 / 3.0, 1e-12);
  EXPECT_NEAR(s.min(), 1.0, 1e-12);
  EXPECT_NEAR(s.max(), 4.0, 1e-12);
  EXPECT_NEAR(s.sum(), 10.0, 1e-12);
}

TEST(RunningStatsTest, SingleValueHasZeroVariance) {
  RunningStats s;
  s.Add(42.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(StatsTest, QuantileEndpoints) {
  std::vector<double> v = {3.0, 1.0, 2.0};
  EXPECT_NEAR(Quantile(v, 0.0), 1.0, 1e-12);
  EXPECT_NEAR(Quantile(v, 1.0), 3.0, 1e-12);
  EXPECT_NEAR(Quantile(v, 0.5), 2.0, 1e-12);
}

TEST(StatsTest, MeanAndStdDev) {
  std::vector<double> v = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  EXPECT_NEAR(Mean(v), 5.0, 1e-12);
  EXPECT_NEAR(StdDev(v), std::sqrt(32.0 / 7.0), 1e-12);
  EXPECT_NEAR(Max(v), 9.0, 1e-12);
}

TEST(RngTest, DeterministicWithSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Uniform(), b.Uniform());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Uniform() == b.Uniform()) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(RngTest, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    double u = rng.Uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformIntCoversSupport) {
  Rng rng(7);
  std::vector<int> seen(5, 0);
  for (int i = 0; i < 5000; ++i) seen[rng.UniformInt(5)] += 1;
  for (int c : seen) EXPECT_GT(c, 800);
}

TEST(RngTest, LaplaceMomentsMatch) {
  Rng rng(99);
  const double scale = 2.0;
  RunningStats s;
  for (int i = 0; i < 200000; ++i) s.Add(rng.Laplace(scale));
  // Mean 0, variance 2 * scale^2 = 8.
  EXPECT_NEAR(s.mean(), 0.0, 0.05);
  EXPECT_NEAR(s.variance(), 8.0, 0.4);
}

TEST(RngTest, GaussianMomentsMatch) {
  Rng rng(17);
  RunningStats s;
  for (int i = 0; i < 200000; ++i) s.Add(rng.Gaussian(1.0, 3.0));
  EXPECT_NEAR(s.mean(), 1.0, 0.05);
  EXPECT_NEAR(s.stddev(), 3.0, 0.05);
}

TEST(RngTest, GumbelMeanIsEulerMascheroni) {
  Rng rng(31);
  RunningStats s;
  for (int i = 0; i < 200000; ++i) s.Add(rng.Gumbel());
  EXPECT_NEAR(s.mean(), 0.5772156649, 0.02);
}

TEST(RngTest, OnUnitSphereHasUnitNorm) {
  Rng rng(5);
  for (int d : {1, 2, 5, 10}) {
    std::vector<double> v = rng.OnUnitSphere(d);
    double norm_sq = 0.0;
    for (double z : v) norm_sq += z * z;
    EXPECT_NEAR(norm_sq, 1.0, 1e-10);
  }
}

TEST(RngTest, InUnitBallStaysInside) {
  Rng rng(6);
  for (int i = 0; i < 100; ++i) {
    std::vector<double> v = rng.InUnitBall(4);
    double norm_sq = 0.0;
    for (double z : v) norm_sq += z * z;
    EXPECT_LE(norm_sq, 1.0 + 1e-12);
  }
}

TEST(RngTest, CategoricalRespectsWeights) {
  Rng rng(11);
  std::vector<double> w = {1.0, 0.0, 3.0};
  std::vector<int> counts(3, 0);
  for (int i = 0; i < 40000; ++i) counts[rng.Categorical(w)] += 1;
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / 40000.0, 0.75, 0.02);
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(13);
  int hits = 0;
  for (int i = 0; i < 50000; ++i) hits += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / 50000.0, 0.3, 0.02);
}

TEST(ResultTest, OkResultCarriesValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(*r, 42);
}

TEST(ResultTest, ErrorResultCarriesStatus) {
  Result<int> r(Status::Halted("sparse vector exhausted"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kHalted);
  EXPECT_EQ(r.status().message(), "sparse vector exhausted");
}

TEST(StatusTest, ToStringIncludesMessage) {
  Status s(StatusCode::kMalformedRequest, "bad alpha");
  EXPECT_NE(s.ToString().find("bad alpha"), std::string::npos);
  EXPECT_TRUE(Status::Ok().ok());
}

TEST(StatusTest, CodesPrintTheirNames) {
  EXPECT_EQ(Status(StatusCode::kHalted, "sparse vector exhausted").ToString(),
            "kHalted: sparse vector exhausted");
  EXPECT_EQ(Status::Ok().ToString(), "OK");
  EXPECT_EQ(::testing::PrintToString(StatusCode::kHalted), "kHalted");
  EXPECT_STREQ(StatusCodeName(StatusCode::kNotConverged), "kNotConverged");
}

TEST(TablePrinterTest, AlignsColumns) {
  TablePrinter t({"name", "value"});
  t.AddRow({"alpha", "0.1"});
  t.AddRow({"a-very-long-name", "2"});
  std::string out = t.ToString();
  EXPECT_NE(out.find("| name"), std::string::npos);
  EXPECT_NE(out.find("a-very-long-name"), std::string::npos);
  EXPECT_EQ(t.row_count(), 2);
}

TEST(TablePrinterTest, FormatHelpers) {
  EXPECT_EQ(TablePrinter::Fmt(1.23456, 2), "1.23");
  EXPECT_EQ(TablePrinter::FmtInt(77), "77");
  EXPECT_EQ(TablePrinter::FmtSci(12345.0, 1), "1.2e+04");
}

TEST(AlmostEqualTest, RespectsTolerances) {
  EXPECT_TRUE(AlmostEqual(1.0, 1.0 + 1e-12));
  EXPECT_FALSE(AlmostEqual(1.0, 1.1));
}

}  // namespace
}  // namespace pmw
