// Unit tests for the convex substrate: vector ops, domains/projections,
// empirical objectives, and all four solvers against known optima.

#include <cmath>

#include "common/random.h"
#include "convex/auto_solver.h"
#include "convex/domain.h"
#include "convex/empirical_loss.h"
#include "convex/frank_wolfe.h"
#include "convex/golden_section.h"
#include "convex/gradient_descent.h"
#include "convex/loss_function.h"
#include "convex/vector_ops.h"
#include "data/binary_universe.h"
#include "gtest/gtest.h"

namespace pmw {
namespace convex {
namespace {

// A simple quadratic objective f(x) = ||x - target||^2 for solver tests.
class QuadraticObjective : public Objective {
 public:
  explicit QuadraticObjective(Vec target) : target_(std::move(target)) {}
  int dim() const override { return static_cast<int>(target_.size()); }
  double Value(const Vec& theta) const override {
    double acc = 0.0;
    for (size_t i = 0; i < target_.size(); ++i) {
      acc += (theta[i] - target_[i]) * (theta[i] - target_[i]);
    }
    return acc;
  }
  Vec Gradient(const Vec& theta) const override {
    Vec g(target_.size());
    for (size_t i = 0; i < target_.size(); ++i) {
      g[i] = 2.0 * (theta[i] - target_[i]);
    }
    return g;
  }

 private:
  Vec target_;
};

// Non-smooth convex: f(x) = sum |x_i - target_i|.
class AbsObjective : public Objective {
 public:
  explicit AbsObjective(Vec target) : target_(std::move(target)) {}
  int dim() const override { return static_cast<int>(target_.size()); }
  double Value(const Vec& theta) const override {
    double acc = 0.0;
    for (size_t i = 0; i < target_.size(); ++i) {
      acc += std::abs(theta[i] - target_[i]);
    }
    return acc;
  }
  Vec Gradient(const Vec& theta) const override {
    Vec g(target_.size());
    for (size_t i = 0; i < target_.size(); ++i) {
      double diff = theta[i] - target_[i];
      g[i] = diff > 0 ? 1.0 : (diff < 0 ? -1.0 : 0.0);
    }
    return g;
  }

 private:
  Vec target_;
};

// f(x) = <slope, x>; its minimum over a domain sits at a linear minimizer.
class LinearObjective : public Objective {
 public:
  explicit LinearObjective(Vec slope) : slope_(std::move(slope)) {}
  int dim() const override { return static_cast<int>(slope_.size()); }
  double Value(const Vec& theta) const override { return Dot(slope_, theta); }
  Vec Gradient(const Vec& /*theta*/) const override { return slope_; }

 private:
  Vec slope_;
};

// Forwards to `inner`, counting the Value and Gradient calls a solver makes.
class CountingObjective : public Objective {
 public:
  explicit CountingObjective(const Objective* inner) : inner_(inner) {}
  int dim() const override { return inner_->dim(); }
  double Value(const Vec& theta) const override {
    ++values;
    return inner_->Value(theta);
  }
  Vec Gradient(const Vec& theta) const override {
    ++gradients;
    return inner_->Gradient(theta);
  }

  mutable int values = 0;
  mutable int gradients = 0;

 private:
  const Objective* inner_;
};

TEST(VectorOpsTest, DotAndNorms) {
  Vec a = {1.0, 2.0, 2.0};
  Vec b = {2.0, 0.0, 1.0};
  EXPECT_NEAR(Dot(a, b), 4.0, 1e-12);
  EXPECT_NEAR(Norm2(a), 3.0, 1e-12);
  EXPECT_NEAR(Dist2(a, b), std::sqrt(1.0 + 4.0 + 1.0), 1e-12);
}

TEST(VectorOpsTest, AddSubScale) {
  Vec a = {1.0, -1.0};
  Vec b = {2.0, 3.0};
  Vec sum = Add(a, b);
  EXPECT_NEAR(sum[0], 3.0, 1e-12);
  Vec diff = Sub(a, b);
  EXPECT_NEAR(diff[1], -4.0, 1e-12);
  Vec scaled = Scaled(a, -2.0);
  EXPECT_NEAR(scaled[0], -2.0, 1e-12);
  AddScaledInPlace(&a, b, 0.5);
  EXPECT_NEAR(a[0], 2.0, 1e-12);
  ScaleInPlace(&a, 2.0);
  EXPECT_NEAR(a[0], 4.0, 1e-12);
}

TEST(L2BallTest, ProjectionInsideIsIdentity) {
  L2Ball ball(3);
  Vec v = {0.1, 0.2, -0.3};
  Vec w = v;
  ball.Project(&w);
  for (int i = 0; i < 3; ++i) EXPECT_NEAR(w[i], v[i], 1e-12);
}

TEST(L2BallTest, ProjectionOutsideHitsBoundary) {
  L2Ball ball(2);
  Vec v = {3.0, 4.0};
  ball.Project(&v);
  EXPECT_NEAR(Norm2(v), 1.0, 1e-12);
  EXPECT_NEAR(v[0], 0.6, 1e-12);
  EXPECT_NEAR(v[1], 0.8, 1e-12);
}

TEST(L2BallTest, OffCenterProjection) {
  L2Ball ball({1.0, 0.0}, 0.5);
  Vec v = {3.0, 0.0};
  ball.Project(&v);
  EXPECT_NEAR(v[0], 1.5, 1e-12);
  EXPECT_TRUE(ball.Contains(v, 1e-9));
  EXPECT_NEAR(ball.Diameter(), 1.0, 1e-12);
}

TEST(BoxTest, ProjectionClamps) {
  Box box({0.0, -1.0}, {1.0, 1.0});
  Vec v = {2.0, -3.0};
  box.Project(&v);
  EXPECT_NEAR(v[0], 1.0, 1e-12);
  EXPECT_NEAR(v[1], -1.0, 1e-12);
  EXPECT_TRUE(box.Contains(v, 1e-12));
  EXPECT_NEAR(box.Diameter(), std::sqrt(1.0 + 4.0), 1e-12);
}

TEST(IntervalTest, Basics) {
  Interval iv(0.0, 1.0);
  Vec v = {1.7};
  iv.Project(&v);
  EXPECT_NEAR(v[0], 1.0, 1e-12);
  EXPECT_NEAR(iv.Center()[0], 0.5, 1e-12);
  EXPECT_NEAR(iv.Diameter(), 1.0, 1e-12);
}

TEST(SimplexTest, ProjectionLandsOnSimplex) {
  Simplex simplex(4);
  Rng rng(9);
  for (int trial = 0; trial < 50; ++trial) {
    Vec v = rng.GaussianVector(4, 2.0);
    simplex.Project(&v);
    EXPECT_TRUE(simplex.Contains(v, 1e-9)) << "trial " << trial;
  }
}

TEST(SimplexTest, ProjectionOfSimplexPointIsIdentity) {
  Simplex simplex(3);
  Vec v = {0.2, 0.3, 0.5};
  Vec w = v;
  simplex.Project(&w);
  for (int i = 0; i < 3; ++i) EXPECT_NEAR(w[i], v[i], 1e-9);
}

// Property: projection onto a convex set is the nearest point — no sampled
// feasible point may be closer.
TEST(ProjectionPropertyTest, ProjectionIsNearestPoint) {
  Rng rng(17);
  L2Ball ball(3);
  Simplex simplex(3);
  Box box({-0.5, -0.5, -0.5}, {0.5, 0.5, 0.5});
  const Domain* domains[] = {&ball, &simplex, &box};
  for (const Domain* domain : domains) {
    for (int trial = 0; trial < 30; ++trial) {
      Vec outside = rng.GaussianVector(3, 2.0);
      Vec projected = outside;
      domain->Project(&projected);
      double best = Dist2(outside, projected);
      for (int probe = 0; probe < 40; ++probe) {
        Vec candidate = rng.GaussianVector(3, 1.0);
        domain->Project(&candidate);
        EXPECT_GE(Dist2(outside, candidate) + 1e-9, best)
            << domain->name() << " trial " << trial;
      }
    }
  }
}

TEST(GradientDescentTest, SolvesUnconstrainedQuadratic) {
  QuadraticObjective objective({0.3, -0.2});
  L2Ball ball(2);
  GradientDescentSolver solver;
  SolverResult result = solver.Minimize(objective, ball);
  EXPECT_NEAR(result.theta[0], 0.3, 1e-5);
  EXPECT_NEAR(result.theta[1], -0.2, 1e-5);
}

TEST(GradientDescentTest, RespectsConstraint) {
  QuadraticObjective objective({2.0, 0.0});  // optimum outside the ball
  L2Ball ball(2);
  GradientDescentSolver solver;
  SolverResult result = solver.Minimize(objective, ball);
  EXPECT_NEAR(result.theta[0], 1.0, 1e-4);
  EXPECT_NEAR(result.theta[1], 0.0, 1e-4);
  EXPECT_LE(Norm2(result.theta), 1.0 + 1e-9);
}

TEST(GradientDescentTest, HandlesNonSmoothObjective) {
  AbsObjective objective({0.25, -0.5});
  L2Ball ball(2);
  SolverOptions options;
  options.max_iters = 2000;
  GradientDescentSolver solver(options);
  SolverResult result = solver.Minimize(objective, ball);
  EXPECT_NEAR(result.value, 0.0, 0.01);
}

// At a boundary optimum every Armijo trial projects back onto the same
// point, so no line search succeeds and only the Frank-Wolfe gap can end the
// solve early. Each case must land within tol * (|min| + 1) of the exact
// minimum on a handful of evaluations, not after `patience` rounds of 30
// halvings.
TEST(GradientDescentTest, BoundaryOptimaStopOnTheCertificate) {
  LinearObjective flat({0.0, 0.0});
  // 1/2 ||x - (2, 0)||^2, whose minimum over the unit disc is 1/2 at (1, 0).
  PerturbedObjective pull(&flat, {0.0, 0.0}, 1.0, {2.0, 0.0});
  LinearObjective slope({3.0, -4.0, 1.0});
  LinearObjective simplex_slope({0.5, -1.0, 2.0});
  L2Ball disc(2);
  L2Ball ball(3);
  Box box({-1.0, -1.0, -1.0}, {1.0, 2.0, 1.0});
  Simplex simplex(3);
  struct Case {
    const Objective* objective;
    const Domain* domain;
    double exact;
  };
  const Case cases[] = {{&pull, &disc, 0.5},
                        {&slope, &ball, -std::sqrt(26.0)},
                        {&slope, &box, -12.0},
                        {&simplex_slope, &simplex, -1.0}};
  SolverOptions options;
  GradientDescentSolver solver(options);
  for (const Case& c : cases) {
    CountingObjective counted(c.objective);
    SolverResult result = solver.Minimize(counted, *c.domain);
    EXPECT_LE(std::abs(result.value - c.exact),
              options.tol * (std::abs(c.exact) + 1.0))
        << c.domain->name() << ": value " << result.value;
    EXPECT_LE(counted.values, 4) << c.domain->name();
    EXPECT_LE(counted.gradients, 4) << c.domain->name();
  }
}

TEST(SubgradientSolverTest, MatchesGradientDescentOnQuadratic) {
  QuadraticObjective objective({0.1, 0.4});
  L2Ball ball(2);
  SolverOptions options;
  options.max_iters = 3000;
  SubgradientSolver solver(options);
  SolverResult result = solver.Minimize(objective, ball);
  EXPECT_NEAR(result.value, 0.0, 5e-3);
}

TEST(FrankWolfeTest, LinearMinimizerBall) {
  L2Ball ball(2);
  Vec direction = {3.0, 4.0};
  Vec s = ball.LinearMinimizer(direction);
  EXPECT_NEAR(s[0], -0.6, 1e-12);
  EXPECT_NEAR(s[1], -0.8, 1e-12);
}

TEST(FrankWolfeTest, LinearMinimizerSimplexAndInterval) {
  Simplex simplex(3);
  Vec s = simplex.LinearMinimizer({0.5, -1.0, 2.0});
  EXPECT_NEAR(s[1], 1.0, 1e-12);
  Interval iv(0.0, 1.0);
  Vec t = iv.LinearMinimizer({-2.0});
  EXPECT_NEAR(t[0], 1.0, 1e-12);
}

TEST(FrankWolfeTest, LinearMinimizerBox) {
  // Per coordinate: lo where the direction is >= 0 (zero included), hi
  // where it is negative.
  Box box({-1.0, 0.0, 2.0}, {1.0, 3.0, 5.0});
  Vec s = box.LinearMinimizer({2.0, -0.5, 0.0});
  EXPECT_EQ(s[0], -1.0);
  EXPECT_EQ(s[1], 3.0);
  EXPECT_EQ(s[2], 2.0);
}

TEST(FrankWolfeTest, SolvesQuadraticOnBall) {
  QuadraticObjective objective({0.3, 0.1});
  L2Ball ball(2);
  SolverOptions options;
  options.max_iters = 4000;
  FrankWolfeSolver solver(options);
  SolverResult result = solver.Minimize(objective, ball);
  EXPECT_NEAR(result.value, 0.0, 1e-3);
}

TEST(GoldenSectionTest, ExactOnConvex1D) {
  QuadraticObjective objective({0.37});
  Interval iv(0.0, 1.0);
  GoldenSectionSolver solver;
  SolverResult result = solver.Minimize(objective, iv);
  EXPECT_NEAR(result.theta[0], 0.37, 1e-8);
  EXPECT_TRUE(result.converged);
}

TEST(GoldenSectionTest, BoundaryOptimum) {
  QuadraticObjective objective({1.8});
  Interval iv(0.0, 1.0);
  GoldenSectionSolver solver;
  SolverResult result = solver.Minimize(objective, iv);
  EXPECT_NEAR(result.theta[0], 1.0, 1e-7);
}

TEST(AutoSolverTest, DispatchesGoldenForInterval) {
  QuadraticObjective objective({0.2});
  Interval iv(0.0, 1.0);
  AutoSolver solver;
  SolverResult result = solver.Minimize(objective, iv);
  EXPECT_NEAR(result.theta[0], 0.2, 1e-7);
}

TEST(AutoSolverTest, DispatchesGdForBall) {
  QuadraticObjective objective({0.2, 0.3, -0.1});
  L2Ball ball(3);
  AutoSolver solver;
  SolverResult result = solver.Minimize(objective, ball);
  EXPECT_NEAR(result.value, 0.0, 1e-6);
}

TEST(PerturbedObjectiveTest, AddsLinearAndQuadraticTerms) {
  QuadraticObjective base({0.0, 0.0});
  PerturbedObjective perturbed(&base, {1.0, 0.0}, 2.0, {0.0, 1.0});
  Vec theta = {0.5, 0.5};
  // base = 0.5; linear = 0.5; quad = (2/2)*(0.25 + 0.25) = 0.5.
  EXPECT_NEAR(perturbed.Value(theta), 0.5 + 0.5 + 0.5, 1e-12);
  Vec g = perturbed.Gradient(theta);
  // base grad = (1, 1); + (1, 0); + 2*(0.5, -0.5) = (3, 0).
  EXPECT_NEAR(g[0], 3.0, 1e-12);
  EXPECT_NEAR(g[1], 0.0, 1e-12);
}

// A record-dependent loss for empirical-objective tests:
// l(theta; x) = ||theta - x.features||^2.
class RecordQuadraticLoss : public LossFunction {
 public:
  explicit RecordQuadraticLoss(int dim) : dim_(dim) {}
  int dim() const override { return dim_; }
  double Value(const Vec& theta, const data::Row& x) const override {
    double acc = 0.0;
    for (int i = 0; i < dim_; ++i) {
      acc += (theta[i] - x.features[i]) * (theta[i] - x.features[i]);
    }
    return acc;
  }
  void AddGradient(const Vec& theta, const data::Row& x, double weight,
                   Vec* grad) const override {
    for (int i = 0; i < dim_; ++i) {
      (*grad)[i] += weight * 2.0 * (theta[i] - x.features[i]);
    }
  }
  double lipschitz() const override { return 4.0; }
  std::string name() const override { return "record-quadratic"; }

 private:
  int dim_;
};

TEST(SupportObjectiveTest, BitIdenticalToHistogramObjective) {
  // The serving layer relies on SupportObjective(CompactSupport(h)) and
  // HistogramObjective(h) agreeing exactly — same terms, same order —
  // so a batched transcript is indistinguishable from a sequential one.
  data::HypercubeUniverse universe(3);
  RecordQuadraticLoss loss(3);
  // A histogram with zero-mass rows (indices 2 and 5 absent).
  data::Dataset dataset(&universe, {0, 0, 1, 3, 4, 6, 7, 7, 7});
  data::Histogram histogram = data::Histogram::FromDataset(dataset);
  data::HistogramSupport support = histogram.CompactSupport();
  ASSERT_LT(support.size(), static_cast<size_t>(universe.size()));

  HistogramObjective dense(&loss, &universe, &histogram);
  SupportObjective compact(&loss, &universe, &support);
  EXPECT_EQ(compact.dim(), dense.dim());

  Rng rng(424242);
  for (int trial = 0; trial < 20; ++trial) {
    Vec theta = {rng.Uniform(-2.0, 2.0), rng.Uniform(-2.0, 2.0),
                 rng.Uniform(-2.0, 2.0)};
    // Exact equality, not near-equality: identical arithmetic.
    EXPECT_EQ(compact.Value(theta), dense.Value(theta));
    Vec dense_grad = dense.Gradient(theta);
    Vec compact_grad = compact.Gradient(theta);
    ASSERT_EQ(compact_grad.size(), dense_grad.size());
    for (size_t i = 0; i < dense_grad.size(); ++i) {
      EXPECT_EQ(compact_grad[i], dense_grad[i]);
    }
  }
}

// Property sweep: all three multi-dim solvers agree on random quadratics
// over the unit ball.
class SolverAgreementTest : public ::testing::TestWithParam<int> {};

TEST_P(SolverAgreementTest, AllSolversAgreeOnRandomQuadratics) {
  Rng rng(1000 + GetParam());
  Vec target = rng.GaussianVector(3, 0.8);
  QuadraticObjective objective(target);
  L2Ball ball(3);

  SolverOptions options;
  options.max_iters = 4000;
  GradientDescentSolver gd(options);
  SubgradientSolver sub(options);
  FrankWolfeSolver fw(options);

  double v_gd = gd.Minimize(objective, ball).value;
  double v_sub = sub.Minimize(objective, ball).value;
  double v_fw = fw.Minimize(objective, ball).value;
  EXPECT_NEAR(v_gd, v_sub, 2e-2);
  EXPECT_NEAR(v_gd, v_fw, 2e-2);
}

INSTANTIATE_TEST_SUITE_P(RandomQuadratics, SolverAgreementTest,
                         ::testing::Range(0, 8));

}  // namespace
}  // namespace convex
}  // namespace pmw
