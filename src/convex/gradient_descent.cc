#include "convex/gradient_descent.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace pmw {
namespace convex {

GradientDescentSolver::GradientDescentSolver(SolverOptions options)
    : options_(options) {
  PMW_CHECK_GE(options_.max_iters, 1);
}

SolverResult GradientDescentSolver::Minimize(const Objective& objective,
                                             const Domain& domain,
                                             const Vec* init) const {
  PMW_CHECK_EQ(objective.dim(), domain.dim());
  Vec theta = (init != nullptr) ? *init : domain.Center();
  PMW_CHECK_EQ(static_cast<int>(theta.size()), domain.dim());
  domain.Project(&theta);

  double value = objective.Value(theta);
  Vec best_theta = theta;
  double best_value = value;
  double step = 1.0;
  int stall = 0;
  int iter = 0;
  const double diameter = std::max(domain.Diameter(), 1e-12);

  for (; iter < options_.max_iters; ++iter) {
    Vec grad = objective.Gradient(theta);
    double grad_norm = Norm2(grad);
    if (grad_norm < 1e-14) break;  // stationary (interior optimum)
    // Frank-Wolfe gap: f(theta) - min f <= <grad, theta - s> for any
    // subgradient of a convex f, so this certifies theta, kinks included.
    double gap = Dot(grad, Sub(theta, domain.LinearMinimizer(grad)));
    if (gap <= options_.tol * (std::abs(value) + 1.0)) break;

    // Backtracking Armijo search along the projected-gradient path.
    bool accepted = false;
    double trial_step = std::min(step * 2.0, 1e6);
    for (int back = 0; back < 30; ++back) {
      Vec candidate = theta;
      AddScaledInPlace(&candidate, grad, -trial_step);
      domain.Project(&candidate);
      double candidate_value = objective.Value(candidate);
      double decrease = value - candidate_value;
      double moved = Dist2(candidate, theta);
      if (decrease >= 1e-4 * grad_norm * moved && moved > 0.0) {
        theta = std::move(candidate);
        value = candidate_value;
        step = trial_step;
        accepted = true;
        break;
      }
      trial_step *= 0.5;
    }
    if (!accepted) {
      // Non-smooth kink: take a diminishing subgradient step instead.
      double fallback = diameter / (grad_norm * std::sqrt(iter + 1.0));
      Vec candidate = theta;
      AddScaledInPlace(&candidate, grad, -fallback);
      domain.Project(&candidate);
      theta = std::move(candidate);
      value = objective.Value(theta);
    }
    double improvement = best_value - value;
    if (improvement > 0.0) {
      best_value = value;
      best_theta = theta;
    }
    if (improvement > options_.tol * (std::abs(best_value) + 1e-12)) {
      stall = 0;
    } else {
      ++stall;
      if (stall >= options_.patience) break;
    }
  }

  SolverResult result;
  result.theta = std::move(best_theta);
  result.value = best_value;
  result.iterations = iter;
  result.converged = iter < options_.max_iters;
  return result;
}

SubgradientSolver::SubgradientSolver(SolverOptions options)
    : options_(options) {
  PMW_CHECK_GE(options_.max_iters, 1);
}

SolverResult SubgradientSolver::Minimize(const Objective& objective,
                                         const Domain& domain,
                                         const Vec* init) const {
  PMW_CHECK_EQ(objective.dim(), domain.dim());
  Vec theta = (init != nullptr) ? *init : domain.Center();
  domain.Project(&theta);

  const double diameter = std::max(domain.Diameter(), 1e-12);
  const double sigma = options_.strong_convexity;
  Vec average = theta;
  double average_weight = 1.0;
  Vec best_theta = theta;
  double best_value = objective.Value(theta);

  int iter = 0;
  for (; iter < options_.max_iters; ++iter) {
    Vec grad = objective.Gradient(theta);
    double grad_norm = Norm2(grad);
    if (grad_norm < 1e-14) break;
    double step;
    if (sigma > 0.0) {
      step = 2.0 / (sigma * (iter + 2.0));
    } else {
      step = diameter / (grad_norm * std::sqrt(iter + 1.0));
    }
    AddScaledInPlace(&theta, grad, -step);
    domain.Project(&theta);

    // Weighted running average (weight t+1 favours later iterates).
    double w = iter + 2.0;
    for (size_t i = 0; i < average.size(); ++i) {
      average[i] = (average[i] * average_weight + theta[i] * w) /
                   (average_weight + w);
    }
    average_weight += w;

    if ((iter + 1) % 16 == 0 || iter + 1 == options_.max_iters) {
      double avg_value = objective.Value(average);
      if (avg_value < best_value) {
        best_value = avg_value;
        best_theta = average;
      }
      double cur_value = objective.Value(theta);
      if (cur_value < best_value) {
        best_value = cur_value;
        best_theta = theta;
      }
    }
  }

  SolverResult result;
  result.theta = std::move(best_theta);
  result.value = best_value;
  result.iterations = iter;
  result.converged = true;
  return result;
}

}  // namespace convex
}  // namespace pmw
