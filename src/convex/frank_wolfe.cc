#include "convex/frank_wolfe.h"

#include <cmath>

#include "common/check.h"

namespace pmw {
namespace convex {

FrankWolfeSolver::FrankWolfeSolver(SolverOptions options)
    : options_(options) {
  PMW_CHECK_GE(options_.max_iters, 1);
}

SolverResult FrankWolfeSolver::Minimize(const Objective& objective,
                                        const Domain& domain,
                                        const Vec* init) const {
  PMW_CHECK_EQ(objective.dim(), domain.dim());
  Vec theta = (init != nullptr) ? *init : domain.Center();
  domain.Project(&theta);

  Vec best_theta = theta;
  double best_value = objective.Value(theta);
  int iter = 0;
  for (; iter < options_.max_iters; ++iter) {
    Vec grad = objective.Gradient(theta);
    Vec s = domain.LinearMinimizer(grad);
    // Duality gap <grad, theta - s> certifies optimality.
    Vec direction = Sub(s, theta);
    double gap = -Dot(grad, direction);
    if (gap <= options_.tol * (std::abs(best_value) + 1.0)) {
      ++iter;
      break;
    }
    double gamma = 2.0 / (iter + 2.0);
    AddScaledInPlace(&theta, direction, gamma);
    double value = objective.Value(theta);
    if (value < best_value) {
      best_value = value;
      best_theta = theta;
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
