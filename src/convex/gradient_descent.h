// Projected (sub)gradient descent with Armijo backtracking line search and a
// diminishing-step fallback. The default workhorse solver: exact enough for
// smooth losses (logistic, squared) via line search, and robust for
// non-smooth losses (hinge) via the subgradient fallback plus best-iterate
// tracking. After each gradient it computes the Frank-Wolfe duality gap
// from Domain::LinearMinimizer and stops once the gap certifies the iterate
// within SolverOptions::tol of the minimum, which ends a boundary optimum
// in a few iterations instead of `patience` failed line searches. Solves
// the gap cannot certify end on the stall rule or on max_iters.

#ifndef PMWCM_CONVEX_GRADIENT_DESCENT_H_
#define PMWCM_CONVEX_GRADIENT_DESCENT_H_

#include "convex/solver.h"

namespace pmw {
namespace convex {

class GradientDescentSolver : public Solver {
 public:
  explicit GradientDescentSolver(SolverOptions options = SolverOptions());

  SolverResult Minimize(const Objective& objective, const Domain& domain,
                        const Vec* init = nullptr) const override;

  std::string name() const override { return "projected-gd"; }

 private:
  SolverOptions options_;
};

/// Plain projected subgradient descent with Polyak-style averaging and
/// diminishing steps; slower but assumption-free. Kept as a cross-check
/// solver in tests and as the inner loop of some oracles.
class SubgradientSolver : public Solver {
 public:
  explicit SubgradientSolver(SolverOptions options = SolverOptions());

  SolverResult Minimize(const Objective& objective, const Domain& domain,
                        const Vec* init = nullptr) const override;

  std::string name() const override { return "subgradient"; }

 private:
  SolverOptions options_;
};

}  // namespace convex
}  // namespace pmw

#endif  // PMWCM_CONVEX_GRADIENT_DESCENT_H_
