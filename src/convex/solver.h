// Solver interfaces for constrained convex minimization.
//
// The PMW algorithm (Figure 3) needs non-private argmins over the public
// hypothesis histogram and over the private dataset (inside the sensitivity-
// bounded error query); the single-query oracles in src/erm need them too.

#ifndef PMWCM_CONVEX_SOLVER_H_
#define PMWCM_CONVEX_SOLVER_H_

#include <string>

#include "convex/domain.h"
#include "convex/empirical_loss.h"

namespace pmw {
namespace convex {

/// Tuning knobs shared by all solvers.
struct SolverOptions {
  /// Hard iteration cap.
  int max_iters = 400;
  /// Relative tolerance. Frank-Wolfe and projected gradient descent stop
  /// on the certificate: the duality gap <g, theta - s>, s minimizing
  /// <g, .> over the domain, is at most tol * (|f(theta)| + 1), which
  /// bounds f(theta) - min f by the same amount. Projected gradient
  /// descent also applies the stall rule below with it; golden section
  /// scales its bracket width by it.
  double tol = 1e-10;
  /// Stall rule, projected gradient descent only: stop, uncertified, after
  /// this many consecutive iterations that improve the best value by no
  /// more than tol * |best|. It ends the smooth solves whose gap closes
  /// more slowly than their value.
  int patience = 8;
  /// Strong-convexity modulus, if known, to enable 1/(sigma t) step sizes.
  double strong_convexity = 0.0;
};

/// Outcome of a minimization.
struct SolverResult {
  Vec theta;
  double value = 0.0;
  int iterations = 0;
  bool converged = false;
};

/// Interface: minimize `objective` over `domain`.
class Solver {
 public:
  virtual ~Solver() = default;

  /// Minimizes from `init` (or the domain centre when nullptr).
  virtual SolverResult Minimize(const Objective& objective,
                                const Domain& domain,
                                const Vec* init = nullptr) const = 0;

  virtual std::string name() const = 0;
};

}  // namespace convex
}  // namespace pmw

#endif  // PMWCM_CONVEX_SOLVER_H_
