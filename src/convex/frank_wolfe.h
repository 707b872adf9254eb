// Frank-Wolfe (conditional gradient) solver. Projection-free: each step
// moves towards Domain::LinearMinimizer of the gradient, which every domain
// answers in closed form, and stops on the duality gap that vertex
// certifies. Useful for smooth losses over the unit ball and as an
// independent cross-check of the projected-gradient solver.

#ifndef PMWCM_CONVEX_FRANK_WOLFE_H_
#define PMWCM_CONVEX_FRANK_WOLFE_H_

#include "convex/solver.h"

namespace pmw {
namespace convex {

class FrankWolfeSolver : public Solver {
 public:
  explicit FrankWolfeSolver(SolverOptions options = SolverOptions());

  SolverResult Minimize(const Objective& objective, const Domain& domain,
                        const Vec* init = nullptr) const override;

  std::string name() const override { return "frank-wolfe"; }

 private:
  SolverOptions options_;
};

}  // namespace convex
}  // namespace pmw

#endif  // PMWCM_CONVEX_FRANK_WOLFE_H_
