// Objective perturbation (Chaudhuri-Monteleoni-Sarwate / Kifer-Smith-
// Thakurta style): minimize the empirical loss plus a random linear term
// and a small ridge,
//   theta_hat = argmin l_D(theta) + <b, theta>/n + (mu/2)||theta||^2,
// with Gaussian b. Often more accurate than output perturbation in practice
// for smooth losses; shipped as an alternative A' and ablation subject.
// Calibration follows the KST12 Gaussian variant: ||b|| noise scale
// 2L sqrt(2 ln(1.25/delta))/eps and ridge mu >= 2 beta_smooth/(n eps),
// where beta_smooth bounds the per-record Hessian norm.

#ifndef PMWCM_ERM_OBJECTIVE_PERTURBATION_ORACLE_H_
#define PMWCM_ERM_OBJECTIVE_PERTURBATION_ORACLE_H_

#include "convex/auto_solver.h"
#include "erm/oracle.h"

namespace pmw {
namespace erm {

struct ObjectivePerturbationOptions {
  /// Per-record smoothness bound used for the ridge weight (the library's
  /// normalized margin losses all satisfy beta_smooth <= 1).
  double smoothness_bound = 1.0;
};

class ObjectivePerturbationOracle : public Oracle {
 public:
  explicit ObjectivePerturbationOracle(
      ObjectivePerturbationOptions options = {},
      convex::SolverOptions solver_options = {});

  /// Requires delta > 0.
  Result<convex::Vec> Solve(const convex::CmQuery& query,
                            const data::Dataset& dataset,
                            const OracleContext& context, Rng* rng) override;

  std::string name() const override { return "objective-perturbation"; }

 private:
  ObjectivePerturbationOptions options_;
  convex::AutoSolver solver_;
};

}  // namespace erm
}  // namespace pmw

#endif  // PMWCM_ERM_OBJECTIVE_PERTURBATION_ORACLE_H_
