// Output perturbation for strongly convex losses (Chaudhuri-Monteleoni-
// Sarwate style; one of the BST14 routes behind paper Theorem 4.5).
//
// For a sigma-strongly convex empirical loss, the exact minimizer has L2
// sensitivity at most 2L/(n sigma) between neighbouring datasets, so
// releasing argmin + Gaussian noise calibrated to that sensitivity is
// (eps, delta)-DP. Excess risk is O(L sigma_noise sqrt(d)) — the
// sqrt(d)/(sigma alpha eps) shape of Table 1 row 4's single-query column.

#ifndef PMWCM_ERM_OUTPUT_PERTURBATION_ORACLE_H_
#define PMWCM_ERM_OUTPUT_PERTURBATION_ORACLE_H_

#include "convex/auto_solver.h"
#include "erm/oracle.h"

namespace pmw {
namespace erm {

class OutputPerturbationOracle : public Oracle {
 public:
  explicit OutputPerturbationOracle(convex::SolverOptions solver_options = {});

  /// Requires query.loss->strong_convexity() > 0 (returns
  /// kMalformedRequest otherwise) and delta > 0.
  Result<convex::Vec> Solve(const convex::CmQuery& query,
                            const data::Dataset& dataset,
                            const OracleContext& context, Rng* rng) override;

  std::string name() const override { return "output-perturbation"; }

  /// The minimizer's L2 sensitivity bound 2L/(n sigma).
  static double MinimizerSensitivity(double lipschitz, double strong_convexity,
                                     int n);

 private:
  convex::AutoSolver solver_;
};

}  // namespace erm
}  // namespace pmw

#endif  // PMWCM_ERM_OUTPUT_PERTURBATION_ORACLE_H_
