#include "erm/output_perturbation_oracle.h"

#include "common/check.h"
#include "convex/empirical_loss.h"
#include "dp/mechanisms.h"

namespace pmw {
namespace erm {

OutputPerturbationOracle::OutputPerturbationOracle(
    convex::SolverOptions solver_options)
    : solver_(solver_options) {}

double OutputPerturbationOracle::MinimizerSensitivity(double lipschitz,
                                                      double strong_convexity,
                                                      int n) {
  PMW_CHECK_GT(lipschitz, 0.0);
  PMW_CHECK_GT(strong_convexity, 0.0);
  PMW_CHECK_GE(n, 1);
  return 2.0 * lipschitz / (static_cast<double>(n) * strong_convexity);
}

Result<convex::Vec> OutputPerturbationOracle::Solve(
    const convex::CmQuery& query, const data::Dataset& dataset,
    const OracleContext& context, Rng* rng) {
  PMW_CHECK(rng != nullptr);
  dp::ValidatePrivacyParams(context.privacy);
  const double sigma_sc = query.loss->strong_convexity();
  if (sigma_sc <= 0.0) {
    return Status(StatusCode::kMalformedRequest,
                  "output perturbation requires a strongly convex loss");
  }
  if (context.privacy.delta <= 0.0) {
    return Status(StatusCode::kMalformedRequest,
                  "output perturbation (Gaussian) requires delta > 0");
  }

  convex::DatasetObjective objective(query.loss, &dataset);
  convex::SolverResult solved = solver_.Minimize(objective, *query.domain);

  const double sensitivity = MinimizerSensitivity(
      query.loss->lipschitz(), sigma_sc, dataset.n());
  const double noise_sigma = dp::GaussianSigma(sensitivity, context.privacy);
  convex::Vec theta = solved.theta;
  for (double& coord : theta) coord += rng->Gaussian(0.0, noise_sigma);
  query.domain->Project(&theta);
  return theta;
}

}  // namespace erm
}  // namespace pmw
