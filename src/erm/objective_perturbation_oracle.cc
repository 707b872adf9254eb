#include "erm/objective_perturbation_oracle.h"

#include <cmath>

#include "common/check.h"
#include "convex/empirical_loss.h"
#include "dp/mechanisms.h"

namespace pmw {
namespace erm {

ObjectivePerturbationOracle::ObjectivePerturbationOracle(
    ObjectivePerturbationOptions options, convex::SolverOptions solver_options)
    : options_(options), solver_(solver_options) {
  PMW_CHECK_GT(options.smoothness_bound, 0.0);
}

Result<convex::Vec> ObjectivePerturbationOracle::Solve(
    const convex::CmQuery& query, const data::Dataset& dataset,
    const OracleContext& context, Rng* rng) {
  PMW_CHECK(rng != nullptr);
  dp::ValidatePrivacyParams(context.privacy);
  if (context.privacy.delta <= 0.0) {
    return Status(
        StatusCode::kMalformedRequest,
        "objective perturbation (Gaussian variant) requires delta > 0");
  }
  const convex::Domain& domain = *query.domain;
  const int d = domain.dim();
  const double n = static_cast<double>(dataset.n());
  const double lipschitz = query.loss->lipschitz();

  // Half the epsilon pays for the noise vector, half for the ridge slack.
  const double eps_noise = 0.5 * context.privacy.epsilon;
  const double b_sigma =
      2.0 * lipschitz *
      std::sqrt(2.0 * std::log(1.25 / context.privacy.delta)) / eps_noise;
  const double mu =
      2.0 * options_.smoothness_bound /
      (n * std::max(0.5 * context.privacy.epsilon, 1e-12));

  convex::Vec b = rng->GaussianVector(d, b_sigma);
  convex::ScaleInPlace(&b, 1.0 / n);

  convex::DatasetObjective base(query.loss, &dataset);
  convex::PerturbedObjective perturbed(&base, std::move(b), mu,
                                       convex::Zeros(d));
  convex::SolverResult solved = solver_.Minimize(perturbed, domain);
  return solved.theta;
}

}  // namespace erm
}  // namespace pmw
