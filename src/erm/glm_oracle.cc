#include "erm/glm_oracle.h"

#include <cmath>

#include "common/check.h"
#include "convex/empirical_loss.h"
#include "dp/mechanisms.h"

namespace pmw {
namespace erm {

GlmOracle::GlmOracle(convex::SolverOptions solver_options)
    : solver_(solver_options) {}

double GlmOracle::RidgeWeight(double target_alpha, double domain_radius) {
  PMW_CHECK_GT(target_alpha, 0.0);
  PMW_CHECK_GT(domain_radius, 0.0);
  return target_alpha / (domain_radius * domain_radius);
}

Result<convex::Vec> GlmOracle::Solve(const convex::CmQuery& query,
                                     const data::Dataset& dataset,
                                     const OracleContext& context, Rng* rng) {
  PMW_CHECK(rng != nullptr);
  dp::ValidatePrivacyParams(context.privacy);
  if (!query.loss->is_generalized_linear()) {
    return Status(StatusCode::kMalformedRequest,
                  "glm oracle requires a GLM loss");
  }
  if (context.privacy.delta <= 0.0) {
    return Status(StatusCode::kMalformedRequest,
                  "glm oracle requires delta > 0");
  }

  const convex::Domain& domain = *query.domain;
  const double radius = 0.5 * domain.Diameter();
  const double mu = RidgeWeight(context.target_alpha, radius);

  // Regularized empirical objective l_D(theta) + (mu/2)||theta||^2.
  convex::DatasetObjective base(query.loss, &dataset);
  convex::PerturbedObjective regularized(&base, convex::Zeros(domain.dim()),
                                         mu, convex::Zeros(domain.dim()));
  convex::SolverResult solved = solver_.Minimize(regularized, domain);

  // The regularized objective is mu-strongly convex, so the minimizer's
  // sensitivity is 2(L + mu * radius)/(n mu); the ridge gradient term adds
  // mu * radius to the effective Lipschitz constant over the domain.
  const double effective_lipschitz = query.loss->lipschitz() + mu * radius;
  const double sensitivity =
      2.0 * effective_lipschitz / (static_cast<double>(dataset.n()) * mu);
  const double noise_sigma = dp::GaussianSigma(sensitivity, context.privacy);

  convex::Vec theta = solved.theta;
  for (double& coord : theta) coord += rng->Gaussian(0.0, noise_sigma);
  domain.Project(&theta);
  return theta;
}

}  // namespace erm
}  // namespace pmw
