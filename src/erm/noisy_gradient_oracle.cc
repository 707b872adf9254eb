#include "erm/noisy_gradient_oracle.h"

#include <cmath>

#include "common/check.h"
#include "convex/empirical_loss.h"
#include "dp/composition.h"
#include "dp/mechanisms.h"

namespace pmw {
namespace erm {

NoisyGradientOracle::NoisyGradientOracle(NoisyGradientOptions options)
    : options_(options) {
  PMW_CHECK_GE(options.steps, 1);
}

Result<convex::Vec> NoisyGradientOracle::Solve(const convex::CmQuery& query,
                                               const data::Dataset& dataset,
                                               const OracleContext& context,
                                               Rng* rng) {
  PMW_CHECK(rng != nullptr);
  dp::ValidatePrivacyParams(context.privacy);
  if (context.privacy.delta <= 0.0) {
    return Status(
        StatusCode::kMalformedRequest,
        "noisy-gd oracle needs delta > 0 for per-step strong composition");
  }
  const convex::Domain& domain = *query.domain;
  const int d = domain.dim();
  const double lipschitz = query.loss->lipschitz();
  const double n = static_cast<double>(dataset.n());

  // Per-step budget and Gaussian scale for gradient sensitivity 2L/n.
  dp::PrivacyParams per_step =
      dp::PerRoundBudget(context.privacy, options_.steps);
  const double sensitivity = 2.0 * lipschitz / n;
  const double sigma = dp::GaussianSigma(sensitivity, per_step);

  convex::DatasetObjective objective(query.loss, &dataset);
  convex::Vec theta = domain.Center();
  convex::Vec sum = theta;

  // Constant step size D / (G sqrt(T)) with G^2 = L^2 + d sigma^2, the
  // standard SGD tuning for noisy gradients.
  const double diameter = domain.Diameter();
  const double grad_bound =
      std::sqrt(lipschitz * lipschitz + d * sigma * sigma);
  const double step =
      diameter / (std::max(grad_bound, 1e-12) *
                  std::sqrt(static_cast<double>(options_.steps)));

  for (int t = 0; t < options_.steps; ++t) {
    convex::Vec grad = objective.Gradient(theta);
    for (int j = 0; j < d; ++j) grad[j] += rng->Gaussian(0.0, sigma);
    convex::AddScaledInPlace(&theta, grad, -step);
    domain.Project(&theta);
    if (options_.average_iterates) {
      convex::AddScaledInPlace(&sum, theta, 1.0);
    }
  }
  if (!options_.average_iterates) return theta;
  convex::ScaleInPlace(&sum, 1.0 / (options_.steps + 1.0));
  domain.Project(&sum);
  return sum;
}

}  // namespace erm
}  // namespace pmw
