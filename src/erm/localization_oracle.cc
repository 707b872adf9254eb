#include "erm/localization_oracle.h"

#include <cmath>

#include "common/check.h"
#include "convex/empirical_loss.h"
#include "dp/mechanisms.h"
#include "erm/output_perturbation_oracle.h"

namespace pmw {
namespace erm {

LocalizationOracle::LocalizationOracle(LocalizationOptions options)
    : options_(options) {
  PMW_CHECK_GE(options.phases, 1);
}

Result<convex::Vec> LocalizationOracle::Solve(const convex::CmQuery& query,
                                              const data::Dataset& dataset,
                                              const OracleContext& context,
                                              Rng* rng) {
  PMW_CHECK(rng != nullptr);
  dp::ValidatePrivacyParams(context.privacy);
  const double sigma_sc = query.loss->strong_convexity();
  if (sigma_sc <= 0.0) {
    return Status(StatusCode::kMalformedRequest,
                  "localization requires a strongly convex loss");
  }
  if (context.privacy.delta <= 0.0) {
    return Status(StatusCode::kMalformedRequest,
                  "localization requires delta > 0");
  }

  // BST14-style localization: phase i re-solves with an extra regularizer
  // lambda_i ||theta - center_{i-1}||^2 whose weight doubles each phase.
  // The regularized problem is (sigma + lambda_i)-strongly convex, so the
  // minimizer's sensitivity — and hence the Gaussian noise — shrinks
  // geometrically, while the regularizer's bias stays controlled because
  // the centres converge to the optimum. Budgets are allocated
  // geometrically (later, lower-noise phases get more of epsilon) under
  // basic composition.
  const convex::Domain& domain = *query.domain;
  const int phases = options_.phases;
  const double lipschitz = query.loss->lipschitz();
  const double n = static_cast<double>(dataset.n());

  double weight_total = 0.0;
  for (int i = 0; i < phases; ++i) weight_total += std::pow(2.0, i);

  convex::DatasetObjective base(query.loss, &dataset);
  convex::Vec center = domain.Center();

  for (int i = 0; i < phases; ++i) {
    double share = std::pow(2.0, i) / weight_total;
    dp::PrivacyParams phase_budget{context.privacy.epsilon * share,
                                   context.privacy.delta * share};
    double lambda = (i == 0) ? 0.0 : sigma_sc * (std::pow(2.0, i) - 1.0);
    convex::PerturbedObjective regularized(
        &base, convex::Zeros(domain.dim()), lambda, center);
    convex::SolverResult solved = solver_.Minimize(regularized, domain,
                                                   &center);
    // Only the data term varies between neighbouring datasets (the
    // regularizer is a fixed public function given the previous phases'
    // outputs), so the minimizer's sensitivity is 2L/(n (sigma + lambda)).
    double sensitivity = OutputPerturbationOracle::MinimizerSensitivity(
        lipschitz, sigma_sc + lambda, dataset.n());
    (void)n;
    double noise_sigma = dp::GaussianSigma(sensitivity, phase_budget);
    convex::Vec theta = solved.theta;
    for (double& coord : theta) coord += rng->Gaussian(0.0, noise_sigma);
    domain.Project(&theta);
    center = std::move(theta);
  }
  return center;
}

}  // namespace erm
}  // namespace pmw
