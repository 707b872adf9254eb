#include "erm/private_frank_wolfe_oracle.h"

#include <cmath>

#include "common/check.h"
#include "convex/empirical_loss.h"
#include "convex/frank_wolfe.h"
#include "dp/composition.h"
#include "dp/mechanisms.h"

namespace pmw {
namespace erm {
namespace {

// Data-independent vertex set for the domain: corners for boxes/intervals/
// simplices, a fixed sphere net for L2 balls.
std::vector<convex::Vec> VertexSet(const convex::Domain& domain,
                                   int sphere_net_size) {
  std::vector<convex::Vec> vertices;
  if (const auto* interval =
          dynamic_cast<const convex::Interval*>(&domain)) {
    vertices.push_back({interval->lo()});
    vertices.push_back({interval->hi()});
    return vertices;
  }
  if (dynamic_cast<const convex::Simplex*>(&domain) != nullptr) {
    for (int i = 0; i < domain.dim(); ++i) {
      convex::Vec v = convex::Zeros(domain.dim());
      v[i] = 1.0;
      vertices.push_back(std::move(v));
    }
    return vertices;
  }
  if (const auto* ball = dynamic_cast<const convex::L2Ball*>(&domain)) {
    Rng net_rng(0xf00dcafe);  // public, data-independent
    for (int i = 0; i < sphere_net_size; ++i) {
      convex::Vec v = net_rng.OnUnitSphere(domain.dim());
      convex::ScaleInPlace(&v, ball->radius());
      convex::Vec vertex = ball->Center();
      convex::AddScaledInPlace(&vertex, v, 1.0);
      vertices.push_back(std::move(vertex));
    }
    return vertices;
  }
  // Box: all 2^d corners for small d, otherwise axis midpoints + corners
  // of a sample (capped at 1024 vertices).
  if (dynamic_cast<const convex::Box*>(&domain) != nullptr &&
      domain.dim() <= 10) {
    convex::Vec lo(domain.dim(), -1e30), hi(domain.dim(), 1e30);
    domain.Project(&lo);
    domain.Project(&hi);
    int corners = 1 << domain.dim();
    for (int mask = 0; mask < corners; ++mask) {
      convex::Vec v(domain.dim());
      for (int j = 0; j < domain.dim(); ++j) {
        v[j] = (mask >> j) & 1 ? hi[j] : lo[j];
      }
      vertices.push_back(std::move(v));
    }
    return vertices;
  }
  PMW_CHECK_MSG(false, "private frank-wolfe: unsupported domain "
                           << domain.name());
  return vertices;
}

}  // namespace

PrivateFrankWolfeOracle::PrivateFrankWolfeOracle(
    PrivateFrankWolfeOptions options)
    : options_(options) {
  PMW_CHECK_GE(options.steps, 1);
  PMW_CHECK_GE(options.sphere_net_size, 2);
}

Result<convex::Vec> PrivateFrankWolfeOracle::Solve(
    const convex::CmQuery& query, const data::Dataset& dataset,
    const OracleContext& context, Rng* rng) {
  PMW_CHECK(rng != nullptr);
  dp::ValidatePrivacyParams(context.privacy);
  if (context.privacy.delta <= 0.0) {
    return Status(StatusCode::kMalformedRequest,
                  "private frank-wolfe requires delta > 0");
  }
  const convex::Domain& domain = *query.domain;
  std::vector<convex::Vec> vertices =
      VertexSet(domain, options_.sphere_net_size);

  // Per-step selection budget from strong composition. The score of
  // vertex s at iterate theta is -<grad l_D(theta), s>; changing one
  // record moves the empirical gradient by at most 2L/n in L2, hence each
  // score by at most 2 L diam / n.
  dp::PrivacyParams per_step =
      dp::PerRoundBudget(context.privacy, options_.steps);
  const double sensitivity = 2.0 * query.loss->lipschitz() *
                             domain.Diameter() /
                             static_cast<double>(dataset.n());

  convex::DatasetObjective objective(query.loss, &dataset);
  convex::Vec theta = domain.Center();
  for (int t = 0; t < options_.steps; ++t) {
    convex::Vec grad = objective.Gradient(theta);
    std::vector<double> scores(vertices.size());
    for (size_t v = 0; v < vertices.size(); ++v) {
      scores[v] = -convex::Dot(grad, vertices[v]);
    }
    int chosen = dp::ExponentialMechanism(scores, sensitivity,
                                          per_step.epsilon, rng);
    double gamma = 2.0 / (t + 2.0);
    for (int j = 0; j < domain.dim(); ++j) {
      theta[j] = (1.0 - gamma) * theta[j] + gamma * vertices[chosen][j];
    }
  }
  domain.Project(&theta);
  return theta;
}

}  // namespace erm
}  // namespace pmw
