#include "losses/loss_family.h"

#include <algorithm>

#include "common/check.h"

namespace pmw {
namespace losses {
namespace {

std::vector<int> RandomFlips(int dim, Rng* rng) {
  std::vector<int> flips(dim);
  for (int j = 0; j < dim; ++j) flips[j] = rng->Bernoulli(0.5) ? 1 : -1;
  return flips;
}

}  // namespace

std::vector<convex::CmQuery> QueryFamily::Generate(int k, Rng* rng) {
  PMW_CHECK_GE(k, 1);
  std::vector<convex::CmQuery> queries;
  queries.reserve(k);
  for (int j = 0; j < k; ++j) queries.push_back(Next(rng));
  return queries;
}

LipschitzFamily::LipschitzFamily(int dim) : dim_(dim), domain_(dim) {
  PMW_CHECK_GE(dim, 1);
  base_losses_.push_back(std::make_unique<SquaredLoss>(dim));
  base_losses_.push_back(std::make_unique<LogisticLoss>(dim));
  base_losses_.push_back(std::make_unique<HingeLoss>(dim));
  base_losses_.push_back(std::make_unique<AbsoluteLoss>(dim));
}

convex::CmQuery LipschitzFamily::Next(Rng* rng) {
  PMW_CHECK(rng != nullptr);
  const convex::LossFunction* base =
      base_losses_[rng->UniformInt(static_cast<int>(base_losses_.size()))]
          .get();
  auto loss = std::make_unique<SignFlipLoss>(base, RandomFlips(dim_, rng),
                                             rng->Bernoulli(0.5) ? 1 : -1);
  convex::CmQuery query;
  query.loss = loss.get();
  query.domain = &domain_;
  query.label = loss->name();
  generated_.push_back(std::move(loss));
  return query;
}

GlmFamily::GlmFamily(int dim) : dim_(dim), domain_(dim) {
  PMW_CHECK_GE(dim, 1);
  base_losses_.push_back(std::make_unique<SquaredLoss>(dim));
  base_losses_.push_back(std::make_unique<LogisticLoss>(dim));
  base_losses_.push_back(std::make_unique<HuberLoss>(dim, 1.0));
}

convex::CmQuery GlmFamily::Next(Rng* rng) {
  PMW_CHECK(rng != nullptr);
  const convex::LossFunction* base =
      base_losses_[rng->UniformInt(static_cast<int>(base_losses_.size()))]
          .get();
  auto loss = std::make_unique<SignFlipLoss>(base, RandomFlips(dim_, rng),
                                             rng->Bernoulli(0.5) ? 1 : -1);
  PMW_CHECK(loss->is_generalized_linear());
  convex::CmQuery query;
  query.loss = loss.get();
  query.domain = &domain_;
  query.label = loss->name();
  generated_.push_back(std::move(loss));
  return query;
}

StronglyConvexFamily::StronglyConvexFamily(int dim, double sigma)
    : dim_(dim), sigma_(sigma), domain_(dim) {
  PMW_CHECK_GE(dim, 1);
  PMW_CHECK_GT(sigma, 0.0);
  base_losses_.push_back(std::make_unique<SquaredLoss>(dim));
  base_losses_.push_back(std::make_unique<LogisticLoss>(dim));
}

convex::CmQuery StronglyConvexFamily::Next(Rng* rng) {
  PMW_CHECK(rng != nullptr);
  const convex::LossFunction* base =
      base_losses_[rng->UniformInt(static_cast<int>(base_losses_.size()))]
          .get();
  auto flipped = std::make_unique<SignFlipLoss>(
      base, RandomFlips(dim_, rng), rng->Bernoulli(0.5) ? 1 : -1);
  // Random centre inside the half-radius ball keeps the family's Lipschitz
  // constant at 1 + sigma * 1.5.
  convex::Vec center = rng->InUnitBall(dim_);
  convex::ScaleInPlace(&center, 0.5);
  auto loss = std::make_unique<TikhonovLoss>(flipped.get(), sigma_,
                                             std::move(center),
                                             /*domain_radius=*/1.0);
  convex::CmQuery query;
  query.loss = loss.get();
  query.domain = &domain_;
  query.label = loss->name();
  generated_.push_back(std::move(flipped));
  generated_.push_back(std::move(loss));
  return query;
}

double StronglyConvexFamily::scale() const {
  // Diameter 2 times the family Lipschitz bound (1 + 1.5 * sigma).
  return 2.0 * (1.0 + 1.5 * sigma_);
}

LinearQueryFamily::LinearQueryFamily(int dim, int max_width,
                                     bool include_label)
    : dim_(dim),
      max_width_(max_width),
      include_label_(include_label),
      domain_(0.0, 1.0) {
  PMW_CHECK_GE(dim, 1);
  PMW_CHECK_GE(max_width, 1);
  PMW_CHECK_LE(max_width, dim);
}

convex::CmQuery LinearQueryFamily::Next(Rng* rng) {
  PMW_CHECK(rng != nullptr);
  int width = 1 + rng->UniformInt(max_width_);
  // Choose `width` distinct coordinates.
  std::vector<int> all(dim_);
  for (int j = 0; j < dim_; ++j) all[j] = j;
  rng->Shuffle(&all);
  std::vector<int> coords(all.begin(), all.begin() + width);
  std::sort(coords.begin(), coords.end());
  std::vector<int> signs(width);
  for (int i = 0; i < width; ++i) signs[i] = rng->Bernoulli(0.5) ? 1 : -1;
  int label_constraint = 0;
  if (include_label_ && rng->Bernoulli(0.5)) {
    label_constraint = rng->Bernoulli(0.5) ? 1 : -1;
  }
  std::string query_name = "conj(";
  for (size_t i = 0; i < coords.size(); ++i) {
    // Two appends, not `sign + std::to_string(...)`: GCC 12 Release builds
    // flag the temporary's concatenation with a false-positive -Wrestrict.
    query_name += signs[i] == 1 ? '+' : '-';
    query_name += std::to_string(coords[i]);
  }
  if (label_constraint != 0) {
    query_name += label_constraint == 1 ? "|y+" : "|y-";
  }
  query_name += ")";
  auto loss = std::make_unique<LinearQueryLoss>(
      ConjunctionPredicate(std::move(coords), std::move(signs),
                           label_constraint),
      query_name);
  convex::CmQuery query;
  query.loss = loss.get();
  query.domain = &domain_;
  query.label = loss->name();
  last_loss_ = loss.get();
  generated_.push_back(std::move(loss));
  return query;
}

}  // namespace losses
}  // namespace pmw
