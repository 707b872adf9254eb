#include "convex/empirical_loss.h"

#include <vector>

#include "common/check.h"

namespace pmw {
namespace convex {

HistogramObjective::HistogramObjective(const LossFunction* loss,
                                       const data::Universe* universe,
                                       const data::Histogram* histogram)
    : loss_(loss), universe_(universe), histogram_(histogram) {
  PMW_CHECK(loss != nullptr);
  PMW_CHECK(universe != nullptr);
  PMW_CHECK(histogram != nullptr);
  PMW_CHECK_EQ(universe->size(), histogram->size());
}

double HistogramObjective::Value(const Vec& theta) const {
  double acc = 0.0;
  for (int i = 0; i < universe_->size(); ++i) {
    double mass = (*histogram_)[i];
    if (mass > 0.0) acc += mass * loss_->Value(theta, universe_->row(i));
  }
  return acc;
}

Vec HistogramObjective::Gradient(const Vec& theta) const {
  Vec grad = Zeros(loss_->dim());
  for (int i = 0; i < universe_->size(); ++i) {
    double mass = (*histogram_)[i];
    if (mass > 0.0) {
      loss_->AddGradient(theta, universe_->row(i), mass, &grad);
    }
  }
  return grad;
}

SupportObjective::SupportObjective(const LossFunction* loss,
                                   const data::Universe* universe,
                                   const data::HistogramSupport* support)
    : loss_(loss), universe_(universe), support_(support) {
  PMW_CHECK(loss != nullptr);
  PMW_CHECK(universe != nullptr);
  PMW_CHECK(support != nullptr);
}

double SupportObjective::Value(const Vec& theta) const {
  double acc = 0.0;
  // A loss that claims the batch path must produce the same bits as the
  // per-row loop below (loss_function.h), so the dispatch never changes
  // the objective value, only its cost.
  if (loss_->BatchValue(theta, *universe_, support_->data(), support_->size(),
                        &acc)) {
    return acc;
  }
  for (const auto& [index, mass] : *support_) {
    acc += mass * loss_->Value(theta, universe_->row(index));
  }
  return acc;
}

Vec SupportObjective::Gradient(const Vec& theta) const {
  Vec grad = Zeros(loss_->dim());
  if (loss_->BatchAddGradient(theta, *universe_, support_->data(),
                              support_->size(), &grad)) {
    return grad;
  }
  for (const auto& [index, mass] : *support_) {
    loss_->AddGradient(theta, universe_->row(index), mass, &grad);
  }
  return grad;
}

namespace {

data::HistogramSupport WeightedRows(const data::Dataset* dataset) {
  PMW_CHECK(dataset != nullptr);
  std::vector<int> counts(static_cast<size_t>(dataset->universe().size()), 0);
  for (int index : dataset->indices()) ++counts[static_cast<size_t>(index)];
  const double inv_n = 1.0 / static_cast<double>(dataset->n());
  data::HistogramSupport rows;
  for (size_t index = 0; index < counts.size(); ++index) {
    if (counts[index] > 0) {
      rows.emplace_back(static_cast<int>(index), counts[index] * inv_n);
    }
  }
  return rows;
}

}  // namespace

DatasetObjective::DatasetObjective(const LossFunction* loss,
                                   const data::Dataset* dataset)
    : weighted_rows_(WeightedRows(dataset)),
      rows_(loss, &dataset->universe(), &weighted_rows_) {}

PerturbedObjective::PerturbedObjective(const Objective* base, Vec linear_term,
                                       double quadratic_mu,
                                       Vec quadratic_center)
    : base_(base),
      linear_term_(std::move(linear_term)),
      quadratic_mu_(quadratic_mu),
      quadratic_center_(std::move(quadratic_center)) {
  PMW_CHECK(base != nullptr);
  PMW_CHECK_EQ(static_cast<int>(linear_term_.size()), base->dim());
  PMW_CHECK_EQ(static_cast<int>(quadratic_center_.size()), base->dim());
  PMW_CHECK_GE(quadratic_mu_, 0.0);
}

double PerturbedObjective::Value(const Vec& theta) const {
  double value = base_->Value(theta) + Dot(linear_term_, theta);
  if (quadratic_mu_ > 0.0) {
    double dist = Dist2(theta, quadratic_center_);
    value += 0.5 * quadratic_mu_ * dist * dist;
  }
  return value;
}

Vec PerturbedObjective::Gradient(const Vec& theta) const {
  Vec grad = base_->Gradient(theta);
  for (size_t i = 0; i < grad.size(); ++i) {
    grad[i] += linear_term_[i];
    if (quadratic_mu_ > 0.0) {
      grad[i] += quadratic_mu_ * (theta[i] - quadratic_center_[i]);
    }
  }
  return grad;
}

}  // namespace convex
}  // namespace pmw
