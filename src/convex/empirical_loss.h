// Empirical objectives: the expected loss of a LossFunction over a dataset
// or a histogram, i.e. the functions l_D(theta) = sum_x D(x) l(theta; x)
// the paper minimizes (Section 2.2).

#ifndef PMWCM_CONVEX_EMPIRICAL_LOSS_H_
#define PMWCM_CONVEX_EMPIRICAL_LOSS_H_

#include "convex/loss_function.h"
#include "convex/vector_ops.h"
#include "data/dataset.h"
#include "data/histogram.h"

namespace pmw {
namespace convex {

/// A differentiable objective f : R^d -> R to be minimized over a Domain.
class Objective {
 public:
  virtual ~Objective() = default;
  virtual int dim() const = 0;
  virtual double Value(const Vec& theta) const = 0;
  virtual Vec Gradient(const Vec& theta) const = 0;
};

/// l_D(theta) where D is a histogram over a universe:
/// f(theta) = sum_x D(x) l(theta; x). Skips zero-mass rows, so its cost is
/// O(support size * d).
class HistogramObjective : public Objective {
 public:
  HistogramObjective(const LossFunction* loss, const data::Universe* universe,
                     const data::Histogram* histogram);

  int dim() const override { return loss_->dim(); }
  double Value(const Vec& theta) const override;
  Vec Gradient(const Vec& theta) const override;

 private:
  const LossFunction* loss_;
  const data::Universe* universe_;
  const data::Histogram* histogram_;
};

/// l_D(theta) over a precomputed histogram support. Sums the same
/// (mass, row) terms in the same order as HistogramObjective over the
/// histogram that produced the support, so the two agree bit-for-bit; this
/// variant just skips the dense zero-mass scan. The serving layer compacts
/// the hypothesis once per batch and evaluates every query through this.
class SupportObjective : public Objective {
 public:
  SupportObjective(const LossFunction* loss, const data::Universe* universe,
                   const data::HistogramSupport* support);

  int dim() const override { return loss_->dim(); }
  double Value(const Vec& theta) const override;
  Vec Gradient(const Vec& theta) const override;

 private:
  const LossFunction* loss_;
  const data::Universe* universe_;
  const data::HistogramSupport* support_;
};

/// l_D(theta) for a dataset: f(theta) = (1/n) sum_i l(theta; x_i).
/// Construction counts records per universe row in one dense pass and
/// keeps the used rows as (index, count * (1/n)) in ascending index
/// order, so repeated rows cost nothing extra. Evaluation is
/// SupportObjective's over those rows (batched kernels when the loss
/// claims them, else the per-row loop), which sums the same terms in the
/// same order.
class DatasetObjective : public Objective {
 public:
  DatasetObjective(const LossFunction* loss, const data::Dataset* dataset);
  // rows_ points into weighted_rows_, so a copy would dangle.
  DatasetObjective(const DatasetObjective&) = delete;
  DatasetObjective& operator=(const DatasetObjective&) = delete;

  int dim() const override { return rows_.dim(); }
  double Value(const Vec& theta) const override { return rows_.Value(theta); }
  Vec Gradient(const Vec& theta) const override {
    return rows_.Gradient(theta);
  }

 private:
  data::HistogramSupport weighted_rows_;  // (index, count * (1/n))
  SupportObjective rows_;
};

/// f(theta) + <b, theta> + (mu/2)||theta - center||^2; the decorated
/// objective used by objective perturbation and localization.
class PerturbedObjective : public Objective {
 public:
  PerturbedObjective(const Objective* base, Vec linear_term,
                     double quadratic_mu, Vec quadratic_center);

  int dim() const override { return base_->dim(); }
  double Value(const Vec& theta) const override;
  Vec Gradient(const Vec& theta) const override;

 private:
  const Objective* base_;
  Vec linear_term_;
  double quadratic_mu_;
  Vec quadratic_center_;
};

}  // namespace convex
}  // namespace pmw

#endif  // PMWCM_CONVEX_EMPIRICAL_LOSS_H_
