// Histogram representation of datasets (Section 2.1): a probability
// distribution over the data universe, plus the multiplicative-weights
// update that drives the paper's algorithm (Figure 3).

#ifndef PMWCM_DATA_HISTOGRAM_H_
#define PMWCM_DATA_HISTOGRAM_H_

#include <functional>
#include <utility>
#include <vector>

#include "common/random.h"
#include "data/dataset.h"

namespace pmw {
namespace data {

/// The strictly-positive entries of a histogram as (index, mass) pairs in
/// ascending index order. Iterating a support gives bit-identical sums to
/// iterating the dense histogram and skipping zero-mass rows, so objectives
/// built on either representation agree exactly; the support just avoids
/// re-testing every row. The batched serving path compacts once per batch
/// instead of once per query.
using HistogramSupport = std::vector<std::pair<int, double>>;

/// A normalized distribution over universe indices {0, ..., size-1}.
class Histogram {
 public:
  /// The uniform histogram over `size` elements (the paper's D_hat_1).
  static Histogram Uniform(int size);

  /// The empirical histogram of a dataset.
  static Histogram FromDataset(const Dataset& dataset);

  /// Normalizes a vector of non-negative counts/weights.
  static Histogram FromWeights(std::vector<double> weights);

  int size() const { return static_cast<int>(p_.size()); }
  double operator[](int i) const { return p_[i]; }
  const std::vector<double>& probabilities() const { return p_; }

  /// sum_x p(x) f(x).
  double Expectation(const std::function<double(int)>& f) const;

  /// ||p - q||_1. Neighbouring datasets' histograms are at distance <= 2/n
  /// in this norm (the paper uses 1/n with a one-sided convention).
  double L1Distance(const Histogram& other) const;

  /// KL(p || other); the potential function in the MW regret analysis.
  double Kl(const Histogram& other) const;

  /// The multiplicative weights update of Figure 3:
  ///   p'(x) proportional to exp(eta * payoff(x)) * p(x),
  /// computed in log-space for numerical stability. `payoff` must have one
  /// entry per universe element.
  Histogram MultiplicativeUpdate(const std::vector<double>& payoff,
                                 double eta) const;

  /// One pass over the histogram collecting its strictly-positive entries.
  HistogramSupport CompactSupport() const;

  /// Range compaction: the strictly-positive entries with index in
  /// [lo, hi) only. CompactSupport() == CompactSupport(0, size()).
  HistogramSupport CompactSupport(int lo, int hi) const;

  /// Samples a universe index from the distribution (synthetic data).
  int SampleIndex(Rng* rng) const;

  /// Draws n records to form a synthetic dataset over `universe`
  /// (the universe's size must match).
  Dataset SampleDataset(const Universe& universe, int n, Rng* rng) const;

 private:
  explicit Histogram(std::vector<double> p);

  std::vector<double> p_;
};

}  // namespace data
}  // namespace pmw

#endif  // PMWCM_DATA_HISTOGRAM_H_
