#include "data/histogram.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/math_util.h"

namespace pmw {
namespace data {

Histogram::Histogram(std::vector<double> p) : p_(std::move(p)) {
  PMW_CHECK(!p_.empty());
}

Histogram Histogram::Uniform(int size) {
  PMW_CHECK_GE(size, 1);
  return Histogram(std::vector<double>(size, 1.0 / size));
}

Histogram Histogram::FromDataset(const Dataset& dataset) {
  std::vector<double> counts(dataset.universe().size(), 0.0);
  for (int i = 0; i < dataset.n(); ++i) counts[dataset.index(i)] += 1.0;
  return FromWeights(std::move(counts));
}

Histogram Histogram::FromWeights(std::vector<double> weights) {
  PMW_CHECK(!weights.empty());
  double total = 0.0;
  for (double w : weights) {
    PMW_CHECK_GE(w, 0.0);
    total += w;
  }
  PMW_CHECK_GT(total, 0.0);
  for (double& w : weights) w /= total;
  return Histogram(std::move(weights));
}

double Histogram::Expectation(const std::function<double(int)>& f) const {
  double acc = 0.0;
  for (int i = 0; i < size(); ++i) {
    if (p_[i] > 0.0) acc += p_[i] * f(i);
  }
  return acc;
}

double Histogram::L1Distance(const Histogram& other) const {
  PMW_CHECK_EQ(size(), other.size());
  double acc = 0.0;
  for (int i = 0; i < size(); ++i) acc += std::abs(p_[i] - other.p_[i]);
  return acc;
}

double Histogram::Kl(const Histogram& other) const {
  return KlDivergence(p_, other.p_);
}

Histogram Histogram::MultiplicativeUpdate(const std::vector<double>& payoff,
                                          double eta) const {
  PMW_CHECK_EQ(payoff.size(), p_.size());
  // log weights: log p(x) + eta * payoff(x); stabilize by max subtraction.
  std::vector<double> logw(p_.size());
  double max_logw = -std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < p_.size(); ++i) {
    logw[i] = SafeLog(p_[i]) + eta * payoff[i];
    max_logw = std::max(max_logw, logw[i]);
  }
  std::vector<double> w(p_.size());
  for (size_t i = 0; i < p_.size(); ++i) w[i] = std::exp(logw[i] - max_logw);
  return FromWeights(std::move(w));
}

HistogramSupport Histogram::CompactSupport() const {
  return CompactSupport(0, size());
}

HistogramSupport Histogram::CompactSupport(int lo, int hi) const {
  PMW_CHECK_GE(lo, 0);
  PMW_CHECK_LE(lo, hi);
  PMW_CHECK_LE(hi, size());
  // Count first so long-lived supports hold exactly their size, not the
  // dense histogram's capacity.
  size_t support_size = 0;
  for (int i = lo; i < hi; ++i) {
    if (p_[i] > 0.0) ++support_size;
  }
  HistogramSupport support;
  support.reserve(support_size);
  for (int i = lo; i < hi; ++i) {
    if (p_[i] > 0.0) support.emplace_back(i, p_[i]);
  }
  return support;
}

int Histogram::SampleIndex(Rng* rng) const {
  PMW_CHECK(rng != nullptr);
  return rng->Categorical(p_);
}

Dataset Histogram::SampleDataset(const Universe& universe, int n,
                                 Rng* rng) const {
  PMW_CHECK_EQ(universe.size(), size());
  PMW_CHECK_GE(n, 1);
  std::vector<int> indices(n);
  for (int i = 0; i < n; ++i) indices[i] = SampleIndex(rng);
  return Dataset(&universe, std::move(indices));
}

}  // namespace data
}  // namespace pmw
