// Synthetic data distributions over finite universes.
//
// The paper has no experimental datasets (it is a theory paper); these
// generators provide the workloads used by the benchmark harness. Each
// generator returns an explicit Histogram over universe indices, from which
// datasets of any size n can be sampled (iid) or constructed
// deterministically (expected counts), mirroring how the theorems quantify
// over worst-case datasets of size n.

#ifndef PMWCM_DATA_GENERATORS_H_
#define PMWCM_DATA_GENERATORS_H_

#include <vector>

#include "common/random.h"
#include "data/histogram.h"
#include "data/universe.h"

namespace pmw {
namespace data {

/// Uniform over the universe.
Histogram UniformDistribution(const Universe& universe);

/// Product distribution on sign patterns: coordinate j is positive with
/// probability `coordinate_biases[j]` (matched by feature sign); the label,
/// if present, is +1 with probability `label_bias`.
Histogram ProductDistribution(const Universe& universe,
                              const std::vector<double>& coordinate_biases,
                              double label_bias);

/// A logistic ground-truth model: features follow the product distribution
/// with the given biases and P(label=+1 | x) = sigmoid(<theta_star, x> /
/// temperature). Universe rows with label 0 are treated as unlabeled and get
/// the plain product mass. Used for regression/classification workloads.
Histogram LogisticModelDistribution(
    const Universe& universe, const std::vector<double>& theta_star,
    const std::vector<double>& coordinate_biases, double temperature);

/// A mixture of Gaussian-like bumps centred at `centers`:
/// p(x) proportional to sum_c exp(-||features(x) - center_c||^2 / width).
/// Labels (when present) are +1 with probability depending on the nearest
/// centre's parity, giving clusterable classification data.
Histogram MixtureDistribution(const Universe& universe,
                              const std::vector<std::vector<double>>& centers,
                              double width);

/// Samples a dataset of n iid records from `dist`.
Dataset SampleDataset(const Universe& universe, const Histogram& dist, int n,
                      Rng* rng);

/// Builds a dataset of exactly n records whose empirical histogram is the
/// best integer rounding of `dist` (largest-remainder method). Deterministic;
/// useful when an experiment wants the dataset to equal its distribution.
Dataset RoundedDataset(const Universe& universe, const Histogram& dist, int n);

}  // namespace data
}  // namespace pmw

#endif  // PMWCM_DATA_GENERATORS_H_
