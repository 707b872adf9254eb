// Streaming and batch descriptive statistics for experiment reporting.

#ifndef PMWCM_COMMON_STATS_H_
#define PMWCM_COMMON_STATS_H_

#include <string>
#include <vector>

namespace pmw {

/// Welford-style streaming moments plus extrema.
class RunningStats {
 public:
  void Add(double x);

  long long count() const { return count_; }
  double mean() const;
  /// Unbiased sample variance (0 when fewer than two observations).
  double variance() const;
  double stddev() const;
  double min() const;
  double max() const;
  double sum() const { return sum_; }

  /// "mean +- stddev [min, max] (n=count)".
  std::string Summary() const;

 private:
  long long count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

/// Returns the q-quantile (0 <= q <= 1) by linear interpolation on a copy of
/// `values`. Requires non-empty input.
double Quantile(std::vector<double> values, double q);

/// Sample mean of `values`. Requires non-empty input.
double Mean(const std::vector<double>& values);

/// Unbiased sample standard deviation (0 for fewer than two values).
double StdDev(const std::vector<double>& values);

/// Maximum element. Requires non-empty input.
double Max(const std::vector<double>& values);

}  // namespace pmw

#endif  // PMWCM_COMMON_STATS_H_
