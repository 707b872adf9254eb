#include "common/stats.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/check.h"

namespace pmw {

void RunningStats::Add(double x) {
  if (count_ == 0) {
    min_ = x;
    max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  sum_ += x;
  double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

double RunningStats::mean() const { return count_ > 0 ? mean_ : 0.0; }

double RunningStats::variance() const {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double RunningStats::min() const {
  PMW_CHECK_GT(count_, 0);
  return min_;
}

double RunningStats::max() const {
  PMW_CHECK_GT(count_, 0);
  return max_;
}

std::string RunningStats::Summary() const {
  std::ostringstream oss;
  if (count_ == 0) {
    oss << "(empty)";
    return oss.str();
  }
  oss << mean() << " +- " << stddev() << " [" << min() << ", " << max()
      << "] (n=" << count_ << ")";
  return oss.str();
}

double Quantile(std::vector<double> values, double q) {
  PMW_CHECK(!values.empty());
  PMW_CHECK_GE(q, 0.0);
  PMW_CHECK_LE(q, 1.0);
  std::sort(values.begin(), values.end());
  double pos = q * static_cast<double>(values.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, values.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

double Mean(const std::vector<double>& values) {
  PMW_CHECK(!values.empty());
  double s = 0.0;
  for (double v : values) s += v;
  return s / static_cast<double>(values.size());
}

double StdDev(const std::vector<double>& values) {
  if (values.size() < 2) return 0.0;
  double m = Mean(values);
  double acc = 0.0;
  for (double v : values) acc += (v - m) * (v - m);
  return std::sqrt(acc / static_cast<double>(values.size() - 1));
}

double Max(const std::vector<double>& values) {
  PMW_CHECK(!values.empty());
  return *std::max_element(values.begin(), values.end());
}

}  // namespace pmw
