// Number crunching and output formatting for the benchmark's result
// lines.

#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <map>
#include <string>
#include <vector>

namespace pmw {
namespace perfbench {

/// Linear-interpolated q-quantile; 0 for an empty sample.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

/// "name value" lines of a text metrics exposition ('#' lines skipped).
std::map<std::string, double> ParseExposition(const std::string& text);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The run's last stdout line:
/// {"correct": .., "attempted": .., "failed": .., "metrics": {name:
/// {"value": .., "unit": ..}, ...}}. Values keep every digit (%.17g).
std::string ResultLine(bool correct, long long attempted, long long failed,
                       const std::vector<Metric>& metrics);

/// A JSON string literal (quotes and backslashes escaped).
std::string JsonString(const std::string& text);
/// A JSON number with every digit, or 0 for a non-finite value.
std::string JsonNumber(double value);

}  // namespace perfbench
}  // namespace pmw

#endif  // PERFBENCH_REPORT_H_
