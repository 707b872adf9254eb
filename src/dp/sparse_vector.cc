#include "dp/sparse_vector.h"

#include <cmath>

#include "common/check.h"

namespace pmw {
namespace dp {

SparseVector::SparseVector(const Options& options, uint64_t seed)
    : options_(options), rng_(seed) {
  PMW_CHECK_GE(options.max_top_answers, 1);
  PMW_CHECK_GT(options.alpha, 0.0);
  PMW_CHECK_GT(options.sensitivity, 0.0);
  ValidatePrivacyParams(options.privacy);

  const double delta_q = options.sensitivity;
  const double t = static_cast<double>(options.max_top_answers);
  if (options.privacy.delta > 0.0) {
    // Approximate-DP calibration: each AboveThreshold epoch (threshold
    // noise Lap(2 Delta/eps_epoch), query noise Lap(4 Delta/eps_epoch)) is
    // pure eps_epoch-DP; advanced composition (paper Theorem 3.10) across
    // the T epochs with eps_epoch = eps / sqrt(8 T ln(2/delta)) keeps the
    // total within (eps, delta) whenever eps <= 4 ln(2/delta).
    double eps_epoch =
        options.privacy.epsilon /
        std::sqrt(8.0 * t * std::log(2.0 / options.privacy.delta));
    threshold_scale_ = 2.0 * delta_q / eps_epoch;
    query_scale_ = 4.0 * delta_q / eps_epoch;
  } else {
    // Pure-DP calibration: basic composition across epochs.
    double eps_epoch = options.privacy.epsilon / t;
    threshold_scale_ = 2.0 * delta_q / eps_epoch;
    query_scale_ = 4.0 * delta_q / eps_epoch;
  }
  RefreshThresholdNoise();
}

void SparseVector::RefreshThresholdNoise() {
  const double threshold = 0.75 * options_.alpha;
  noisy_threshold_ = threshold + rng_.Laplace(threshold_scale_);
}

Result<SparseVector::Answer> SparseVector::Process(double query_value) {
  if (halted()) {
    return Status::Halted("sparse vector: T top answers already given");
  }
  ++queries_processed_;
  double noisy_value = query_value + rng_.Laplace(query_scale_);
  if (noisy_value >= noisy_threshold_) {
    ++top_count_;
    if (!halted()) RefreshThresholdNoise();
    return Answer::kTop;
  }
  return Answer::kBottom;
}

double SparseVector::TheoremRequiredN(double scale_s, int max_top_answers,
                                      long long num_queries, double alpha,
                                      const PrivacyParams& privacy,
                                      double beta) {
  PMW_CHECK_GT(scale_s, 0.0);
  PMW_CHECK_GE(max_top_answers, 1);
  PMW_CHECK_GE(num_queries, 1);
  PMW_CHECK_GT(alpha, 0.0);
  PMW_CHECK_GT(beta, 0.0);
  ValidatePrivacyParams(privacy);
  double delta_for_bound = privacy.delta > 0.0 ? privacy.delta : 1e-9;
  return 256.0 * scale_s *
         std::sqrt(static_cast<double>(max_top_answers) *
                   std::log(2.0 / delta_for_bound)) *
         std::log(4.0 * static_cast<double>(num_queries) / beta) /
         (privacy.epsilon * alpha);
}

}  // namespace dp
}  // namespace pmw
