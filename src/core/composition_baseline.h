// The composition baseline the paper's introduction argues against:
// answer each of the k CM queries independently with the single-query
// oracle A', splitting the privacy budget across the k calls with strong
// composition. Its accuracy degrades like sqrt(k) (the per-call epsilon is
// eps/sqrt(k) up to logs) whereas PMW degrades like log k — the crossover
// quantified in Section 4.1 and measured in bench_crossover.

#ifndef PMWCM_CORE_COMPOSITION_BASELINE_H_
#define PMWCM_CORE_COMPOSITION_BASELINE_H_

#include <cstdint>

#include "common/random.h"
#include "core/answerer.h"
#include "data/dataset.h"
#include "dp/privacy.h"
#include "erm/oracle.h"

namespace pmw {
namespace core {

class CompositionBaseline : public QueryAnswerer {
 public:
  struct Options {
    dp::PrivacyParams privacy{1.0, 1e-6};
    /// k: the number of calls the budget must cover.
    long long max_queries = 100;
    /// Oracle accuracy hint.
    double target_alpha = 0.05;
  };

  CompositionBaseline(const data::Dataset* dataset, erm::Oracle* oracle,
                      const Options& options, uint64_t seed);

  /// Answers with a fresh A' call; kBudgetExhausted past max_queries.
  Result<convex::Vec> Answer(const convex::CmQuery& query) override;

  std::string name() const override {
    return "composition(" + oracle_->name() + ")";
  }

  /// The per-call budget (for reports).
  const dp::PrivacyParams& per_query_budget() const {
    return per_query_budget_;
  }

 private:
  const data::Dataset* dataset_;
  erm::Oracle* oracle_;
  Options options_;
  dp::PrivacyParams per_query_budget_;
  Rng rng_;
  long long answered_ = 0;
};

/// Adapter presenting PmwCm through the QueryAnswerer interface.
class PmwAnswerer;

}  // namespace core
}  // namespace pmw

#endif  // PMWCM_CORE_COMPOSITION_BASELINE_H_
