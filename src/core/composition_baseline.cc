#include "core/composition_baseline.h"

#include "common/check.h"
#include "dp/composition.h"

namespace pmw {
namespace core {

CompositionBaseline::CompositionBaseline(const data::Dataset* dataset,
                                         erm::Oracle* oracle,
                                         const Options& options, uint64_t seed)
    : dataset_(dataset), oracle_(oracle), options_(options), rng_(seed) {
  PMW_CHECK(dataset != nullptr);
  PMW_CHECK(oracle != nullptr);
  PMW_CHECK_GE(options.max_queries, 1);
  // Pick the better of basic composition (eps/k, delta/k) and the strong-
  // composition split; basic wins for k below ~8 ln(2/delta).
  const int k = static_cast<int>(options.max_queries);
  dp::PrivacyParams strong = dp::PerRoundBudget(options.privacy, k);
  dp::PrivacyParams basic{options.privacy.epsilon / k,
                          options.privacy.delta / k};
  per_query_budget_ = basic.epsilon >= strong.epsilon ? basic : strong;
}

Result<convex::Vec> CompositionBaseline::Answer(const convex::CmQuery& query) {
  if (answered_ >= options_.max_queries) {
    return Status(StatusCode::kBudgetExhausted,
                  "composition baseline: budget covers only k queries");
  }
  ++answered_;
  erm::OracleContext context;
  context.privacy = per_query_budget_;
  context.target_alpha = options_.target_alpha;
  return oracle_->Solve(query, *dataset_, context, &rng_);
}

}  // namespace core
}  // namespace pmw
