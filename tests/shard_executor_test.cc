// Plan-level equivalence of serve::ShardExecutor::PrepareRange with
// sequential core::PmwCm::Prepare. PrepareRange runs each cache miss's
// hypothesis side (theta_hat_t, l_D(theta_hat_t)) and data side (min l_D)
// as separate fork-join tasks and joins them with PmwCm::CombinePlan on
// the writer; every plan it returns must equal the sequential Prepare bit
// for bit (theta_hat, query_value, data_min, hypothesis_version) with a
// 2-worker pool and with none. Cases: a lone miss; misses mixed with
// cache hits and in-range repeats; stale probes that lend data_min. Axes:
// SIMD on and off, dense and sparse backend. The TSan CI job rebuilds
// this binary, so the two tasks of one miss sharing a plan slot are
// race-checked too.

#include "serve/shard_executor.h"

#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "common/random.h"
#include "common/simd.h"
#include "common/thread_pool.h"
#include "core/error.h"
#include "core/pmw_cm.h"
#include "data/binary_universe.h"
#include "data/generators.h"
#include "data/histogram.h"
#include "erm/nonprivate_oracle.h"
#include "gtest/gtest.h"
#include "losses/loss_family.h"
#include "serve/plan_cache.h"

namespace pmw {
namespace serve {
namespace {

core::PmwOptions PracticalOptions() {
  core::PmwOptions options;
  options.alpha = 0.05;
  options.beta = 0.05;
  options.privacy = {2.0, 1e-6};
  options.scale = 2.0;
  options.max_queries = 400;
  options.override_updates = 12;
  return options;
}

::testing::AssertionResult BitsEq(double got, double want) {
  if (std::bit_cast<uint64_t>(got) == std::bit_cast<uint64_t>(want)) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << "got " << got << " want " << want << " (bits differ)";
}

void ExpectSamePlan(const core::PreparedQuery& got,
                    const core::PreparedQuery& want,
                    const std::string& where) {
  SCOPED_TRACE(where);
  ASSERT_EQ(got.theta_hat.size(), want.theta_hat.size());
  for (size_t i = 0; i < want.theta_hat.size(); ++i) {
    EXPECT_TRUE(BitsEq(got.theta_hat[i], want.theta_hat[i]))
        << "coord " << i;
  }
  EXPECT_TRUE(BitsEq(got.query_value, want.query_value));
  EXPECT_TRUE(BitsEq(got.data_min, want.data_min));
  EXPECT_EQ(got.hypothesis_version, want.hypothesis_version);
}

class SimdGuard {
 public:
  explicit SimdGuard(bool on) : prev_(simd::Enabled()) {
    simd::SetEnabled(on);
  }
  ~SimdGuard() { simd::SetEnabled(prev_); }

 private:
  bool prev_;
};

// (SIMD on, backend)
class ShardExecutorTest : public ::testing::TestWithParam<
                              std::tuple<bool, core::HypothesisBackend>> {
 protected:
  ShardExecutorTest()
      : simd_(std::get<0>(GetParam())), universe_(6), family_(6) {
    data::Histogram dist = data::LogisticModelDistribution(
        universe_, {1.0, -0.8, 0.5, 0.3, -0.6, 0.2},
        {0.7, 0.4, 0.5, 0.3, 0.6, 0.4}, 0.25);
    dataset_ = std::make_unique<data::Dataset>(
        data::RoundedDataset(universe_, dist, 60000));
    Rng rng(91);
    queries_ = family_.Generate(6, &rng);
    cm_ = std::make_unique<core::PmwCm>(dataset_.get(), &oracle_,
                                        PracticalOptions(), 5);
    cm_->ConfigureSharding(2, nullptr, std::get<1>(GetParam()));
    data_support_ = data::Histogram::FromDataset(*dataset_).CompactSupport();
  }

  /// Answers queries until the hypothesis has moved `updates` more times,
  /// so plans are taken against a non-uniform hypothesis.
  void AdvanceHypothesis(int updates) {
    const int target = cm_->hypothesis_version() + updates;
    for (size_t j = 0; j < 200 && cm_->hypothesis_version() < target; ++j) {
      ASSERT_TRUE(cm_->AnswerQuery(queries_[j % queries_.size()]).ok());
    }
    ASSERT_EQ(cm_->hypothesis_version(), target);
  }

  /// Runs PrepareRange over `range` with a 2-worker pool and with none,
  /// each time against a copy of `cache`, and checks every position's
  /// plan against sequential Prepare at the live version (which never
  /// borrows), and that plan's query value against Definition 2.2's
  /// error, ErrorOracle::AnswerError. Returns the pooled run's result.
  ShardExecutor::PrepareResult CheckRange(
      const std::vector<convex::CmQuery>& range, const PlanCache& cache) {
    const core::HypothesisSnapshot snapshot = cm_->SnapshotHypothesis();
    int positive = 0;
    ShardExecutor::PrepareResult pooled;
    for (ThreadPool* pool : {&pool_, static_cast<ThreadPool*>(nullptr)}) {
      PlanCache probed = cache;
      ShardExecutor executor(pool, cm_.get());
      ShardExecutor::PrepareResult result =
          executor.PrepareRange(range, 0, range.size(), snapshot, &probed);
      EXPECT_EQ(result.plan_of.size(), range.size());
      for (size_t i = 0; i < range.size(); ++i) {
        const core::PreparedQuery want = cm_->Prepare(range[i], snapshot);
        EXPECT_TRUE(BitsEq(want.query_value,
                           error_oracle_.AnswerError(range[i], data_support_,
                                                     want.theta_hat)));
        if (want.query_value > 0.0) ++positive;
        ExpectSamePlan(result.plans[result.plan_of[i]], want,
                       std::string(pool != nullptr ? "pool" : "inline") +
                           " position " + std::to_string(i));
      }
      if (pool != nullptr) pooled = std::move(result);
    }
    // Non-vacuous: positive error values make the subtraction's order
    // (and its operands) visible in query_value.
    EXPECT_GT(positive, 0);
    return pooled;
  }

  SimdGuard simd_;
  data::LabeledHypercubeUniverse universe_;
  losses::LipschitzFamily family_;
  std::unique_ptr<data::Dataset> dataset_;
  std::vector<convex::CmQuery> queries_;
  erm::NonPrivateOracle oracle_;
  std::unique_ptr<core::PmwCm> cm_;
  core::ErrorOracle error_oracle_{&universe_, PracticalOptions().solver};
  data::HistogramSupport data_support_;
  ThreadPool pool_{2};
};

QueryKey KeyOf(const convex::CmQuery& query) {
  return QueryKey{query.loss, query.domain};
}

TEST_P(ShardExecutorTest, LoneMissMatchesSequentialPrepare) {
  AdvanceHypothesis(1);
  PlanCache empty;
  ShardExecutor::PrepareResult result = CheckRange({queries_[2]}, empty);
  EXPECT_EQ(result.cross_batch_lookups, 1);
  EXPECT_EQ(result.cross_batch_hits, 0);
}

TEST_P(ShardExecutorTest, MissesMixedWithHitsAndRepeatsMatchSequential) {
  AdvanceHypothesis(1);
  const core::HypothesisSnapshot snapshot = cm_->SnapshotHypothesis();
  // Plans for queries 1 and 4 are cached at the live version: hits.
  PlanCache cache;
  cache.Insert(KeyOf(queries_[1]), cm_->Prepare(queries_[1], snapshot));
  cache.Insert(KeyOf(queries_[4]), cm_->Prepare(queries_[4], snapshot));
  // Misses 0, 3, 5 and 2, with in-range repeats of a miss and a hit.
  const std::vector<convex::CmQuery> range = {
      queries_[0], queries_[1], queries_[3], queries_[0], queries_[5],
      queries_[4], queries_[3], queries_[2], queries_[1]};
  ShardExecutor::PrepareResult result = CheckRange(range, cache);
  EXPECT_EQ(result.plans.size(), 6u);
  EXPECT_EQ(result.cache_hits, 3);
  EXPECT_EQ(result.cross_batch_lookups, 6);
  EXPECT_EQ(result.cross_batch_hits, 2);
  EXPECT_EQ(result.cross_batch_stale, 0);
}

TEST_P(ShardExecutorTest, StaleProbeLendsDataMinAndMatchesSequential) {
  AdvanceHypothesis(1);
  const core::HypothesisSnapshot old_snapshot = cm_->SnapshotHypothesis();
  // Every query but the last has a plan at the old version.
  PlanCache cache;
  for (size_t q = 0; q + 1 < queries_.size(); ++q) {
    cache.Insert(KeyOf(queries_[q]),
                 cm_->Prepare(queries_[q], old_snapshot));
  }
  AdvanceHypothesis(1);
  // Stale probes lend data_min (no data-side task); the last query is a
  // plain miss that solves both halves beside them.
  ShardExecutor::PrepareResult result = CheckRange(queries_, cache);
  EXPECT_EQ(result.cross_batch_lookups,
            static_cast<long long>(queries_.size()));
  EXPECT_EQ(result.cross_batch_hits, 0);
  EXPECT_EQ(result.cross_batch_stale,
            static_cast<long long>(queries_.size() - 1));
}

INSTANTIATE_TEST_SUITE_P(
    SimdAndBackend, ShardExecutorTest,
    ::testing::Combine(::testing::Bool(),
                       ::testing::Values(core::HypothesisBackend::kDense,
                                         core::HypothesisBackend::kSparse)),
    [](const ::testing::TestParamInfo<ShardExecutorTest::ParamType>& info) {
      return std::string(std::get<0>(info.param) ? "SimdOn" : "SimdOff") +
             (std::get<1>(info.param) == core::HypothesisBackend::kDense
                  ? "Dense"
                  : "Sparse");
    });

}  // namespace
}  // namespace serve
}  // namespace pmw
