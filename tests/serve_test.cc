// PmwService batch-serving tests: the batched path must be observationally
// identical to the sequential mechanism — same answers query-for-query,
// same privacy ledger, same halt behavior — while actually amortizing
// (cache hits, one compaction pass per batch).

#include <cmath>
#include <span>
#include <vector>

#include "common/random.h"
#include "core/pmw_cm.h"
#include "data/binary_universe.h"
#include "data/generators.h"
#include "erm/noisy_gradient_oracle.h"
#include "erm/nonprivate_oracle.h"
#include "gtest/gtest.h"
#include "losses/loss_family.h"
#include "obs/metrics.h"
#include "serve/pmw_service.h"

namespace pmw {
namespace serve {
namespace {

class ServeTest : public ::testing::Test {
 protected:
  ServeTest()
      : universe_(3),
        dist_(data::LogisticModelDistribution(universe_, {1.0, -0.8, 0.5},
                                              {0.7, 0.4, 0.5}, 0.25)),
        dataset_(data::RoundedDataset(universe_, dist_, 150000)) {}

  core::PmwOptions PracticalOptions() const {
    core::PmwOptions options;
    options.alpha = 0.15;
    options.beta = 0.05;
    options.privacy = {2.0, 1e-6};
    options.scale = 2.0;
    options.max_queries = 400;
    options.override_updates = 16;
    return options;
  }

  /// A workload that repeats a small pool of queries (the serving regime:
  /// many clients, overlapping questions).
  std::vector<convex::CmQuery> CyclingWorkload(losses::QueryFamily* family,
                                               int pool, int total,
                                               uint64_t seed) {
    Rng rng(seed);
    std::vector<convex::CmQuery> queries = family->Generate(pool, &rng);
    std::vector<convex::CmQuery> workload;
    workload.reserve(total);
    for (int j = 0; j < total; ++j) workload.push_back(queries[j % pool]);
    return workload;
  }

  data::LabeledHypercubeUniverse universe_;
  data::Histogram dist_;
  data::Dataset dataset_;
};

TEST_F(ServeTest, BatchMatchesSequentialWithPrivateOracle) {
  losses::LipschitzFamily family(3);
  std::vector<convex::CmQuery> workload =
      CyclingWorkload(&family, /*pool=*/12, /*total=*/96, /*seed=*/7);

  constexpr uint64_t kSeed = 404;
  erm::NoisyGradientOracle sequential_oracle;
  core::PmwCm sequential(&dataset_, &sequential_oracle, PracticalOptions(),
                         kSeed);
  erm::NoisyGradientOracle batched_oracle;
  PmwService service(&dataset_, &batched_oracle, PracticalOptions(), kSeed);

  std::vector<Result<convex::Vec>> sequential_answers;
  for (const convex::CmQuery& query : workload) {
    Result<core::PmwAnswer> answer = sequential.AnswerQuery(query);
    if (answer.ok()) {
      sequential_answers.push_back(std::move(answer.value().theta));
    } else {
      sequential_answers.push_back(answer.status());
    }
  }

  std::vector<Result<convex::Vec>> batched_answers;
  constexpr size_t kBatch = 32;
  for (size_t start = 0; start < workload.size(); start += kBatch) {
    size_t count = std::min(kBatch, workload.size() - start);
    std::span<const convex::CmQuery> batch(&workload[start], count);
    std::vector<Result<convex::Vec>> results = service.AnswerBatch(batch);
    for (auto& result : results) batched_answers.push_back(std::move(result));
  }

  ASSERT_EQ(batched_answers.size(), sequential_answers.size());
  for (size_t j = 0; j < workload.size(); ++j) {
    ASSERT_EQ(batched_answers[j].ok(), sequential_answers[j].ok())
        << "status diverged at query " << j;
    if (!batched_answers[j].ok()) {
      EXPECT_EQ(batched_answers[j].status().code(),
                sequential_answers[j].status().code());
      continue;
    }
    const convex::Vec& got = *batched_answers[j];
    const convex::Vec& want = *sequential_answers[j];
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_DOUBLE_EQ(got[i], want[i])
          << "query " << j << " coordinate " << i;
    }
  }

  // Mechanism transcripts agree.
  EXPECT_EQ(service.mechanism().queries_answered(),
            sequential.queries_answered());
  EXPECT_EQ(service.mechanism().update_count(), sequential.update_count());
  EXPECT_EQ(service.mechanism().hypothesis_version(),
            sequential.hypothesis_version());

  // The privacy ledger charges identically: same events, same totals.
  const dp::PrivacyLedger& batched_ledger = service.mechanism().ledger();
  const dp::PrivacyLedger& sequential_ledger = sequential.ledger();
  EXPECT_EQ(batched_ledger.event_count(), sequential_ledger.event_count());
  EXPECT_EQ(batched_ledger.CountWithPrefix("oracle"),
            sequential_ledger.CountWithPrefix("oracle"));
  EXPECT_DOUBLE_EQ(batched_ledger.BasicTotal().epsilon,
                   sequential_ledger.BasicTotal().epsilon);
  EXPECT_DOUBLE_EQ(batched_ledger.BasicTotal().delta,
                   sequential_ledger.BasicTotal().delta);
  EXPECT_EQ(batched_ledger.Report(), sequential_ledger.Report());
}

TEST_F(ServeTest, BatchAmortizesRepeatedQueries) {
  losses::LipschitzFamily family(3);
  std::vector<convex::CmQuery> workload =
      CyclingWorkload(&family, /*pool=*/4, /*total=*/64, /*seed=*/21);

  erm::NonPrivateOracle oracle;
  PmwService service(&dataset_, &oracle, PracticalOptions(), 505);
  std::vector<Result<convex::Vec>> results = service.AnswerBatch(workload);

  ASSERT_EQ(results.size(), workload.size());
  const obs::Registry& registry = service.registry();
  EXPECT_EQ(registry.CounterValue("pmw_serve_queries_total"), 64);
  EXPECT_EQ(registry.CounterValue("pmw_serve_batches_total"), 1);
  // With 4 distinct queries and no mid-batch update, at most
  // pool * (updates + 1) plans are computed; everything else is a hit.
  EXPECT_GE(registry.CounterValue("pmw_serve_prepare_cache_hits_total"),
            64 - 4 * (service.mechanism().update_count() + 1));
  EXPECT_EQ(registry.CounterValue("pmw_serve_updates_total"),
            service.mechanism().update_count());
  EXPECT_EQ(registry.CounterValue("pmw_serve_bottom_total") +
                registry.CounterValue("pmw_serve_updates_total") +
                registry.CounterValue("pmw_serve_errors_total"),
            64);
  EXPECT_EQ(registry.HistogramSnap("pmw_serve_batch_latency_ms").count, 1);
}

TEST_F(ServeTest, PerQueryErrorsMatchSequentialAfterHalt) {
  // Force a tiny update budget so the sparse vector halts mid-workload;
  // both paths must then fail the same queries with the same codes.
  core::PmwOptions options = PracticalOptions();
  options.override_updates = 2;

  losses::LipschitzFamily family(3);
  std::vector<convex::CmQuery> workload =
      CyclingWorkload(&family, /*pool=*/16, /*total=*/48, /*seed=*/33);

  constexpr uint64_t kSeed = 8080;
  erm::NoisyGradientOracle sequential_oracle;
  core::PmwCm sequential(&dataset_, &sequential_oracle, options, kSeed);
  erm::NoisyGradientOracle batched_oracle;
  PmwService service(&dataset_, &batched_oracle, options, kSeed);

  std::vector<Result<convex::Vec>> batched = service.AnswerBatch(workload);
  for (size_t j = 0; j < workload.size(); ++j) {
    Result<core::PmwAnswer> want = sequential.AnswerQuery(workload[j]);
    ASSERT_EQ(batched[j].ok(), want.ok()) << "query " << j;
    if (!want.ok()) {
      EXPECT_EQ(batched[j].status().code(), want.status().code());
    }
  }
  EXPECT_EQ(service.mechanism().halted(), sequential.halted());
}

TEST_F(ServeTest, SingleQueryAnswerMatchesBatchOfOne) {
  losses::LipschitzFamily family(3);
  Rng rng(5);
  convex::CmQuery query = family.Next(&rng);

  constexpr uint64_t kSeed = 777;
  erm::NonPrivateOracle oracle_a;
  PmwService a(&dataset_, &oracle_a, PracticalOptions(), kSeed);
  erm::NonPrivateOracle oracle_b;
  PmwService b(&dataset_, &oracle_b, PracticalOptions(), kSeed);

  Result<convex::Vec> single = a.Answer(query);
  std::vector<Result<convex::Vec>> batch = b.AnswerBatch({&query, 1});
  ASSERT_TRUE(single.ok());
  ASSERT_TRUE(batch.front().ok());
  ASSERT_EQ(single.value().size(), batch.front().value().size());
  for (size_t i = 0; i < single.value().size(); ++i) {
    EXPECT_DOUBLE_EQ(single.value()[i], batch.front().value()[i]);
  }
}

}  // namespace
}  // namespace serve
}  // namespace pmw
