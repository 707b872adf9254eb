// Transcript-equivalence and concurrency harness for the sharded
// PmwService (serve v2).
//
// The serving layer's whole contract is: however many threads prepare
// queries, the externally visible transcript — per-query answers (values
// and error codes, positionally) and the privacy ledger (event labels,
// parameters, and commit order) — is bit-identical to running sequential
// PmwCm under the same seed. These tests check that property-style:
// random datasets x query mixes x batch sizes x thread counts, with the
// randomized private oracle in the loop so the mechanism's RNG stream is
// part of what must line up. Comparisons are exact (operator== on
// doubles, string-equal ledger reports), not tolerance-based: any
// scheduling dependence shows up as a hard diff, and the TSan CI job
// rebuilds this binary to check the data-race side of the argument.

#include <cstddef>
#include <memory>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "common/random.h"
#include "core/pmw_cm.h"
#include "data/binary_universe.h"
#include "data/generators.h"
#include "erm/noisy_gradient_oracle.h"
#include "erm/nonprivate_oracle.h"
#include "gtest/gtest.h"
#include "losses/loss_family.h"
#include "serve/pmw_service.h"

namespace pmw {
namespace serve {
namespace {

struct Transcript {
  std::vector<Result<convex::Vec>> answers;
  std::string ledger_report;
  int update_count = 0;
  long long queries_answered = 0;
  bool halted = false;
};

/// The sequential ground truth: plain PmwCm, one query at a time.
Transcript RunSequential(const data::Dataset& dataset,
                         const core::PmwOptions& options, uint64_t seed,
                         const std::vector<convex::CmQuery>& workload) {
  erm::NoisyGradientOracle oracle;
  core::PmwCm cm(&dataset, &oracle, options, seed);
  Transcript t;
  for (const convex::CmQuery& query : workload) {
    Result<core::PmwAnswer> answer = cm.AnswerQuery(query);
    if (answer.ok()) {
      t.answers.push_back(std::move(answer.value().theta));
    } else {
      t.answers.push_back(answer.status());
    }
  }
  t.ledger_report = cm.ledger().Report();
  t.update_count = cm.update_count();
  t.queries_answered = cm.queries_answered();
  t.halted = cm.halted();
  return t;
}

/// The system under test: sharded service at a given thread count,
/// feeding the workload through in batches of `batch_size`.
Transcript RunParallel(const data::Dataset& dataset,
                       const core::PmwOptions& options, uint64_t seed,
                       const std::vector<convex::CmQuery>& workload,
                       int num_threads, size_t batch_size) {
  erm::NoisyGradientOracle oracle;
  ServeOptions serve_options;
  serve_options.num_threads = num_threads;
  PmwService service(&dataset, &oracle, options, seed, serve_options);
  Transcript t;
  for (size_t start = 0; start < workload.size(); start += batch_size) {
    size_t count = std::min(batch_size, workload.size() - start);
    std::span<const convex::CmQuery> batch(&workload[start], count);
    for (auto& result : service.AnswerBatch(batch)) {
      t.answers.push_back(std::move(result));
    }
  }
  t.ledger_report = service.mechanism().ledger().Report();
  t.update_count = service.mechanism().update_count();
  t.queries_answered = service.mechanism().queries_answered();
  t.halted = service.mechanism().halted();
  return t;
}

/// Bit-exact comparison of two transcripts; `context` labels failures.
void ExpectIdentical(const Transcript& got, const Transcript& want,
                     const std::string& context) {
  ASSERT_EQ(got.answers.size(), want.answers.size()) << context;
  for (size_t j = 0; j < want.answers.size(); ++j) {
    ASSERT_EQ(got.answers[j].ok(), want.answers[j].ok())
        << context << " status diverged at query " << j;
    if (!want.answers[j].ok()) {
      EXPECT_EQ(got.answers[j].status().code(),
                want.answers[j].status().code())
          << context << " error code diverged at query " << j;
      continue;
    }
    const convex::Vec& g = *got.answers[j];
    const convex::Vec& w = *want.answers[j];
    ASSERT_EQ(g.size(), w.size()) << context << " at query " << j;
    for (size_t i = 0; i < w.size(); ++i) {
      // Exact, not NEAR: the claim is bit-identical transcripts.
      EXPECT_EQ(g[i], w[i])
          << context << " query " << j << " coordinate " << i;
    }
  }
  EXPECT_EQ(got.ledger_report, want.ledger_report) << context;
  EXPECT_EQ(got.update_count, want.update_count) << context;
  EXPECT_EQ(got.queries_answered, want.queries_answered) << context;
  EXPECT_EQ(got.halted, want.halted) << context;
}

core::PmwOptions PracticalOptions() {
  core::PmwOptions options;
  options.alpha = 0.15;
  options.beta = 0.05;
  options.privacy = {2.0, 1e-6};
  options.scale = 2.0;
  options.max_queries = 400;
  options.override_updates = 12;
  return options;
}

/// One randomized scenario per dataset seed: a logistic-model dataset
/// whose parameters are drawn from the seed, and a query mix cycling a
/// pool of Lipschitz losses (many clients, overlapping questions) with a
/// block of fresh one-off queries at the end.
class ServeParallelPropertyTest : public ::testing::TestWithParam<int> {
 protected:
  // The family owns the loss/domain objects every CmQuery points at, so
  // it must outlive the workload (member order matters here).
  ServeParallelPropertyTest() : universe_(3), family_(3) {
    Rng rng(1000 + static_cast<uint64_t>(GetParam()));
    std::vector<double> theta_star, biases;
    for (int d = 0; d < 3; ++d) {
      theta_star.push_back(rng.Uniform(-1.0, 1.0));
      biases.push_back(rng.Uniform(0.3, 0.7));
    }
    dist_ = std::make_unique<data::Histogram>(data::LogisticModelDistribution(
        universe_, theta_star, biases, rng.Uniform(0.2, 0.4)));
    dataset_ = std::make_unique<data::Dataset>(
        data::RoundedDataset(universe_, *dist_, 60000));

    Rng query_rng(2000 + static_cast<uint64_t>(GetParam()));
    std::vector<convex::CmQuery> pool = family_.Generate(10, &query_rng);
    for (int j = 0; j < 48; ++j) {
      workload_.push_back(pool[static_cast<size_t>(j) % pool.size()]);
    }
    for (convex::CmQuery& one_off : family_.Generate(12, &query_rng)) {
      workload_.push_back(one_off);
    }
  }

  data::LabeledHypercubeUniverse universe_;
  losses::LipschitzFamily family_;
  std::unique_ptr<data::Histogram> dist_;
  std::unique_ptr<data::Dataset> dataset_;
  std::vector<convex::CmQuery> workload_;
};

TEST_P(ServeParallelPropertyTest, TranscriptMatchesSequentialEverywhere) {
  const uint64_t seed = 9000 + static_cast<uint64_t>(GetParam());
  Transcript want =
      RunSequential(*dataset_, PracticalOptions(), seed, workload_);
  // The workload must actually exercise the hard path somewhere.
  EXPECT_GT(want.update_count, 0) << "scenario never fired an update";

  for (int threads : {1, 2, 4}) {
    for (size_t batch : {size_t{1}, size_t{7}, size_t{32}}) {
      Transcript got = RunParallel(*dataset_, PracticalOptions(), seed,
                                   workload_, threads, batch);
      ExpectIdentical(got, want,
                      "threads=" + std::to_string(threads) +
                          " batch=" + std::to_string(batch));
    }
  }
}

TEST_P(ServeParallelPropertyTest, HaltTranscriptsMatchUnderThreads) {
  // A tiny update budget forces a mid-workload halt; the parallel engine
  // must fail the same queries with the same codes, at every thread
  // count, and must not burn updates the sequential mechanism didn't.
  core::PmwOptions options = PracticalOptions();
  options.override_updates = 2;
  const uint64_t seed = 7000 + static_cast<uint64_t>(GetParam());

  Transcript want = RunSequential(*dataset_, options, seed, workload_);
  for (int threads : {2, 4}) {
    Transcript got =
        RunParallel(*dataset_, options, seed, workload_, threads, 16);
    ExpectIdentical(got, want, "halt threads=" + std::to_string(threads));
  }
}

INSTANTIATE_TEST_SUITE_P(RandomScenarios, ServeParallelPropertyTest,
                         ::testing::Range(0, 3));

TEST(ServeParallelTest, BudgetExhaustionMidBatchMatchesSequential) {
  // A k-query budget smaller than one batch: the prepare phase caps at
  // the remaining budget and the overflow positions must be rejected
  // with exactly the sequential mechanism's statuses.
  data::LabeledHypercubeUniverse universe(3);
  data::Histogram dist = data::LogisticModelDistribution(
      universe, {1.0, -0.8, 0.5}, {0.7, 0.4, 0.5}, 0.25);
  data::Dataset dataset = data::RoundedDataset(universe, dist, 60000);

  core::PmwOptions options = PracticalOptions();
  options.max_queries = 10;

  losses::LipschitzFamily family(3);
  Rng rng(8);
  std::vector<convex::CmQuery> workload = family.Generate(30, &rng);

  const uint64_t seed = 3030;
  Transcript want = RunSequential(dataset, options, seed, workload);
  for (int threads : {1, 4}) {
    Transcript got =
        RunParallel(dataset, options, seed, workload, threads, 30);
    ExpectIdentical(got, want, "budget threads=" + std::to_string(threads));
  }
  long long rejected = 0;
  for (const auto& answer : want.answers) {
    if (!answer.ok()) ++rejected;
  }
  EXPECT_EQ(rejected, 20);
}

TEST(ServeParallelTest, EpochAdvancesWithUpdatesAndBatches) {
  data::LabeledHypercubeUniverse universe(3);
  data::Histogram dist = data::LogisticModelDistribution(
      universe, {1.0, -0.8, 0.5}, {0.7, 0.4, 0.5}, 0.25);
  data::Dataset dataset = data::RoundedDataset(universe, dist, 60000);

  losses::LipschitzFamily family(3);
  Rng rng(5);
  std::vector<convex::CmQuery> workload = family.Generate(24, &rng);

  erm::NoisyGradientOracle oracle;
  ServeOptions serve_options;
  serve_options.num_threads = 2;
  PmwService service(&dataset, &oracle, PracticalOptions(), 42,
                     serve_options);
  service.AnswerBatch(workload);

  const ServeStats stats = service.stats();
  EXPECT_EQ(stats.threads, 2);
  // One publish at batch start plus one per mid-batch update (except an
  // update on the very last query, which has no suffix to re-prepare).
  EXPECT_GE(stats.epochs, 1 + stats.updates - 1);
  ASSERT_NE(service.epochs().Current(), nullptr);
  EXPECT_EQ(service.epochs().Current()->version,
            service.mechanism().hypothesis_version());
  EXPECT_EQ(stats.bottom_answers + stats.updates + stats.errors,
            stats.queries);
}

TEST(ServeParallelTest, ShardCacheStillAmortizesRepeats) {
  data::LabeledHypercubeUniverse universe(3);
  data::Histogram uniform = data::Histogram::Uniform(universe.size());
  data::Dataset dataset = data::RoundedDataset(universe, uniform, 60000);

  losses::LipschitzFamily family(3);
  Rng rng(6);
  std::vector<convex::CmQuery> pool = family.Generate(4, &rng);
  std::vector<convex::CmQuery> workload;
  for (int j = 0; j < 64; ++j) {
    workload.push_back(pool[static_cast<size_t>(j) % pool.size()]);
  }

  erm::NonPrivateOracle oracle;
  ServeOptions serve_options;
  serve_options.num_threads = 2;
  PmwService service(&dataset, &oracle, PracticalOptions(), 77,
                     serve_options);
  service.AnswerBatch(workload);

  // Dedup precedes sharding: at most 4 distinct plans are computed per
  // epoch regardless of thread count; everything else must be a hit.
  const ServeStats stats = service.stats();
  long long epochs = stats.epochs;
  EXPECT_GE(stats.prepare_cache_hits, 64 - 4 * epochs);
  EXPECT_GT(stats.prepare_cache_hits, 0);
}

}  // namespace
}  // namespace serve
}  // namespace pmw
