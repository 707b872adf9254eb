// Transcript-equivalence harness for the domain-sharded PMW engine.
//
// The hypothesis is partitioned into K domain shards (the service's shard
// runner fork-joins per-shard MW-update work over the worker pool). The
// contract is the same one every serving layer before it carried, now
// over a strictly larger configuration space: at ANY
// (shards x threads x batch size), the externally visible transcript —
// per-query answers (values and error codes, positionally) and the
// privacy ledger (event labels, parameters, commit order) — is
// bit-identical to running sequential PmwCm under the same seed. These
// tests check that property-style over random datasets, shards {1, 2, 4}
// x threads {1, 4} x batch sizes x cross-batch plan cache off/on, with
// the randomized private oracle in the loop; the TSan CI job rebuilds
// this binary to keep the data-race side of the argument honest.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "core/pmw_cm.h"
#include "data/binary_universe.h"
#include "data/generators.h"
#include "erm/noisy_gradient_oracle.h"
#include "gtest/gtest.h"
#include "losses/loss_family.h"
#include "obs/metrics.h"
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
  /// Cross-batch plan-cache traffic (RunSharded with a cache only).
  long long plan_cache_hits = 0;
  long long plan_cache_stale = 0;
};

/// The sequential ground truth: plain PmwCm (single shard, no pool),
/// one query at a time.
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

/// The system under test: sharded service at (num_shards, num_threads),
/// feeding the workload through in batches of `batch_size`, with a
/// cross-batch PlanCache attached when `with_cache`.
Transcript RunSharded(const data::Dataset& dataset,
                      const core::PmwOptions& options, uint64_t seed,
                      const std::vector<convex::CmQuery>& workload,
                      int num_shards, int num_threads, size_t batch_size,
                      bool with_cache = false) {
  erm::NoisyGradientOracle oracle;
  ServeOptions serve_options;
  serve_options.num_threads = num_threads;
  serve_options.num_shards = num_shards;
  // Declared before the service, which holds a pointer to it.
  PlanCache cache;
  PmwService service(&dataset, &oracle, options, seed, serve_options);
  if (with_cache) service.set_plan_cache(&cache);
  EXPECT_EQ(service.num_shards(), num_shards)
      << "power-of-two shard counts within the universe must stick";
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
  t.plan_cache_hits =
      service.registry().CounterValue("pmw_serve_cross_batch_hits_total");
  t.plan_cache_stale = service.registry().CounterValue(
      "pmw_frontend_plan_stale_dropped_total");
  return t;
}

/// Like RunSharded, but recording per-query spans and — when `scrape` —
/// running a concurrent scraper thread that hammers the registry's
/// exposition and reads its counters by name the whole run.
/// Observability must never touch the transcript, so the result must be
/// bit-identical to every other configuration.
Transcript RunShardedObserved(const data::Dataset& dataset,
                              const core::PmwOptions& options, uint64_t seed,
                              const std::vector<convex::CmQuery>& workload,
                              int num_shards, int num_threads,
                              size_t batch_size, bool scrape) {
  erm::NoisyGradientOracle oracle;
  ServeOptions serve_options;
  serve_options.num_threads = num_threads;
  serve_options.num_shards = num_shards;
  PmwService service(&dataset, &oracle, options, seed, serve_options);

  std::atomic<bool> stop{false};
  std::thread scraper;
  if (scrape) {
    scraper = std::thread([&service, &stop] {
      const obs::Registry& registry = service.registry();
      long long queries = 0;
      long long updates = 0;
      while (!stop.load(std::memory_order_acquire)) {
        EXPECT_FALSE(registry.TextExposition().empty());
        // Counters never run backwards under a live scrape.
        const long long now_queries =
            registry.CounterValue("pmw_serve_queries_total");
        const long long now_updates =
            registry.CounterValue("pmw_serve_updates_total");
        EXPECT_GE(now_queries, queries);
        EXPECT_GE(now_updates, updates);
        queries = now_queries;
        updates = now_updates;
      }
    });
  }

  Transcript t;
  std::vector<QueryOutcome> outcomes;
  for (size_t start = 0; start < workload.size(); start += batch_size) {
    size_t count = std::min(batch_size, workload.size() - start);
    std::span<const convex::CmQuery> batch(&workload[start], count);
    std::vector<Result<convex::Vec>> results =
        service.AnswerBatch(batch, {}, &outcomes);
    EXPECT_EQ(outcomes.size(), count);
    for (Result<convex::Vec>& result : results) {
      t.answers.push_back(std::move(result));
    }
  }
  if (scrape) {
    stop.store(true, std::memory_order_release);
    scraper.join();
  }
  t.ledger_report = service.mechanism().ledger().Report();
  t.update_count = service.mechanism().update_count();
  t.queries_answered = service.mechanism().queries_answered();
  t.halted = service.mechanism().halted();
  return t;
}

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

/// One randomized scenario per seed, same shape as serve_parallel_test:
/// a logistic-model dataset drawn from the seed and a query mix cycling
/// a pool of Lipschitz losses plus fresh one-offs.
class ServeShardedPropertyTest : public ::testing::TestWithParam<int> {
 protected:
  ServeShardedPropertyTest() : universe_(3), family_(3) {
    Rng rng(5000 + static_cast<uint64_t>(GetParam()));
    std::vector<double> theta_star, biases;
    for (int d = 0; d < 3; ++d) {
      theta_star.push_back(rng.Uniform(-1.0, 1.0));
      biases.push_back(rng.Uniform(0.3, 0.7));
    }
    dist_ = std::make_unique<data::Histogram>(data::LogisticModelDistribution(
        universe_, theta_star, biases, rng.Uniform(0.2, 0.4)));
    dataset_ = std::make_unique<data::Dataset>(
        data::RoundedDataset(universe_, *dist_, 60000));

    Rng query_rng(6000 + static_cast<uint64_t>(GetParam()));
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

TEST_P(ServeShardedPropertyTest, TranscriptMatchesSequentialEverywhere) {
  const uint64_t seed = 9900 + static_cast<uint64_t>(GetParam());
  Transcript want =
      RunSequential(*dataset_, PracticalOptions(), seed, workload_);
  // The workload must actually exercise the sharded MW-update path.
  EXPECT_GT(want.update_count, 0) << "scenario never fired an update";

  long long cache_hits = 0;
  long long cache_stale = 0;
  for (int shards : {1, 2, 4}) {
    for (int threads : {1, 4}) {
      for (size_t batch : {size_t{1}, size_t{7}, size_t{32}}) {
        for (bool with_cache : {false, true}) {
          Transcript got =
              RunSharded(*dataset_, PracticalOptions(), seed, workload_,
                         shards, threads, batch, with_cache);
          ExpectIdentical(got, want,
                          "shards=" + std::to_string(shards) +
                              " threads=" + std::to_string(threads) +
                              " batch=" + std::to_string(batch) +
                              " cache=" + (with_cache ? "on" : "off"));
          cache_hits += got.plan_cache_hits;
          cache_stale += got.plan_cache_stale;
        }
      }
    }
  }
  // The cache axis must exercise both of the cache's non-miss outcomes.
  EXPECT_GT(cache_hits, 0);
  EXPECT_GT(cache_stale, 0);
}

TEST_P(ServeShardedPropertyTest, HaltTranscriptsMatchUnderShards) {
  // A tiny update budget forces a mid-workload halt; the sharded engine
  // must fail the same queries with the same codes at every shard count,
  // and must not burn updates the sequential mechanism didn't.
  core::PmwOptions options = PracticalOptions();
  options.override_updates = 2;
  const uint64_t seed = 7700 + static_cast<uint64_t>(GetParam());

  Transcript want = RunSequential(*dataset_, options, seed, workload_);
  for (int shards : {2, 4}) {
    Transcript got = RunSharded(*dataset_, options, seed, workload_,
                                shards, 4, 16);
    ExpectIdentical(got, want, "halt shards=" + std::to_string(shards));
  }
}

TEST_P(ServeShardedPropertyTest, ObservabilityNeverTouchesTheTranscript) {
  // The observability invariant: span recording, with or without a
  // scraper thread reading the registry's exposition and counters
  // the whole run, never changes answers, the ledger, or commit order.
  const uint64_t seed = 8800 + static_cast<uint64_t>(GetParam());
  Transcript want =
      RunSequential(*dataset_, PracticalOptions(), seed, workload_);
  EXPECT_GT(want.update_count, 0) << "scenario never fired an update";

  for (const bool scrape : {false, true}) {
    Transcript got = RunShardedObserved(
        *dataset_, PracticalOptions(), seed, workload_, /*num_shards=*/4,
        /*num_threads=*/4, /*batch_size=*/16, scrape);
    ExpectIdentical(got, want,
                    std::string("scraper=") + (scrape ? "on" : "off"));
  }
}

TEST_P(ServeShardedPropertyTest, SpansDecomposeTheCommit) {
  // With spans on, hard rounds report a commit that contains its solve
  // and MW halves, and (at shards > 1) per-shard MW durations sized to
  // the topology.
  const uint64_t seed = 9900 + static_cast<uint64_t>(GetParam());
  erm::NoisyGradientOracle oracle;
  ServeOptions serve_options;
  serve_options.num_threads = 4;
  serve_options.num_shards = 4;
  PmwService service(dataset_.get(), &oracle, PracticalOptions(), seed,
                     serve_options);
  std::vector<QueryOutcome> outcomes;
  std::vector<Result<convex::Vec>> results =
      service.AnswerBatch(workload_, {}, &outcomes);
  ASSERT_EQ(outcomes.size(), workload_.size());
  int hard_rounds = 0;
  for (size_t j = 0; j < outcomes.size(); ++j) {
    if (!results[j].ok()) continue;
    const QueryOutcome& outcome = outcomes[j];
    if (!outcome.hard_round) {
      EXPECT_EQ(outcome.solve_us, 0u) << "soft round solved at query " << j;
      EXPECT_TRUE(outcome.shard_us.empty());
      continue;
    }
    ++hard_rounds;
    EXPECT_GE(outcome.commit_us, outcome.solve_us + outcome.mw_us)
        << "commit smaller than its parts at query " << j;
    EXPECT_EQ(outcome.shard_us.size(),
              static_cast<size_t>(service.num_shards()))
        << "per-shard MW timings missing at query " << j;
  }
  EXPECT_GT(hard_rounds, 0) << "scenario never fired a hard round";
}

INSTANTIATE_TEST_SUITE_P(RandomScenarios, ServeShardedPropertyTest,
                         ::testing::Range(0, 3));

TEST(ServeShardedTest, ShardCountClampsAndReportsInStats) {
  data::LabeledHypercubeUniverse universe(3);  // |X| = 16
  data::Histogram dist = data::LogisticModelDistribution(
      universe, {1.0, -0.8, 0.5}, {0.7, 0.4, 0.5}, 0.25);
  data::Dataset dataset = data::RoundedDataset(universe, dist, 60000);
  erm::NoisyGradientOracle oracle;

  ServeOptions serve_options;
  serve_options.num_threads = 2;
  serve_options.num_shards = 3;  // rounds down to 2
  PmwService rounded(&dataset, &oracle, PracticalOptions(), 1,
                     serve_options);
  EXPECT_EQ(rounded.num_shards(), 2);
  EXPECT_NE(
      rounded.registry().TextExposition().find("\npmw_serve_shards 2\n"),
      std::string::npos);

  serve_options.num_shards = 64;  // clamps to |X| = 16
  PmwService clamped(&dataset, &oracle, PracticalOptions(), 1,
                     serve_options);
  EXPECT_EQ(clamped.num_shards(), 16);
}

TEST(ServeShardedTest, PooledShardsObserveEveryMwUpdate) {
  data::LabeledHypercubeUniverse universe(3);
  data::Histogram dist = data::LogisticModelDistribution(
      universe, {1.0, -0.8, 0.5}, {0.7, 0.4, 0.5}, 0.25);
  data::Dataset dataset = data::RoundedDataset(universe, dist, 60000);

  losses::LipschitzFamily family(3);
  Rng rng(5);
  std::vector<convex::CmQuery> workload = family.Generate(24, &rng);

  erm::NoisyGradientOracle oracle;
  ServeOptions serve_options;
  serve_options.num_threads = 4;
  serve_options.num_shards = 4;
  PmwService service(&dataset, &oracle, PracticalOptions(), 42,
                     serve_options);
  service.AnswerBatch(workload);

  const obs::Registry& registry = service.registry();
  const long long updates = registry.CounterValue("pmw_serve_updates_total");
  ASSERT_GT(updates, 0) << "workload never fired a hard round";
  // One MW-update observation per hard round.
  const obs::Histogram::Snapshot mw =
      registry.HistogramSnap("pmw_serve_mw_update_us");
  EXPECT_EQ(mw.count, updates);
  EXPECT_GE(mw.sum, 0.0);
}

}  // namespace
}  // namespace serve
}  // namespace pmw
