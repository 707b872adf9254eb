// Acceptance tests for the async multi-analyst front-end
// (frontend/dispatcher.h + quota_manager.h, with serve/plan_cache.h):
//
//   (a) Transcript equivalence. N concurrent analyst threads submit
//       through the Dispatcher; the recorded arrival log is replayed
//       through sequential PmwCm under the same seed, and answers plus
//       the privacy ledger must be *bit-identical* — the MPSC queue
//       fixes the interleaving at enqueue time and the single-writer
//       commit loop preserves it, so asynchrony may only change
//       wall-clock, never the transcript.
//   (b) Quota rejections are free. A front-door rejection never reaches
//       the mechanism: the ledger (event count and totals) is unchanged
//       and no k-query slot is consumed.
//   (c) The version-keyed PlanCache actually amortizes across batches
//       (hit-rate > 0 on a repeated-query workload), serves a plan only
//       at the hypothesis version it was prepared at, and lazily drops
//       plans from any other version.
//   (d) The cache in isolation: a full cache refuses new keys while
//       residents keep hitting and stale drops free room; a stale probe
//       lends the entry's data_min (min l_D) and nothing else.
//
// The TSan CI job rebuilds this binary, so the concurrency claims are
// machine-checked alongside the functional ones.

#include <atomic>
#include <cmath>
#include <cstdint>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "api/error.h"
#include "common/random.h"
#include "core/pmw_cm.h"
#include "data/binary_universe.h"
#include "data/generators.h"
#include "erm/noisy_gradient_oracle.h"
#include "erm/nonprivate_oracle.h"
#include "frontend/dispatcher.h"
#include "frontend/quota_manager.h"
#include "gtest/gtest.h"
#include "losses/loss_family.h"
#include "serve/plan_cache.h"
#include "serve/pmw_service.h"

namespace pmw {
namespace frontend {
namespace {

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

/// Shared scenario: a logistic-model dataset and a pool of reusable
/// Lipschitz queries (the pool objects give pointer-identity query
/// keys, as in production where families own the losses).
class FrontendTest : public ::testing::Test {
 protected:
  FrontendTest() : universe_(3), family_(3) {
    data::Histogram dist = data::LogisticModelDistribution(
        universe_, {1.0, -0.8, 0.5}, {0.7, 0.4, 0.5}, 0.25);
    dataset_ = std::make_unique<data::Dataset>(
        data::RoundedDataset(universe_, dist, 60000));
    Rng rng(424242);
    pool_ = family_.Generate(8, &rng);
  }

  data::LabeledHypercubeUniverse universe_;
  losses::LipschitzFamily family_;
  std::unique_ptr<data::Dataset> dataset_;
  std::vector<convex::CmQuery> pool_;
};

struct SubmittedRequest {
  uint64_t id = 0;
  size_t pool_index = 0;
  std::string analyst;
  std::future<Served> future;
};

TEST_F(FrontendTest, TranscriptMatchesSequentialReplayOfArrivalLog) {
  constexpr int kAnalysts = 4;
  constexpr int kQueriesPerAnalyst = 30;
  constexpr uint64_t kSeed = 555;

  // Enough update budget that the workload cannot halt the sparse vector
  // mid-test: admission must stay deterministic (120 accepted requests)
  // for the arrival-log replay to be exhaustive.
  core::PmwOptions options = PracticalOptions();
  options.override_updates = 24;

  erm::NoisyGradientOracle oracle;
  serve::ServeOptions serve_options;
  serve_options.num_threads = 2;
  serve::PmwService service(dataset_.get(), &oracle, options, kSeed,
                            serve_options);
  QuotaManager quota(&service, QuotaOptions{});  // unlimited
  serve::PlanCache cache;
  service.set_plan_cache(&cache);
  DispatcherOptions dispatcher_options;
  dispatcher_options.max_batch = 16;
  dispatcher_options.max_wait = std::chrono::microseconds(2000);
  dispatcher_options.record_arrival_log = true;
  Dispatcher dispatcher(&service, &quota, dispatcher_options);

  // A live scraper reads both registry-backed stats views until Shutdown
  // returns; observability must never race the writer or touch the
  // transcript.
  std::atomic<bool> serving{true};
  std::thread scraper([&dispatcher, &service, &serving] {
    long long submitted = 0;
    long long queries = 0;
    while (serving.load(std::memory_order_acquire)) {
      // Counters never run backwards under a live scrape.
      const long long now_submitted = dispatcher.stats().submitted;
      const long long now_queries = service.stats().queries;
      EXPECT_GE(now_submitted, submitted);
      EXPECT_GE(now_queries, queries);
      submitted = now_submitted;
      queries = now_queries;
    }
  });

  // N analysts, each submitting its own deterministic slice of the pool
  // from its own thread. The global interleaving is whatever the MPSC
  // queue observed — the arrival log captures it for the replay.
  std::mutex submitted_mutex;
  std::vector<SubmittedRequest> submitted;
  std::vector<std::thread> analysts;
  analysts.reserve(kAnalysts);
  for (int a = 0; a < kAnalysts; ++a) {
    analysts.emplace_back([this, a, &dispatcher, &submitted_mutex,
                           &submitted] {
      AnalystSession session(&dispatcher, "analyst-" + std::to_string(a));
      for (int j = 0; j < kQueriesPerAnalyst; ++j) {
        size_t pool_index =
            static_cast<size_t>(a * 7 + j * 3) % pool_.size();
        SubmittedRequest request;
        request.pool_index = pool_index;
        request.analyst = session.analyst_id();
        request.future = session.Submit(pool_[pool_index], &request.id);
        std::lock_guard<std::mutex> lock(submitted_mutex);
        submitted.push_back(std::move(request));
      }
    });
  }
  for (std::thread& t : analysts) t.join();
  dispatcher.Shutdown();
  serving.store(false, std::memory_order_release);
  scraper.join();

  const std::vector<uint64_t> arrival = dispatcher.ArrivalLog();
  ASSERT_EQ(arrival.size(),
            static_cast<size_t>(kAnalysts * kQueriesPerAnalyst));

  std::unordered_map<uint64_t, SubmittedRequest*> by_id;
  for (SubmittedRequest& request : submitted) {
    by_id[request.id] = &request;
  }

  // Replay the exact interleaving through the sequential mechanism.
  erm::NoisyGradientOracle replay_oracle;
  core::PmwCm sequential(dataset_.get(), &replay_oracle, options, kSeed);
  for (size_t position = 0; position < arrival.size(); ++position) {
    auto it = by_id.find(arrival[position]);
    ASSERT_NE(it, by_id.end());
    SubmittedRequest& request = *it->second;
    Result<core::PmwAnswer> want =
        sequential.AnswerQuery(pool_[request.pool_index]);
    Result<convex::Vec> got = request.future.get().answer;
    ASSERT_EQ(got.ok(), want.ok()) << "position " << position;
    if (!want.ok()) {
      EXPECT_EQ(got.status().code(), want.status().code());
      continue;
    }
    const convex::Vec& g = *got;
    const convex::Vec& w = want.value().theta;
    ASSERT_EQ(g.size(), w.size());
    for (size_t i = 0; i < w.size(); ++i) {
      // Exact, not NEAR: the claim is bit-identical transcripts.
      EXPECT_EQ(g[i], w[i]) << "position " << position << " coord " << i;
    }
  }

  // The scenario must exercise the hard path, and the ledgers must agree
  // event-for-event (labels, params, commit sequence).
  EXPECT_GT(sequential.update_count(), 0);
  EXPECT_EQ(service.mechanism().ledger().Report(),
            sequential.ledger().Report());
  EXPECT_EQ(service.mechanism().update_count(), sequential.update_count());
  EXPECT_EQ(service.mechanism().queries_answered(),
            sequential.queries_answered());

  // Analyst tags flowed through to the per-analyst stats slice.
  const serve::ServeStats stats = service.stats();
  ASSERT_EQ(stats.per_analyst.size(), static_cast<size_t>(kAnalysts));
  long long tagged = 0;
  for (const auto& [analyst, counters] : stats.per_analyst) {
    EXPECT_EQ(counters.queries, kQueriesPerAnalyst) << analyst;
    tagged += counters.queries;
  }
  EXPECT_EQ(tagged, stats.queries);

  DispatcherStats dstats = dispatcher.stats();
  EXPECT_EQ(dstats.submitted, kAnalysts * kQueriesPerAnalyst);
  EXPECT_EQ(dstats.admitted, kAnalysts * kQueriesPerAnalyst);
  EXPECT_EQ(dstats.quota_rejected, 0);
  EXPECT_GT(dstats.batches, 0);
}

TEST_F(FrontendTest, QuotaRejectionConsumesZeroPrivacyBudget) {
  constexpr uint64_t kSeed = 77;
  erm::NoisyGradientOracle oracle;
  serve::PmwService service(dataset_.get(), &oracle, PracticalOptions(),
                            kSeed);
  QuotaOptions quota_options;
  quota_options.per_analyst_queries = 3;
  QuotaManager quota(&service, quota_options);
  Dispatcher dispatcher(&service, &quota);
  AnalystSession session(&dispatcher, "bounded-analyst");

  // First 3 are admitted and served.
  for (int j = 0; j < 3; ++j) {
    Result<convex::Vec> answer =
        session.Submit(pool_[static_cast<size_t>(j)]).get().answer;
    EXPECT_TRUE(answer.ok()) << answer.status().ToString();
  }
  const int events_before = service.mechanism().ledger().event_count();
  const dp::PrivacyParams spent_before =
      service.mechanism().ledger().BasicTotal();
  const long long answered_before = service.mechanism().queries_answered();

  // The next 5 are rejected at the front door with a typed error...
  for (int j = 0; j < 5; ++j) {
    Result<convex::Vec> rejected = session.Submit(pool_[0]).get().answer;
    ASSERT_FALSE(rejected.ok());
    EXPECT_EQ(rejected.status().code(), StatusCode::kResourceExhausted);
    EXPECT_NE(rejected.status().message().find("quota"), std::string::npos);
  }
  dispatcher.Shutdown();

  // ...and the mechanism never saw them: zero privacy cost, zero slots.
  EXPECT_EQ(service.mechanism().ledger().event_count(), events_before);
  EXPECT_EQ(service.mechanism().ledger().BasicTotal().epsilon,
            spent_before.epsilon);
  EXPECT_EQ(service.mechanism().ledger().BasicTotal().delta,
            spent_before.delta);
  EXPECT_EQ(service.mechanism().queries_answered(), answered_before);
  EXPECT_EQ(quota.admitted("bounded-analyst"), 3);
  EXPECT_EQ(quota.total_rejected(), 5);
  EXPECT_EQ(dispatcher.stats().quota_rejected, 5);
}

TEST_F(FrontendTest, RefundReturnsAnAdmittedSlot) {
  // A request admitted but never served (e.g. the dispatcher shut down
  // before it could enqueue) hands its slot back; the analyst is only
  // ever charged for queries the mechanism saw.
  erm::NonPrivateOracle oracle;
  serve::PmwService service(dataset_.get(), &oracle, PracticalOptions(), 1);
  QuotaOptions quota_options;
  quota_options.per_analyst_queries = 2;
  QuotaManager quota(&service, quota_options);

  EXPECT_TRUE(quota.Admit("a").ok());
  EXPECT_TRUE(quota.Admit("a").ok());
  EXPECT_FALSE(quota.Admit("a").ok());
  quota.Refund("a");
  EXPECT_EQ(quota.admitted("a"), 1);
  EXPECT_TRUE(quota.Admit("a").ok());
  EXPECT_EQ(quota.total_admitted(), 2);
  // Refunds never underflow, even for unknown analysts.
  quota.Refund("never-admitted");
  EXPECT_EQ(quota.total_admitted(), 2);
}

TEST_F(FrontendTest, GlobalQuotaAppliesAcrossAnalysts) {
  erm::NonPrivateOracle oracle;
  serve::PmwService service(dataset_.get(), &oracle, PracticalOptions(), 5);
  QuotaOptions quota_options;
  quota_options.global_queries = 4;
  QuotaManager quota(&service, quota_options);
  Dispatcher dispatcher(&service, &quota);

  int served = 0;
  int rejected = 0;
  for (int a = 0; a < 3; ++a) {
    // Two appends (GCC 12 Release -Wrestrict false positive on "a" + ...).
    std::string analyst = "a";
    analyst += std::to_string(a);
    AnalystSession session(&dispatcher, analyst);
    for (int j = 0; j < 2; ++j) {
      Result<convex::Vec> answer = session.Submit(pool_[0]).get().answer;
      if (answer.ok()) {
        ++served;
      } else {
        ++rejected;
        EXPECT_EQ(answer.status().code(), StatusCode::kResourceExhausted);
      }
    }
  }
  EXPECT_EQ(served, 4);
  EXPECT_EQ(rejected, 2);
  EXPECT_EQ(quota.total_admitted(), 4);
}

TEST_F(FrontendTest, PlanCacheHitsAcrossBatchesAndDropsStalePlans) {
  // Uniform data + non-private oracle: the uniform initial hypothesis is
  // already accurate, so no MW update fires and the epoch stays put —
  // the pure cross-batch reuse regime.
  data::Histogram uniform = data::Histogram::Uniform(universe_.size());
  data::Dataset dataset = data::RoundedDataset(universe_, uniform, 60000);
  erm::NonPrivateOracle oracle;
  serve::PmwService service(&dataset, &oracle, PracticalOptions(), 9);
  serve::PlanCache cache;
  service.set_plan_cache(&cache);

  std::vector<convex::CmQuery> batch(pool_.begin(), pool_.begin() + 4);
  service.AnswerBatch(batch);
  EXPECT_EQ(service.stats().cross_batch_cache_hits, 0);
  EXPECT_EQ(cache.size(), 4u);

  // Same queries, next batch: every distinct plan is served from the
  // cache — zero solver work in the prepare phase.
  service.AnswerBatch(batch);
  const serve::ServeStats stats = service.stats();
  EXPECT_EQ(stats.cross_batch_cache_hits, 4);
  EXPECT_EQ(stats.cross_batch_cache_lookups, 8);
  EXPECT_EQ(stats.CrossBatchHitRate(), 0.5);
  EXPECT_EQ(stats.plan_cache_stale_dropped, 0);
  EXPECT_EQ(cache.size(), 4u);
  const int version = service.mechanism().hypothesis_version();
  EXPECT_EQ(service.epochs().Current()->version, version);

  // A probe at the version a plan was prepared at hits, and the plan
  // carries that version.
  core::PreparedQuery plan;
  ASSERT_EQ(cache.Lookup(serve::QueryKey{batch[0].loss, batch[0].domain},
                         version, &plan),
            serve::PlanCache::Probe::kHit);
  EXPECT_EQ(plan.hypothesis_version, version);

  // Forced staleness: a probe at any other version drops the entry
  // lazily — the hypothesis never returns to an old version.
  EXPECT_EQ(cache.Lookup(serve::QueryKey{batch[0].loss, batch[0].domain},
                         version + 1, &plan),
            serve::PlanCache::Probe::kStale);
  EXPECT_EQ(cache.size(), 3u);
  // Dropped, so the next probe is a plain miss.
  EXPECT_EQ(cache.Lookup(serve::QueryKey{batch[0].loss, batch[0].domain},
                         version + 1, &plan),
            serve::PlanCache::Probe::kMiss);
  // Older versions are stale too: plans are served only at the exact
  // version they were prepared at.
  EXPECT_EQ(cache.Lookup(serve::QueryKey{batch[1].loss, batch[1].domain},
                         version - 1, &plan),
            serve::PlanCache::Probe::kStale);
  EXPECT_EQ(cache.size(), 2u);

  // The service's next batch re-prepares the dropped queries as plain
  // misses and re-caches them; the two surviving entries still hit.
  service.AnswerBatch(batch);
  EXPECT_EQ(service.stats().cross_batch_cache_hits, 6);
  EXPECT_EQ(service.stats().plan_cache_stale_dropped, 0);
  EXPECT_EQ(cache.size(), 4u);
}

TEST_F(FrontendTest, PlanCacheStaysCoherentThroughHardRounds) {
  // Non-uniform data with a randomized oracle: MW updates fire, each one
  // advances the hypothesis version, so re-probed plans from older
  // epochs must be dropped as stale. Correctness is already covered by
  // the transcript test (the cache was attached there); this checks the
  // bookkeeping end to end.
  constexpr uint64_t kSeed = 31337;
  erm::NoisyGradientOracle oracle;
  serve::PmwService service(dataset_.get(), &oracle, PracticalOptions(),
                            kSeed);
  serve::PlanCache cache;
  service.set_plan_cache(&cache);

  std::vector<convex::CmQuery> traffic;
  for (int j = 0; j < 60; ++j) {
    traffic.push_back(pool_[static_cast<size_t>(j) % pool_.size()]);
  }
  for (size_t start = 0; start < traffic.size(); start += 12) {
    std::vector<convex::CmQuery> batch(
        traffic.begin() + static_cast<long>(start),
        traffic.begin() + static_cast<long>(start + 12));
    service.AnswerBatch(batch);
  }

  EXPECT_GT(service.mechanism().update_count(), 0);
  // Repeats amortized across batches; hard rounds moved the version, so
  // re-probed old plans were dropped as stale.
  const serve::ServeStats stats = service.stats();
  EXPECT_GT(stats.cross_batch_cache_hits, 0);
  EXPECT_GT(stats.CrossBatchHitRate(), 0.0);
  EXPECT_GT(stats.plan_cache_stale_dropped, 0);
}

TEST(PlanCacheTest, FullCacheRefusesNewKeysButKeepsServingResidents) {
  constexpr size_t kMax = serve::PlanCache::kMaxEntries;
  std::vector<int> keys(kMax + 2);
  auto key = [&](size_t i) { return serve::QueryKey{&keys[i], &keys[i]}; };
  core::PreparedQuery plan;
  plan.hypothesis_version = 1;

  serve::PlanCache cache;
  for (size_t i = 0; i < kMax; ++i) cache.Insert(key(i), plan);
  ASSERT_EQ(cache.size(), kMax);

  // (a) A new key is refused at the cap and still misses.
  core::PreparedQuery out;
  cache.Insert(key(kMax), plan);
  EXPECT_EQ(cache.size(), kMax);
  EXPECT_EQ(cache.Lookup(key(kMax), 1, &out), serve::PlanCache::Probe::kMiss);

  // (b) Residents keep hitting, and refreshing one goes through at the
  // cap.
  EXPECT_EQ(cache.Lookup(key(0), 1, &out), serve::PlanCache::Probe::kHit);
  EXPECT_EQ(cache.Lookup(key(kMax - 1), 1, &out),
            serve::PlanCache::Probe::kHit);
  core::PreparedQuery next = plan;
  next.hypothesis_version = 2;
  cache.Insert(key(1), next);
  EXPECT_EQ(cache.Lookup(key(1), 2, &out), serve::PlanCache::Probe::kHit);
  EXPECT_EQ(cache.size(), kMax);

  // (c) A resident prepared at an older version is dropped on probe, and
  // the freed room admits a newcomer.
  EXPECT_EQ(cache.Lookup(key(2), 2, &out), serve::PlanCache::Probe::kStale);
  EXPECT_EQ(cache.size(), kMax - 1);
  cache.Insert(key(kMax + 1), next);
  EXPECT_EQ(cache.size(), kMax);
  EXPECT_EQ(cache.Lookup(key(kMax + 1), 2, &out),
            serve::PlanCache::Probe::kHit);
}

TEST(PlanCacheTest, StaleProbeLendsOnlyTheDataMin) {
  int query = 0;
  const serve::QueryKey key{&query, &query};
  core::PreparedQuery cached;
  cached.theta_hat = {0.25, -0.5};
  cached.query_value = 0.125;
  cached.data_min = 0.375;
  cached.hypothesis_version = 1;
  const auto expect_no_hypothesis_side = [](const core::PreparedQuery& p) {
    EXPECT_TRUE(p.theta_hat.empty());
    EXPECT_EQ(p.query_value, 0.0);
    EXPECT_EQ(p.hypothesis_version, -1);
  };

  // A miss has nothing to lend: the caller's plan stays default, so the
  // re-prepare solves min l_D itself.
  serve::PlanCache cache;
  core::PreparedQuery out;
  EXPECT_EQ(cache.Lookup(key, 1, &out), serve::PlanCache::Probe::kMiss);
  expect_no_hypothesis_side(out);
  EXPECT_TRUE(std::isnan(out.data_min));

  // A stale entry hands back its data_min and nothing of the hypothesis
  // side, then is dropped.
  cache.Insert(key, cached);
  EXPECT_EQ(cache.Lookup(key, 2, &out), serve::PlanCache::Probe::kStale);
  expect_no_hypothesis_side(out);
  EXPECT_EQ(out.data_min, cached.data_min);
  EXPECT_EQ(cache.size(), 0u);
}

TEST_F(FrontendTest, SubmitAfterShutdownResolvesWithTypedError) {
  erm::NonPrivateOracle oracle;
  serve::PmwService service(dataset_.get(), &oracle, PracticalOptions(), 3);
  Dispatcher dispatcher(&service, nullptr);
  dispatcher.Shutdown();

  Result<convex::Vec> result =
      dispatcher.Submit("late-analyst", pool_[0]).get().answer;
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(dispatcher.stats().shutdown_rejected, 1);
  // Shutdown is idempotent.
  dispatcher.Shutdown();
}

TEST_F(FrontendTest, ExpiredDeadlineResolvesTypedAtZeroPrivacyCost) {
  erm::NoisyGradientOracle oracle;
  serve::PmwService service(dataset_.get(), &oracle, PracticalOptions(), 21);
  QuotaOptions quota_options;
  quota_options.per_analyst_queries = 4;
  QuotaManager quota(&service, quota_options);
  Dispatcher dispatcher(&service, &quota);
  AnalystSession session(&dispatcher, "deadline-analyst");

  // Warm the mechanism so the ledger is non-trivial before the expiry.
  ASSERT_TRUE(session.Submit(pool_[0]).get().answer.ok());
  const int events_before = service.mechanism().ledger().event_count();
  const dp::PrivacyParams spent_before =
      service.mechanism().ledger().BasicTotal();
  const long long answered_before = service.mechanism().queries_answered();
  const long long admitted_before = quota.admitted("deadline-analyst");

  // A deadline already in the past when the dispatcher pops the request:
  // it expires in-queue with the typed taxonomy error.
  const auto already_expired =
      std::chrono::steady_clock::now() - std::chrono::milliseconds(1);
  Result<convex::Vec> late =
      session.Submit(pool_[1], nullptr, already_expired).get().answer;
  ASSERT_FALSE(late.ok());
  EXPECT_EQ(late.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(api::ClassifyStatus(late.status()),
            api::ErrorCode::kDeadlineExpired);

  // ...at zero privacy cost: the mechanism never saw the query (no
  // ledger event, no k-query slot) and the quota slot was refunded.
  EXPECT_EQ(service.mechanism().ledger().event_count(), events_before);
  EXPECT_EQ(service.mechanism().ledger().BasicTotal().epsilon,
            spent_before.epsilon);
  EXPECT_EQ(service.mechanism().ledger().BasicTotal().delta,
            spent_before.delta);
  EXPECT_EQ(service.mechanism().queries_answered(), answered_before);
  EXPECT_EQ(quota.admitted("deadline-analyst"), admitted_before);
  EXPECT_EQ(dispatcher.stats().deadline_expired, 1);

  // A roomy deadline serves normally (and still counts one expiry only).
  const auto roomy =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  EXPECT_TRUE(session.Submit(pool_[2], nullptr, roomy).get().answer.ok());
  dispatcher.Shutdown();
  EXPECT_EQ(dispatcher.stats().deadline_expired, 1);
}

// Regression pin for the refund audit in dispatcher.cc: the two
// quota_->Refund sites (Push-failed-at-shutdown, deadline sweep) are
// mutually exclusive per request, so each expiry hands back exactly ONE
// slot. The analyst starts warm (admitted > 0), so a double refund could
// not hide behind QuotaManager::Refund's saturation at zero — it would
// free slots the analyst never got back legitimately and the final
// kQuotaExceeded expectation below would not fire.
TEST_F(FrontendTest, DeadlineExpiryRefundsExactlyOneQuotaSlot) {
  erm::NoisyGradientOracle oracle;
  serve::PmwService service(dataset_.get(), &oracle, PracticalOptions(), 31);
  QuotaOptions quota_options;
  quota_options.per_analyst_queries = 4;
  QuotaManager quota(&service, quota_options);
  Dispatcher dispatcher(&service, &quota);
  AnalystSession session(&dispatcher, "refund-analyst");

  // Warm the quota ledger: two served queries leave admitted == 2.
  ASSERT_TRUE(session.Submit(pool_[0]).get().answer.ok());
  ASSERT_TRUE(session.Submit(pool_[1]).get().answer.ok());
  ASSERT_EQ(quota.admitted("refund-analyst"), 2);

  // Three sequential expiries. Each .get() forces the sweep (and its
  // refund) to complete before the next Submit admits, so admitted
  // oscillates 2 -> 3 -> 2 and never trips the quota of 4.
  for (int i = 0; i < 3; ++i) {
    const auto already_expired =
        std::chrono::steady_clock::now() - std::chrono::milliseconds(1);
    Result<convex::Vec> late =
        session.Submit(pool_[2 + i], nullptr, already_expired).get().answer;
    ASSERT_FALSE(late.ok());
    EXPECT_EQ(api::ClassifyStatus(late.status()),
              api::ErrorCode::kDeadlineExpired);
    EXPECT_EQ(quota.admitted("refund-analyst"), 2)
        << "expiry #" << i << " did not refund exactly one slot";
  }
  EXPECT_EQ(dispatcher.stats().deadline_expired, 3);
  EXPECT_EQ(quota.total_admitted(), 2);

  // Exactly two slots remain: two more serves fill the quota of 4, and
  // the fifth admission is the typed quota rejection. A double refund
  // anywhere above would have left extra slots and this would serve.
  EXPECT_TRUE(session.Submit(pool_[5]).get().answer.ok());
  EXPECT_TRUE(session.Submit(pool_[6]).get().answer.ok());
  Result<convex::Vec> over = session.Submit(pool_[7]).get().answer;
  ASSERT_FALSE(over.ok());
  EXPECT_EQ(api::ClassifyStatus(over.status()),
            api::ErrorCode::kQuotaExceeded);
  EXPECT_EQ(quota.admitted("refund-analyst"), 4);
}

TEST_F(FrontendTest, BackpressureOnTinyQueueStillServesEverything) {
  erm::NonPrivateOracle oracle;
  serve::ServeOptions serve_options;
  serve_options.num_threads = 2;
  serve::PmwService service(dataset_.get(), &oracle, PracticalOptions(), 11,
                            serve_options);
  serve::PlanCache cache;
  service.set_plan_cache(&cache);
  DispatcherOptions options;
  options.queue_capacity = 2;  // producers must block and retry
  options.max_batch = 4;
  options.max_wait = std::chrono::microseconds(200);
  Dispatcher dispatcher(&service, nullptr, options);

  constexpr int kThreads = 4;
  constexpr int kPerThread = 25;
  std::atomic<int> ok_count{0};
  std::vector<std::thread> analysts;
  for (int a = 0; a < kThreads; ++a) {
    analysts.emplace_back([this, a, &dispatcher, &ok_count] {
      AnalystSession session(&dispatcher, "burst-" + std::to_string(a));
      for (int j = 0; j < kPerThread; ++j) {
        Result<convex::Vec> answer =
            session
                .Submit(pool_[static_cast<size_t>(a + j) % pool_.size()])
                .get()
                .answer;
        if (answer.ok()) ok_count.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (std::thread& t : analysts) t.join();
  dispatcher.Shutdown();

  EXPECT_EQ(ok_count.load(), kThreads * kPerThread);
  EXPECT_EQ(service.stats().queries, kThreads * kPerThread);
}

}  // namespace
}  // namespace frontend
}  // namespace pmw
