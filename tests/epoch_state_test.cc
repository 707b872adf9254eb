// Edge-case coverage for serve/epoch_state: snapshot reuse at an
// unchanged version, degenerate (empty-support) snapshots flowing through
// the prepare path, epoch monotonicity across mid-batch updates, one
// counted epoch per snapshot built (not per batch), published snapshots
// equal to fresh ones at their version, and the RCU property that a held
// epoch survives — immutable — while the writer publishes past it.

#include "serve/epoch_state.h"

#include <cmath>
#include <memory>
#include <utility>
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
#include "serve/shard_executor.h"

namespace pmw {
namespace serve {
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

class EpochStateTest : public ::testing::Test {
 protected:
  EpochStateTest() : universe_(3), family_(3) {
    data::Histogram dist = data::LogisticModelDistribution(
        universe_, {1.0, -0.8, 0.5}, {0.7, 0.4, 0.5}, 0.25);
    dataset_ = std::make_unique<data::Dataset>(
        data::RoundedDataset(universe_, dist, 60000));
    Rng rng(77);
    queries_ = family_.Generate(6, &rng);
  }

  data::LabeledHypercubeUniverse universe_;
  losses::LipschitzFamily family_;
  std::unique_ptr<data::Dataset> dataset_;
  std::vector<convex::CmQuery> queries_;
};

TEST_F(EpochStateTest, CurrentIsNullBeforeFirstPublish) {
  EpochState epochs;
  EXPECT_EQ(epochs.Current(), nullptr);
}

TEST_F(EpochStateTest, RepublishWithoutUpdateReusesTheSnapshot) {
  erm::NonPrivateOracle oracle;
  core::PmwCm cm(dataset_.get(), &oracle, PracticalOptions(), 1);
  EpochState epochs;

  std::shared_ptr<const core::HypothesisSnapshot> first = epochs.Publish(cm);
  std::shared_ptr<const core::HypothesisSnapshot> second =
      epochs.Publish(cm);
  // A batch republishes at its start without the hypothesis moving. The
  // version is unchanged, so the previous snapshot buffer is reused
  // outright and the common soft-round path skips an O(|X|) compaction
  // pass.
  EXPECT_EQ(first->version, cm.hypothesis_version());
  EXPECT_EQ(first, second);
  EXPECT_EQ(epochs.Current(), second);
}

TEST_F(EpochStateTest, EmptySupportSnapshotFlowsThroughPrepare) {
  // An aggressively compacted hypothesis could in principle present an
  // empty support (no strictly-positive entries survive). The prepare
  // path must stay defined on that boundary: plans come back finite,
  // version-tagged, and inside the domain — never a crash or NaN.
  erm::NonPrivateOracle oracle;
  core::PmwCm cm(dataset_.get(), &oracle, PracticalOptions(), 2);

  core::HypothesisSnapshot degenerate;
  degenerate.support = {};  // empty: every mass entry compacted away
  degenerate.version = cm.hypothesis_version();

  ShardExecutor executor(nullptr, &cm);
  ShardExecutor::PrepareResult prepared =
      executor.PrepareRange(queries_, 0, queries_.size(), degenerate);
  ASSERT_EQ(prepared.plan_of.size(), queries_.size());
  for (size_t i = 0; i < queries_.size(); ++i) {
    const core::PreparedQuery& plan =
        prepared.plans[prepared.plan_of[i]];
    EXPECT_EQ(plan.hypothesis_version, cm.hypothesis_version());
    ASSERT_FALSE(plan.theta_hat.empty());
    for (double coordinate : plan.theta_hat) {
      EXPECT_TRUE(std::isfinite(coordinate));
    }
    EXPECT_TRUE(std::isfinite(plan.query_value));
    EXPECT_GE(plan.query_value, 0.0);
  }
}

TEST_F(EpochStateTest, EpochsAdvanceMonotonicallyAcrossMidBatchUpdates) {
  // Randomized oracle + non-uniform data: hard rounds fire mid-batch,
  // each one publishing a fresh epoch. Versions must be non-decreasing,
  // and the final epoch must match the live mechanism.
  erm::NoisyGradientOracle oracle;
  ServeOptions serve_options;
  serve_options.num_threads = 2;
  PmwService service(dataset_.get(), &oracle, PracticalOptions(), 42,
                     serve_options);

  std::vector<convex::CmQuery> workload;
  for (int j = 0; j < 48; ++j) {
    workload.push_back(queries_[static_cast<size_t>(j) % queries_.size()]);
  }

  int last_version = -1;
  for (size_t start = 0; start < workload.size(); start += 12) {
    std::vector<convex::CmQuery> batch(
        workload.begin() + static_cast<long>(start),
        workload.begin() + static_cast<long>(start + 12));
    service.AnswerBatch(batch);
    std::shared_ptr<const core::HypothesisSnapshot> current =
        service.epochs().Current();
    ASSERT_NE(current, nullptr);
    EXPECT_GE(current->version, last_version);
    last_version = current->version;
  }

  EXPECT_GT(service.mechanism().update_count(), 0);
  EXPECT_EQ(last_version, service.mechanism().hypothesis_version());
  // One snapshot is built per hypothesis version a publish sees: the
  // first, then one after every update except an update on the
  // workload's very last query (no publish follows it). A batch start
  // at an unchanged version republishes and counts nothing.
  const obs::Registry& registry = service.registry();
  const long long epochs = registry.CounterValue("pmw_serve_epochs_total");
  const long long updates = registry.CounterValue("pmw_serve_updates_total");
  EXPECT_EQ(registry.CounterValue("pmw_serve_batches_total"), 4);
  EXPECT_GE(epochs, updates);
  EXPECT_LE(epochs, updates + 1);
}

TEST_F(EpochStateTest, BatchesAtOneHypothesisVersionCountOneEpoch) {
  // Uniform data under the uniform initial hypothesis: no query is hard,
  // so the version never moves and the second batch's start republishes
  // the first batch's snapshot, which builds nothing and counts nothing.
  data::Dataset uniform = data::RoundedDataset(
      universe_, data::Histogram::Uniform(universe_.size()), 60000);
  erm::NonPrivateOracle oracle;
  PmwService service(&uniform, &oracle, PracticalOptions(), 42);
  service.AnswerBatch(queries_);
  std::shared_ptr<const core::HypothesisSnapshot> first =
      service.epochs().Current();
  service.AnswerBatch(queries_);
  ASSERT_EQ(service.mechanism().update_count(), 0);

  EXPECT_EQ(service.epochs().Current(), first);
  const obs::Registry& registry = service.registry();
  EXPECT_EQ(registry.CounterValue("pmw_serve_batches_total"), 2);
  EXPECT_EQ(registry.CounterValue("pmw_serve_epochs_total"), 1);
}

TEST_F(EpochStateTest, PublishedSnapshotsEqualAFreshSnapshotAtTheirVersion) {
  // Snapshot reuse is keyed on the version alone, so a published
  // snapshot — reused or fresh — must hold exactly the bytes a fresh
  // compaction of the live hypothesis would at that version, at every
  // shard count and backend.
  for (const int shards : {1, 4}) {
    for (const core::HypothesisBackend backend :
         {core::HypothesisBackend::kDense,
          core::HypothesisBackend::kSparse}) {
      erm::NoisyGradientOracle oracle;
      ServeOptions serve_options;
      serve_options.num_threads = 2;
      serve_options.num_shards = shards;
      serve_options.hypothesis_backend = backend;
      PmwService service(dataset_.get(), &oracle, PracticalOptions(), 21,
                         serve_options);

      int compared = 0;
      for (int round = 0; round < 8; ++round) {
        service.AnswerBatch(queries_);
        const std::shared_ptr<const core::HypothesisSnapshot> published =
            service.epochs().Current();
        ASSERT_NE(published, nullptr);
        // A hard round on a batch's last query moves the version without
        // a republish; compare only epochs at the live version.
        if (published->version != service.mechanism().hypothesis_version()) {
          continue;
        }
        const core::HypothesisSnapshot fresh =
            service.mechanism().SnapshotHypothesis();
        ASSERT_EQ(published->support.size(), fresh.support.size());
        for (size_t i = 0; i < fresh.support.size(); ++i) {
          EXPECT_EQ(published->support[i].first, fresh.support[i].first);
          EXPECT_EQ(published->support[i].second, fresh.support[i].second);
        }
        ++compared;
      }
      EXPECT_GT(service.mechanism().update_count(), 0);
      EXPECT_GT(compared, 0);
    }
  }
}

TEST_F(EpochStateTest, HeldEpochSurvivesLaterPublishesUnchanged) {
  erm::NoisyGradientOracle oracle;
  PmwService service(dataset_.get(), &oracle, PracticalOptions(), 7);

  service.AnswerBatch({&queries_[0], 1});
  std::shared_ptr<const core::HypothesisSnapshot> held =
      service.epochs().Current();
  ASSERT_NE(held, nullptr);
  const int held_version = held->version;
  const data::HistogramSupport held_support = held->support;

  // Drive traffic that moves the hypothesis; the held epoch is an
  // immutable snapshot — the classic RCU grace-period guarantee.
  for (int round = 0; round < 4; ++round) {
    service.AnswerBatch(queries_);
  }
  ASSERT_GT(service.mechanism().hypothesis_version(), held_version);
  std::shared_ptr<const core::HypothesisSnapshot> current =
      service.epochs().Current();
  ASSERT_NE(current, nullptr);
  EXPECT_NE(current, held);
  EXPECT_EQ(held->version, held_version);
  EXPECT_EQ(held->support, held_support);
}

}  // namespace
}  // namespace serve
}  // namespace pmw
