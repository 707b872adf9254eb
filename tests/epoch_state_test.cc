// Edge-case coverage for serve/epoch_state: degenerate (empty-support)
// snapshots flowing through the prepare path, epoch monotonicity across
// mid-batch updates, and the RCU property that a held epoch survives —
// immutable — while the writer publishes past it.

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
  EXPECT_EQ(epochs.epochs_published(), 0);
}

TEST_F(EpochStateTest, RepublishWithoutUpdateAdvancesSequenceNotVersion) {
  erm::NonPrivateOracle oracle;
  core::PmwCm cm(dataset_.get(), &oracle, PracticalOptions(), 1);
  EpochState epochs;

  std::shared_ptr<const Epoch> first = epochs.Publish(cm);
  std::shared_ptr<const Epoch> second = epochs.Publish(cm);
  // A batch republishes at its start without the hypothesis moving: the
  // sequence orders publishes, the version keys plan freshness.
  EXPECT_EQ(first->snapshot->version, second->snapshot->version);
  // The republish reuses the previous snapshot buffer outright (same
  // version + shard set => identical compaction), so the common
  // soft-round path pays O(shards), not an O(|X|) compaction pass.
  EXPECT_EQ(first->snapshot, second->snapshot);
  EXPECT_LT(first->sequence, second->sequence);
  EXPECT_EQ(epochs.epochs_published(), 2);
  EXPECT_EQ(epochs.Current(), second);
}

TEST_F(EpochStateTest, EmptySupportSnapshotFlowsThroughPrepare) {
  // An aggressively compacted hypothesis could in principle present an
  // empty support (no strictly-positive entries survive). The prepare
  // path must stay defined on that boundary: plans come back finite,
  // version-tagged, and inside the domain — never a crash or NaN.
  erm::NonPrivateOracle oracle;
  core::PmwCm cm(dataset_.get(), &oracle, PracticalOptions(), 2);

  Epoch degenerate;
  auto snapshot = std::make_shared<core::HypothesisSnapshot>();
  snapshot->support = {};  // empty: every mass entry compacted away
  snapshot->version = cm.hypothesis_version();
  degenerate.snapshot = std::move(snapshot);
  degenerate.sequence = 0;

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
  // each one publishing a fresh epoch. Versions and sequences must be
  // non-decreasing / strictly increasing respectively, and the final
  // epoch must match the live mechanism.
  erm::NoisyGradientOracle oracle;
  ServeOptions serve_options;
  serve_options.num_threads = 2;
  PmwService service(dataset_.get(), &oracle, PracticalOptions(), 42,
                     serve_options);

  std::vector<convex::CmQuery> workload;
  for (int j = 0; j < 48; ++j) {
    workload.push_back(queries_[static_cast<size_t>(j) % queries_.size()]);
  }

  long long last_sequence = -1;
  int last_version = -1;
  for (size_t start = 0; start < workload.size(); start += 12) {
    std::vector<convex::CmQuery> batch(
        workload.begin() + static_cast<long>(start),
        workload.begin() + static_cast<long>(start + 12));
    service.AnswerBatch(batch);
    std::shared_ptr<const Epoch> current = service.epochs().Current();
    ASSERT_NE(current, nullptr);
    EXPECT_GT(current->sequence, last_sequence);
    EXPECT_GE(current->snapshot->version, last_version);
    last_sequence = current->sequence;
    last_version = current->snapshot->version;
  }

  EXPECT_GT(service.mechanism().update_count(), 0);
  EXPECT_EQ(last_version, service.mechanism().hypothesis_version());
  // One publish per batch start plus one per mid-batch update (an update
  // on a batch's last query has no suffix to re-prepare), so publishes
  // dominate both counters.
  const ServeStats stats = service.stats();
  EXPECT_GE(service.epochs().epochs_published(), stats.batches);
  EXPECT_GE(service.epochs().epochs_published(), stats.updates);
  EXPECT_EQ(stats.epochs, service.epochs().epochs_published());
}

TEST_F(EpochStateTest, PerShardSnapshotsTileTheSupportAndStayMonotonic) {
  // Sharded serving: every published epoch carries one zero-copy slice
  // view per domain shard. Across mid-batch updates the slices must (a)
  // always tile snapshot.support exactly — no entry dropped, duplicated,
  // or out of place — (b) carry a stable shard fingerprint, and (c)
  // advance monotonically with the epoch (version non-decreasing,
  // per-shard [lo, hi) ranges fixed for the service's lifetime).
  erm::NoisyGradientOracle oracle;
  ServeOptions serve_options;
  serve_options.num_threads = 2;
  serve_options.num_shards = 4;
  PmwService service(dataset_.get(), &oracle, PracticalOptions(), 21,
                     serve_options);
  ASSERT_EQ(service.num_shards(), 4);

  std::vector<convex::CmQuery> workload;
  for (int j = 0; j < 48; ++j) {
    workload.push_back(queries_[static_cast<size_t>(j) % queries_.size()]);
  }

  const uint64_t fingerprint = service.mechanism().shard_fingerprint();
  std::vector<std::pair<int, int>> ranges;
  long long last_sequence = -1;
  int last_version = -1;
  for (size_t start = 0; start < workload.size(); start += 12) {
    std::vector<convex::CmQuery> batch(
        workload.begin() + static_cast<long>(start),
        workload.begin() + static_cast<long>(start + 12));
    service.AnswerBatch(batch);
    std::shared_ptr<const Epoch> epoch = service.epochs().Current();
    ASSERT_NE(epoch, nullptr);
    EXPECT_GT(epoch->sequence, last_sequence);
    EXPECT_GE(epoch->snapshot->version, last_version);
    last_sequence = epoch->sequence;
    last_version = epoch->snapshot->version;

    EXPECT_EQ(epoch->shard_fingerprint, fingerprint);
    ASSERT_EQ(epoch->shards.size(), 4u);
    // The shard ranges are the partition — fixed across epochs.
    if (ranges.empty()) {
      for (const Epoch::ShardSlice& slice : epoch->shards) {
        ranges.emplace_back(slice.lo, slice.hi);
      }
      EXPECT_EQ(ranges.front().first, 0);
      EXPECT_EQ(ranges.back().second, universe_.size());
    }
    size_t position = 0;
    for (size_t s = 0; s < epoch->shards.size(); ++s) {
      const Epoch::ShardSlice& slice = epoch->shards[s];
      EXPECT_EQ(slice.lo, ranges[s].first);
      EXPECT_EQ(slice.hi, ranges[s].second);
      for (const auto& entry : slice.support) {
        // Tiling: slice entries are exactly the support's, in order,
        // and every index lies inside the slice's own range.
        ASSERT_LT(position, epoch->snapshot->support.size());
        EXPECT_EQ(entry.first, epoch->snapshot->support[position].first);
        EXPECT_EQ(entry.second, epoch->snapshot->support[position].second);
        EXPECT_GE(entry.first, slice.lo);
        EXPECT_LT(entry.first, slice.hi);
        ++position;
      }
    }
    EXPECT_EQ(position, epoch->snapshot->support.size());
  }
  EXPECT_GT(service.mechanism().update_count(), 0);
}

TEST_F(EpochStateTest, HeldEpochSurvivesLaterPublishesUnchanged) {
  erm::NoisyGradientOracle oracle;
  PmwService service(dataset_.get(), &oracle, PracticalOptions(), 7);

  service.AnswerBatch({&queries_[0], 1});
  std::shared_ptr<const Epoch> held = service.epochs().Current();
  ASSERT_NE(held, nullptr);
  const long long held_sequence = held->sequence;
  const int held_version = held->snapshot->version;
  const size_t held_support = held->snapshot->support.size();

  // Drive more traffic (likely including updates); the held epoch is an
  // immutable snapshot — the classic RCU grace-period guarantee.
  for (int round = 0; round < 4; ++round) {
    service.AnswerBatch(queries_);
  }
  std::shared_ptr<const Epoch> current = service.epochs().Current();
  ASSERT_NE(current, nullptr);
  EXPECT_GT(current->sequence, held_sequence);
  EXPECT_EQ(held->sequence, held_sequence);
  EXPECT_EQ(held->snapshot->version, held_version);
  EXPECT_EQ(held->snapshot->support.size(), held_support);
}

}  // namespace
}  // namespace serve
}  // namespace pmw
