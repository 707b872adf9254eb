// The benchmark's own tests: seeded request streams, and an output check
// that cannot pass vacuously.
//
//   python3 perfbench/run.py --test

#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "check.h"
#include "stack.h"
#include "workload/runner.h"
#include "workloads.h"

namespace pmw {
namespace perfbench {
namespace {

std::vector<std::string> Names(const Workload& w) {
  api::QueryCatalog catalog;
  PopulateCatalog(w.spec, &catalog);
  return catalog.names();
}

workload::Trace Stream(const Workload& w, uint64_t seed) {
  return MakeTrace(w, seed, Names(w), w.nominal_qps, 1.0);
}

TEST(RequestStreamTest, SameSeedSameStreamOtherSeedOtherStream) {
  for (const Workload& w : Workloads()) {
    SCOPED_TRACE(w.name);
    const workload::Trace a = Stream(w, 11);
    ASSERT_FALSE(a.events.empty());
    EXPECT_EQ(a, Stream(w, 11));
    EXPECT_NE(a.events, Stream(w, 12).events);
  }
}

TEST(RequestStreamTest, NoThreadCountIsLeftToTheMachine) {
  for (const Workload& w : Workloads()) {
    SCOPED_TRACE(w.name);
    EXPECT_GT(w.spec.serve_threads, 0);
    EXPECT_GE(w.spec.analysts, 1);
    EXPECT_LE(w.spec.analysts, 4);
  }
}

/// A real sequential transcript of a small learning workload (hard rounds
/// fire), and the observations a perfect server would return for it.
class CheckTest : public ::testing::Test {
 protected:
  void SetUp() override {
    workload_ = *FindWorkload("learning_rounds");
    workload_.spec.dim = 4;
    workload_.spec.records = 20000;
    workload_.spec.catalog_queries = 8;
    workload_.spec.queries_per_analyst = 24;
    universe_ = std::make_unique<data::LabeledHypercubeUniverse>(
        workload_.spec.dim);
    dataset_ = MakeDataset(workload_.spec, *universe_);
    PopulateCatalog(workload_.spec, &catalog_);
    trace_ = MakeTrace(workload_, kSeed, catalog_.names());
    workload::RunOptions run;
    options_ = workload::MakeServerOptions(workload_.spec, run,
                                           catalog_.scale());
    std::string error;
    ASSERT_TRUE(Replay(*dataset_, catalog_, options_, ServerSeed(kSeed),
                       AllNames(trace_), nullptr, &reference_, &error))
        << error;
    for (size_t i = 0; i < trace_.events.size(); ++i) {
      Observation obs;
      obs.done = true;
      obs.reply.answer = reference_.answers[i];
      obs.reply.meta.hard_round = reference_.hard_rounds[i];
      perfect_.push_back(obs);
    }
  }

  static constexpr uint64_t kSeed = 5;
  Workload workload_;
  std::unique_ptr<data::LabeledHypercubeUniverse> universe_;
  std::unique_ptr<data::Dataset> dataset_;
  api::QueryCatalog catalog_;
  api::ServerOptions options_;
  workload::Trace trace_;
  Reference reference_;
  std::vector<Observation> perfect_;
};

TEST_F(CheckTest, PerfectTranscriptPasses) {
  int hard = 0;
  for (bool h : reference_.hard_rounds) hard += h ? 1 : 0;
  ASSERT_GT(hard, 0) << "the ordered check must see hard rounds";
  const Verdict v = CheckOrdered(reference_, trace_, perfect_,
                                 reference_.epsilon, reference_.delta);
  EXPECT_TRUE(v.ok) << v.problem;
  EXPECT_EQ(v.failed, 0);
  EXPECT_EQ(v.answers, static_cast<long long>(trace_.events.size()));
}

TEST_F(CheckTest, OneFlippedAnswerBitFails) {
  std::vector<Observation> observed = perfect_;
  uint64_t bits;
  std::memcpy(&bits, &observed[3].reply.answer[0], sizeof(bits));
  bits ^= 1;  // the last mantissa bit
  std::memcpy(&observed[3].reply.answer[0], &bits, sizeof(bits));
  const Verdict v = CheckOrdered(reference_, trace_, observed,
                                 reference_.epsilon, reference_.delta);
  EXPECT_FALSE(v.ok);
  EXPECT_EQ(v.failed, 1);
}

TEST_F(CheckTest, DroppedReplyFails) {
  std::vector<Observation> observed = perfect_;
  observed[5].done = false;
  observed[5].reply = api::AnswerEnvelope{};
  const Verdict v = CheckOrdered(reference_, trace_, observed,
                                 reference_.epsilon, reference_.delta);
  EXPECT_FALSE(v.ok);
  EXPECT_EQ(v.failed, 1);
}

TEST_F(CheckTest, ErrorReplyFails) {
  std::vector<Observation> observed = perfect_;
  observed[2].reply.error = api::ErrorCode::kTransportError;
  EXPECT_FALSE(CheckOrdered(reference_, trace_, observed, reference_.epsilon,
                            reference_.delta)
                   .ok);
}

TEST_F(CheckTest, LedgerMismatchFails) {
  EXPECT_FALSE(CheckOrdered(reference_, trace_, perfect_,
                            reference_.epsilon * 2.0, reference_.delta)
                   .ok);
}

TEST_F(CheckTest, ZeroAnswersFail) {
  const workload::Trace empty;
  const Reference none;
  const Verdict ordered = CheckOrdered(none, empty, {}, 0.0, 0.0);
  EXPECT_FALSE(ordered.ok);
  const Verdict by_name = CheckByName(none, empty, {});
  EXPECT_FALSE(by_name.ok);
  // Every request errored: attempted, but nothing to compare.
  std::vector<Observation> errors = perfect_;
  for (Observation& obs : errors) obs.reply.error = api::ErrorCode::kHalted;
  EXPECT_FALSE(CheckOrdered(reference_, trace_, errors, reference_.epsilon,
                            reference_.delta)
                   .ok);
}

TEST_F(CheckTest, ByNameCheckFailsOnFlippedBitDroppedReplyAndHardRound) {
  // By name: answer i must equal the replay's answer for its name, and no
  // hard round may fire anywhere.
  Reference soft;
  std::vector<Observation> observed;
  for (size_t i = 0; i < trace_.events.size(); ++i) {
    const std::string& name = trace_.events[i].query_name;
    soft.by_name.emplace(name, std::vector<double>{1.0 + i, -2.0});
    Observation obs;
    obs.done = true;
    obs.reply.answer = soft.by_name.at(name);
    observed.push_back(obs);
  }
  ASSERT_TRUE(CheckByName(soft, trace_, observed).ok);

  std::vector<Observation> flipped = observed;
  flipped[1].reply.answer[1] = std::nextafter(flipped[1].reply.answer[1], 0.0);
  EXPECT_FALSE(CheckByName(soft, trace_, flipped).ok);

  std::vector<Observation> dropped = observed;
  dropped[0].done = false;
  EXPECT_FALSE(CheckByName(soft, trace_, dropped).ok);

  std::vector<Observation> hard = observed;
  hard[4].reply.meta.hard_round = true;
  EXPECT_FALSE(CheckByName(soft, trace_, hard).ok);

  Reference replay_hard = soft;
  replay_hard.hard_rounds = {false, true};
  EXPECT_FALSE(CheckByName(replay_hard, trace_, observed).ok);
}

}  // namespace
}  // namespace perfbench
}  // namespace pmw
