// Unit tests for the QueryAnswerer interface and the PmwAnswerer adapter
// (core/answerer.h, core/pmw_answerer.h): the adapter must forward queries
// to the wrapped PmwCm unchanged and surface its error statuses.

#include <memory>

#include "common/random.h"
#include "core/answerer.h"
#include "core/pmw_answerer.h"
#include "core/pmw_cm.h"
#include "data/binary_universe.h"
#include "data/generators.h"
#include "erm/nonprivate_oracle.h"
#include "gtest/gtest.h"
#include "losses/loss_family.h"

namespace pmw {
namespace core {
namespace {

class AnswererTest : public ::testing::Test {
 protected:
  AnswererTest()
      : universe_(3),
        dist_(data::LogisticModelDistribution(universe_, {1.0, -0.8, 0.5},
                                              {0.7, 0.4, 0.5}, 0.25)),
        dataset_(data::RoundedDataset(universe_, dist_, 150000)) {}

  PmwOptions Options() const {
    PmwOptions options;
    options.alpha = 0.15;
    options.beta = 0.05;
    options.privacy = {2.0, 1e-6};
    options.max_queries = 64;
    options.override_updates = 8;
    return options;
  }

  data::LabeledHypercubeUniverse universe_;
  data::Histogram dist_;
  data::Dataset dataset_;
};

TEST_F(AnswererTest, ForwardsAnswersToWrappedMechanism) {
  losses::LipschitzFamily family(3);
  Rng rng(17);
  std::vector<convex::CmQuery> queries = family.Generate(24, &rng);

  constexpr uint64_t kSeed = 2024;
  erm::NonPrivateOracle oracle_direct;
  PmwCm direct(&dataset_, &oracle_direct, Options(), kSeed);
  erm::NonPrivateOracle oracle_adapted;
  PmwCm adapted(&dataset_, &oracle_adapted, Options(), kSeed);
  PmwAnswerer answerer(&adapted);

  // The adapter is usable through the interface type.
  QueryAnswerer* interface = &answerer;
  EXPECT_EQ(interface->name(), "pmw-cm");
  EXPECT_EQ(answerer.mechanism(), &adapted);

  for (const convex::CmQuery& query : queries) {
    Result<PmwAnswer> want = direct.AnswerQuery(query);
    Result<convex::Vec> got = interface->Answer(query);
    ASSERT_EQ(got.ok(), want.ok());
    if (!want.ok()) continue;
    ASSERT_EQ(got.value().size(), want.value().theta.size());
    for (size_t i = 0; i < got.value().size(); ++i) {
      EXPECT_DOUBLE_EQ(got.value()[i], want.value().theta[i]);
    }
  }
  EXPECT_EQ(adapted.queries_answered(), direct.queries_answered());
}

TEST_F(AnswererTest, SurfacesMechanismErrors) {
  losses::LipschitzFamily family(3);
  Rng rng(29);

  PmwOptions options = Options();
  options.max_queries = 2;
  erm::NonPrivateOracle oracle;
  PmwCm mechanism(&dataset_, &oracle, options, 11);
  PmwAnswerer answerer(&mechanism);

  EXPECT_TRUE(answerer.Answer(family.Next(&rng)).ok());
  EXPECT_TRUE(answerer.Answer(family.Next(&rng)).ok());
  Result<convex::Vec> exhausted = answerer.Answer(family.Next(&rng));
  ASSERT_FALSE(exhausted.ok());
  EXPECT_EQ(exhausted.status().code(), StatusCode::kBudgetExhausted);
}

}  // namespace
}  // namespace core
}  // namespace pmw
