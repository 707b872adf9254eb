// Quickstart: answer many convex-minimization queries on a sensitive
// dataset with one (eps, delta) budget — through the api front door,
// which is the stack's one public serving surface.
//
//   1. enumerate a finite data universe X (features + label) and
//      synthesize the sensitive dataset D in X^n,
//   2. build a QueryCatalog of named CM queries (the server owns the
//      losses; clients refer to queries by name),
//   3. stand up an api::ServerEndpoint — it runs the paper's Figure 3
//      mechanism behind an admission-controlled async dispatcher,
//   4. Call() named queries through an api::Client; every reply carries
//      the private minimizer plus serving metadata (hard/soft round,
//      epoch, remaining hard-round budget, privacy spent).
//
// Build & run:  ./build/quickstart

#include <cstdio>

#include "api/pmw_api.h"
#include "data/binary_universe.h"
#include "data/generators.h"

int main() {
  using namespace pmw;

  // A universe of 5 binary attributes plus a binary label: |X| = 64.
  data::LabeledHypercubeUniverse universe(5);

  // A synthetic sensitive dataset: 100k records from a logistic model.
  data::Histogram truth = data::LogisticModelDistribution(
      universe, /*theta_star=*/{1.0, -0.6, 0.4, 0.0, 0.8},
      /*coordinate_biases=*/{0.5, 0.6, 0.4, 0.5, 0.5}, /*temperature=*/0.3);
  data::Dataset dataset = data::RoundedDataset(universe, truth, 100000);

  // The catalog: 12 named Lipschitz losses (logistic, hinge, squared,
  // absolute — randomly recoded). The catalog owns every loss.
  api::QueryCatalog catalog;
  api::WorkloadSpec workload;
  workload.family = api::WorkloadSpec::Family::kLipschitz;
  workload.dim = 5;
  auto names = catalog.Populate(workload, 12, /*seed=*/2, "query/");

  // The server: one privacy budget covers ALL queries, however many
  // analysts ask them.
  api::ServerOptions options;
  options.mechanism.alpha = 0.15;           // target excess empirical risk
  options.mechanism.privacy = {1.0, 1e-6};  // total (eps, delta)
  options.mechanism.scale = catalog.scale();
  options.mechanism.max_queries = 1000;
  options.mechanism.override_updates = 16;  // practical T (HLM12 regime)
  api::ServerEndpoint server(&dataset, &catalog, options, /*seed=*/1);

  // The client: in-process zero-copy transport, one analyst identity.
  api::InProcessTransport transport(&server);
  api::Client client(&transport, "quickstart-analyst");

  std::printf("query       round  epoch  T-left  eps-spent\n");
  for (const auto& name : names) {
    api::AnswerEnvelope reply = client.Call(name);
    if (!reply.ok()) {
      std::printf("%s failed: [%s] %s\n", name.c_str(),
                  api::ErrorCodeName(reply.error), reply.message.c_str());
      return 1;
    }
    std::printf("%-10s  %-5s  %5llu  %6lld  %9.4f\n", name.c_str(),
                reply.meta.hard_round ? "hard" : "soft",
                static_cast<unsigned long long>(reply.meta.epoch),
                reply.meta.hard_rounds_remaining, reply.meta.epsilon_spent);
  }
  // The budget view rides the stats RPC (zero privacy cost); every
  // serving counter is in Client::Metrics() under its own metric name.
  const api::AnswerEnvelope stats = client.Stats();
  std::printf("\nbudget: %lld hard rounds left, eps=%.4f delta=%.2e spent, "
              "epoch %llu\n",
              stats.meta.hard_rounds_remaining, stats.meta.epsilon_spent,
              stats.meta.delta_spent,
              static_cast<unsigned long long>(stats.meta.epoch));
  return 0;
}
