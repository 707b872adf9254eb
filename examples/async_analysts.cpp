// Async serving: many analysts, one private dataset, one front door.
//
// Four analyst threads call the api concurrently: each Call travels the
// in-process transport into the ServerEndpoint, where a QuotaManager
// admits or rejects at the door (typed kQuotaExceeded, zero privacy
// cost — the ledger never sees rejected queries), a bounded MPSC queue
// fixes the arrival order, and a dispatcher thread hands the
// single-writer serving engine whatever queued while it served the last
// batch (group commit: no linger, so a lone request is served at once).
// An epoch-keyed plan cache reuses per-query solver work across batches
// until a hard round moves the hypothesis.
//
// One analyst is latency-sensitive and stamps a deadline on every call:
// requests that would wait too long resolve kDeadlineExpired — also at
// zero privacy cost.
//
// Build & run:  ./build/async_analysts

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "api/pmw_api.h"
#include "data/binary_universe.h"
#include "data/generators.h"

int main() {
  using namespace pmw;

  // Universe, sensitive dataset: as in the quickstart.
  data::LabeledHypercubeUniverse universe(5);
  data::Histogram truth = data::LogisticModelDistribution(
      universe, /*theta_star=*/{1.0, -0.6, 0.4, 0.0, 0.8},
      /*coordinate_biases=*/{0.5, 0.6, 0.4, 0.5, 0.5}, /*temperature=*/0.3);
  data::Dataset dataset = data::RoundedDataset(universe, truth, 100000);

  // A 16-query catalog every analyst shares.
  api::QueryCatalog catalog;
  api::WorkloadSpec workload;
  workload.family = api::WorkloadSpec::Family::kLipschitz;
  workload.dim = 5;
  auto names = catalog.Populate(workload, 16, /*seed=*/2, "pool/");

  // Front door: 40-query per-analyst quota, 2 prepare workers, and a
  // dispatcher that batches up to 32 requests by group commit: each batch
  // is what queued while the previous one was served.
  api::ServerOptions options;
  options.mechanism.alpha = 0.15;
  options.mechanism.privacy = {1.0, 1e-6};
  options.mechanism.scale = catalog.scale();
  options.mechanism.max_queries = 100000;
  options.mechanism.override_updates = 16;
  options.serve.num_threads = 2;
  options.quota.per_analyst_queries = 40;
  options.dispatcher.max_batch = 32;
  api::ServerEndpoint server(&dataset, &catalog, options, /*seed=*/1);
  api::InProcessTransport transport(&server);

  // Traffic: 4 analysts, each cycling its slice of the catalog. The
  // "greedy" analyst submits 64 — everything past its 40-query quota
  // comes back as a typed kQuotaExceeded, costing no privacy. Analyst 3
  // is latency-sensitive: a 50ms deadline on every call.
  std::vector<std::thread> analysts;
  std::vector<int> answered(4, 0), rejected(4, 0), expired(4, 0);
  for (int a = 0; a < 4; ++a) {
    analysts.emplace_back([a, &transport, &names, &answered, &rejected,
                           &expired] {
      const int submissions = a == 0 ? 64 : 40;  // analyst 0 is greedy
      api::Client client(
          &transport, a == 0 ? "greedy" : "analyst-" + std::to_string(a));
      const auto deadline = a == 3 ? std::chrono::microseconds(50000)
                                   : std::chrono::microseconds(0);
      for (int j = 0; j < submissions; ++j) {
        api::AnswerEnvelope reply = client.Call(
            names[static_cast<size_t>(a + 3 * j) % names.size()], deadline);
        if (reply.ok()) {
          ++answered[static_cast<size_t>(a)];
        } else if (reply.error == api::ErrorCode::kDeadlineExpired) {
          ++expired[static_cast<size_t>(a)];
        } else {
          ++rejected[static_cast<size_t>(a)];
        }
      }
    });
  }
  for (std::thread& t : analysts) t.join();
  server.Shutdown();

  for (int a = 0; a < 4; ++a) {
    std::printf("analyst %d: %d answered, %d rejected, %d expired\n", a,
                answered[static_cast<size_t>(a)],
                rejected[static_cast<size_t>(a)],
                expired[static_cast<size_t>(a)]);
  }
  // The budget view rides the stats RPC (zero privacy cost); every
  // serving counter is in Client::Metrics() under its own metric name.
  api::Client admin(&transport, "admin");
  const api::AnswerEnvelope stats = admin.Stats();
  std::printf("\nbudget: %lld hard rounds left, eps=%.4f delta=%.2e spent, "
              "epoch %llu\n",
              stats.meta.hard_rounds_remaining, stats.meta.epsilon_spent,
              stats.meta.delta_spent,
              static_cast<unsigned long long>(stats.meta.epoch));
  return 0;
}
