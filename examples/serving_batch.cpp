// Serving query traffic in coalesced batches — through the api layer,
// over a domain-sharded hypothesis.
//
// One client keeps a window of CallAsync() requests in flight; behind
// the front door the dispatcher coalesces them into dynamic batches for
// the sharded serving engine: a pool of workers prepares each batch's
// queries in parallel against an immutable per-epoch hypothesis
// snapshot, and the single writer commits answers in arrival order.
// With serve.num_shards > 1 the hypothesis itself is partitioned into
// domain shards, so each hard round's MW update also fans across the
// pool (ServingMeta reports the shard count back with every answer).
// Repeated names are prepared once per batch and reused across batches
// by the epoch-keyed plan cache. Answers and the privacy ledger are
// bit-identical to the sequential mechanism at any shard count, thread
// count, or window size.
//
// Build & run:  ./build/serving_batch

#include <cstdio>
#include <deque>
#include <future>
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

  // Traffic: 512 requests cycling 16 named losses.
  api::QueryCatalog catalog;
  api::WorkloadSpec workload;
  workload.family = api::WorkloadSpec::Family::kLipschitz;
  workload.dim = 5;
  auto names = catalog.Populate(workload, 16, /*seed=*/2, "pool/");

  api::ServerOptions options;
  options.mechanism.alpha = 0.15;
  options.mechanism.privacy = {1.0, 1e-6};
  options.mechanism.scale = catalog.scale();
  options.mechanism.max_queries = 100000;
  options.mechanism.override_updates = 16;
  options.serve.num_threads = 4;  // shard each batch across 4 workers
  options.serve.num_shards = 4;   // partition the hypothesis 4 ways too
  options.dispatcher.max_batch = 64;
  api::ServerEndpoint server(&dataset, &catalog, options, /*seed=*/1);
  api::InProcessTransport transport(&server);
  api::Client client(&transport, "batch-client");

  // Pipeline: keep up to 64 calls in flight so the dispatcher has
  // something to coalesce (a synchronous loop would serve batches of 1).
  constexpr size_t kWindow = 64;
  constexpr int kRequests = 512;
  std::deque<std::future<api::AnswerEnvelope>> in_flight;
  int answered = 0;
  for (int j = 0; j < kRequests; ++j) {
    in_flight.push_back(
        client.CallAsync(names[static_cast<size_t>(j) % names.size()]));
    if (in_flight.size() >= kWindow) {
      if (in_flight.front().get().ok()) ++answered;
      in_flight.pop_front();
    }
  }
  while (!in_flight.empty()) {
    if (in_flight.front().get().ok()) ++answered;
    in_flight.pop_front();
  }
  server.Shutdown();

  // The budget view rides the stats RPC (zero privacy cost); every
  // serving counter is in Client::Metrics() under its own metric name.
  const api::AnswerEnvelope stats = client.Stats();
  std::printf("%d/%d requests answered (hypothesis served from %u domain "
              "shards)\n",
              answered, kRequests, stats.meta.shards);
  std::printf("budget: %lld hard rounds left, eps=%.3f spent (basic), "
              "epoch %llu\n",
              stats.meta.hard_rounds_remaining, stats.meta.epsilon_spent,
              static_cast<unsigned long long>(stats.meta.epoch));
  return 0;
}
