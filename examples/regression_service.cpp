// A multi-analyst private regression service over a real wire — the
// scenario motivating the paper's introduction: "the same data is often
// analyzed repeatedly... many different analysts together need answers
// to a large number of distinct CM queries."
//
// Scenario: a health registry holds n patient records (5 binary risk
// factors + an outcome label) and serves a Unix-domain socket. Three
// teams connect as separate clients — a GLM team fitting generalized
// linear models, a robust team running Lipschitz losses, and a ridge
// team with strongly convex objectives. Every request crosses the
// binary wire protocol (length-prefixed frames, version negotiation,
// typed error taxonomy), and ONE PmwCm privacy budget covers all three
// teams' traffic; accuracy degrades only with the number of *hard*
// rounds, not the number of teams.
//
// Build & run:  ./build/regression_service

#include <unistd.h>

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "api/pmw_api.h"
#include "data/binary_universe.h"
#include "data/generators.h"

int main() {
  using namespace pmw;
  const int d = 5;
  const int n = 120000;
  const int queries_per_team = 30;

  data::LabeledHypercubeUniverse universe(d);
  data::Histogram truth = data::LogisticModelDistribution(
      universe, {0.9, -0.7, 0.5, 0.2, -0.3}, {0.55, 0.45, 0.5, 0.6, 0.5},
      0.3);
  data::Dataset registry = data::RoundedDataset(universe, truth, n);

  // Each team's workload goes into one shared catalog under its own
  // prefix; the catalog's scale() tells the mechanism the family-wide S.
  api::QueryCatalog catalog;
  api::WorkloadSpec glm{.family = api::WorkloadSpec::Family::kGlm,
                        .dim = d};
  api::WorkloadSpec robust{.family = api::WorkloadSpec::Family::kLipschitz,
                           .dim = d};
  api::WorkloadSpec ridge{
      .family = api::WorkloadSpec::Family::kStronglyConvex,
      .dim = d,
      .sigma = 0.4};
  catalog.Populate(glm, queries_per_team, /*seed=*/12, "glm/");
  catalog.Populate(robust, queries_per_team, /*seed=*/13, "robust/");
  catalog.Populate(ridge, queries_per_team, /*seed=*/14, "ridge/");

  api::ServerOptions options;
  options.mechanism.alpha = 0.15;
  options.mechanism.privacy = {1.0, 1e-6};
  options.mechanism.scale = catalog.scale();
  options.mechanism.max_queries = 3 * queries_per_team;
  options.mechanism.override_updates = 20;
  options.serve.num_threads = 2;
  api::ServerEndpoint endpoint(&registry, &catalog, options, /*seed=*/10);

  const std::string socket_path =
      "/tmp/pmw_registry_" + std::to_string(::getpid()) + ".sock";
  api::SocketServer server(&endpoint, socket_path);
  Status started = server.Start();
  if (!started.ok()) {
    std::printf("server failed to start: %s\n", started.ToString().c_str());
    return 1;
  }
  std::printf(
      "health registry: n=%d records, |X|=%d, budget (1.0, 1e-6), "
      "%d total queries, serving on %s\n\n",
      n, universe.size(), 3 * queries_per_team, socket_path.c_str());

  // Three teams, three connections, concurrent closed-loop traffic.
  const std::vector<std::string> teams = {"glm", "robust", "ridge"};
  std::vector<int> answered(teams.size(), 0), hard_rounds(teams.size(), 0);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < teams.size(); ++t) {
    threads.emplace_back([t, &teams, &socket_path, &answered,
                          &hard_rounds] {
      api::SocketTransport transport(socket_path);
      if (!transport.status().ok()) return;
      api::Client client(&transport, teams[t] + "-team");
      for (int q = 0; q < queries_per_team; ++q) {
        api::AnswerEnvelope reply =
            client.Call(teams[t] + "/" + std::to_string(q));
        if (reply.ok()) {
          ++answered[t];
          if (reply.meta.hard_round) ++hard_rounds[t];
        }
      }
      transport.Close();
    });
  }
  for (std::thread& thread : threads) thread.join();
  // The budget view rides the stats RPC over the same socket (zero
  // privacy cost); every serving counter is in Client::Metrics().
  api::AnswerEnvelope stats;
  {
    api::SocketTransport transport(socket_path);
    api::Client admin(&transport, "admin");
    stats = admin.Stats();
    transport.Close();
  }
  server.Shutdown();
  endpoint.Shutdown();

  for (size_t t = 0; t < teams.size(); ++t) {
    std::printf("%-7s team: %2d/%d answered, %d hard rounds triggered\n",
                teams[t].c_str(), answered[t], queries_per_team,
                hard_rounds[t]);
  }
  std::printf("\nbudget: %lld hard rounds left, eps=%.4f delta=%.2e spent, "
              "epoch %llu\n",
              stats.meta.hard_rounds_remaining, stats.meta.epsilon_spent,
              stats.meta.delta_spent,
              static_cast<unsigned long long>(stats.meta.epoch));
  return 0;
}
