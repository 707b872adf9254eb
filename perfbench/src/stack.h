// One workload's server, built from the workload and the run's seed, and
// the analyst connections to it: universe, dataset, catalog, (workers +
// combiner), endpoint, Unix-domain socket server, client transports.
// Construction is the benchmark's set-up; it ends when the first request
// can be sent.

#ifndef PERFBENCH_STACK_H_
#define PERFBENCH_STACK_H_

#include <memory>
#include <string>
#include <vector>

#include "api/catalog.h"
#include "api/endpoint.h"
#include "api/socket_transport.h"
#include "cluster/combiner.h"
#include "cluster/worker.h"
#include "data/binary_universe.h"
#include "data/dataset.h"
#include "erm/noisy_gradient_oracle.h"
#include "instruments.h"
#include "workloads.h"

namespace pmw {
namespace perfbench {

/// Set-up phases, seconds.
struct SetupTimes {
  double dataset_s = 0.0;  // universe + data distribution + dataset
  double catalog_s = 0.0;
  double workers_s = 0.0;  // shard-group workers + combiner connect
  double endpoint_s = 0.0;  // endpoint + socket server + connections
  double total_s = 0.0;
};

/// The dataset a workload's server holds (exposed for the replay).
std::unique_ptr<data::Dataset> MakeDataset(
    const workload::ScenarioSpec& spec,
    const data::LabeledHypercubeUniverse& universe);

/// The catalog a workload's server serves. It is part of the workload
/// (seeded by spec.seed), not of the run: the run's seed varies the
/// request stream and the server's noise over a fixed query set.
void PopulateCatalog(const workload::ScenarioSpec& spec,
                     api::QueryCatalog* catalog);

class Stack {
 public:
  /// `recorder` non-null builds the traced stack (timing decorators on
  /// the transports, the oracle and the combiner). `socket_path` must be
  /// free; it is unlinked on destruction.
  Stack(const Workload& workload, uint64_t seed, SpanRecorder* recorder,
        const std::string& socket_path);

  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  const SetupTimes& times() const { return times_; }
  /// One transport per analyst connection (spec.analysts of them).
  api::Transport* transport(int analyst) { return transports_[analyst]; }
  api::ServerEndpoint& endpoint() { return *endpoint_; }
  const api::QueryCatalog& catalog() const { return catalog_; }
  const data::Dataset& dataset() const { return *dataset_; }
  const api::ServerOptions& options() const { return options_; }
  /// Null unless the workload has shard groups.
  const cluster::Combiner* combiner() const { return combiner_.get(); }

 private:
  // Declaration order is teardown order, reversed: client connections
  // close first, then the socket server that writes to them, the
  // endpoint, the combiner the endpoint calls, and its workers last.
  SetupTimes times_;
  data::LabeledHypercubeUniverse universe_;
  std::unique_ptr<data::Dataset> dataset_;
  api::QueryCatalog catalog_;
  erm::NoisyGradientOracle plain_oracle_;
  std::unique_ptr<TimingOracle> timing_oracle_;
  api::ServerOptions options_;
  std::vector<std::unique_ptr<cluster::ShardWorker>> workers_;
  std::unique_ptr<cluster::Combiner> combiner_;
  std::unique_ptr<TimingDelegate> timing_delegate_;
  std::unique_ptr<api::ServerEndpoint> endpoint_;
  std::unique_ptr<api::SocketServer> server_;
  std::vector<std::unique_ptr<api::SocketTransport>> sockets_;
  std::vector<std::unique_ptr<TimingTransport>> timing_transports_;
  std::vector<api::Transport*> transports_;
};

}  // namespace perfbench
}  // namespace pmw

#endif  // PERFBENCH_STACK_H_
