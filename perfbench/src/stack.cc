#include "stack.h"

#include <stdexcept>

#include "core/sharded_hypothesis.h"
#include "data/generators.h"
#include "data/histogram.h"
#include "workload/runner.h"

namespace pmw {
namespace perfbench {
namespace {

constexpr const char* kWorkerToken = "perfbench";

double Seconds(Clock::time_point since) {
  return std::chrono::duration<double>(Clock::now() - since).count();
}

void Require(const Status& status, const char* what) {
  if (!status.ok()) {
    throw std::runtime_error(std::string(what) + ": " + status.ToString());
  }
}

}  // namespace

std::unique_ptr<data::Dataset> MakeDataset(
    const workload::ScenarioSpec& spec,
    const data::LabeledHypercubeUniverse& universe) {
  // The same data shapes workload::ScenarioHarness builds.
  data::Histogram truth = data::Histogram::Uniform(universe.size());
  if (spec.data == workload::ScenarioSpec::DataShape::kLogistic) {
    std::vector<double> theta_star(static_cast<size_t>(spec.dim));
    std::vector<double> biases(static_cast<size_t>(spec.dim), 0.5);
    for (int j = 0; j < spec.dim; ++j) {
      theta_star[static_cast<size_t>(j)] = (j % 2 == 0 ? 0.8 : -0.8);
    }
    truth = data::LogisticModelDistribution(universe, theta_star, biases,
                                            /*temperature=*/0.3);
  }
  return std::make_unique<data::Dataset>(
      data::RoundedDataset(universe, truth, spec.records));
}

void PopulateCatalog(const workload::ScenarioSpec& spec,
                     api::QueryCatalog* catalog) {
  api::WorkloadSpec family;
  family.family = api::WorkloadSpec::Family::kLipschitz;
  family.dim = spec.dim;
  catalog->Populate(family, spec.catalog_queries,
                    spec.seed ^ 0x9e3779b97f4a7c15ULL, "q/");
}

Stack::Stack(const Workload& workload, uint64_t seed, SpanRecorder* recorder,
             const std::string& socket_path)
    : universe_(workload.spec.dim) {
  const Clock::time_point start = Clock::now();
  const workload::ScenarioSpec& spec = workload.spec;

  Clock::time_point phase = Clock::now();
  dataset_ = MakeDataset(spec, universe_);
  times_.dataset_s = Seconds(phase);

  phase = Clock::now();
  PopulateCatalog(spec, &catalog_);
  times_.catalog_s = Seconds(phase);

  workload::RunOptions run;
  run.oracle = api::OracleKind::kNoisyGradient;
  run.server_seed = ServerSeed(seed);
  options_ = workload::MakeServerOptions(spec, run, catalog_.scale());
  // k only caps how many queries the mechanism answers; a run's length is
  // set by --seconds, so the cap must never be what ends it.
  options_.mechanism.max_queries = 1LL << 30;

  phase = Clock::now();
  if (spec.shard_groups > 0) {
    cluster::CombinerOptions fabric;
    fabric.auth_token = kWorkerToken;
    for (int g = 0; g < spec.shard_groups; ++g) {
      cluster::ShardWorkerOptions worker_options;
      worker_options.auth_token = kWorkerToken;
      auto worker = std::make_unique<cluster::ShardWorker>(worker_options);
      Require(worker->Start(), "shard worker start");
      cluster::WorkerAddress address;
      address.port = worker->port();
      fabric.workers.push_back(address);
      workers_.push_back(std::move(worker));
    }
    combiner_ = std::make_unique<cluster::Combiner>(fabric);
    const int clamped = static_cast<int>(
        core::PartitionDomain(universe_.size(), spec.shards).size());
    Require(combiner_->Connect(universe_.size(), clamped), "combiner connect");
    core::HypothesisDelegate* delegate = combiner_.get();
    if (recorder != nullptr) {
      timing_delegate_ =
          std::make_unique<TimingDelegate>(combiner_.get(), recorder);
      delegate = timing_delegate_.get();
    }
    options_.serve.hypothesis_delegate = delegate;
  }
  times_.workers_s = Seconds(phase);

  phase = Clock::now();
  erm::Oracle* oracle = &plain_oracle_;
  if (recorder != nullptr) {
    timing_oracle_ = std::make_unique<TimingOracle>(&plain_oracle_, recorder);
    oracle = timing_oracle_.get();
  }
  endpoint_ = std::make_unique<api::ServerEndpoint>(
      dataset_.get(), oracle, &catalog_, options_, run.server_seed);
  server_ = std::make_unique<api::SocketServer>(endpoint_.get(), socket_path);
  Require(server_->Start(), "socket server start");
  for (int a = 0; a < spec.analysts; ++a) {
    auto socket = std::make_unique<api::SocketTransport>(socket_path);
    Require(socket->status(), "socket connect");
    api::Transport* transport = socket.get();
    if (recorder != nullptr) {
      timing_transports_.push_back(
          std::make_unique<TimingTransport>(socket.get(), recorder));
      transport = timing_transports_.back().get();
    }
    sockets_.push_back(std::move(socket));
    transports_.push_back(transport);
  }
  times_.endpoint_s = Seconds(phase);
  times_.total_s = Seconds(start);
}

}  // namespace perfbench
}  // namespace pmw
