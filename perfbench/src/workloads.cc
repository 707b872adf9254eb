#include "workloads.h"

#include <cmath>

namespace pmw {
namespace perfbench {
namespace {

using workload::ScenarioSpec;

std::vector<Workload> Build() {
  std::vector<Workload> all;

  // The front door alone: near-uniform data keeps the sparse vector in
  // kBottom, so after first touch every answer is a plan-cache read and
  // the time goes to codec, socket, admission, queue and dispatcher.
  {
    Workload w;
    w.name = "steady_reads";
    ScenarioSpec& s = w.spec;
    s.dim = 6;  // |X| = 2^7
    s.records = 200000;
    s.catalog_queries = 96;
    s.serve_threads = 2;
    s.shards = 1;
    s.popularity = ScenarioSpec::Popularity::kZipfian;
    s.zipf_theta = 0.99;
    s.data = ScenarioSpec::DataShape::kNearUniform;
    s.override_updates = 32;
    s.analysts = 3;
    s.arrival = ScenarioSpec::Arrival::kOpenLoopPoisson;
    w.drive = Drive::kOpenLoop;
    w.nominal_qps = 1000.0;
    w.ladder_qps = {2000.0, 4000.0, 8000.0, 16000.0, 32000.0};
    w.p99_limit_ms = 5.0;
    w.ladder_step_s = 2.0;
    w.ordered_check = false;
    all.push_back(w);
  }

  // The mechanism's write path: logistic data and the paper's T keep
  // hard rounds (oracle solve, MW update, re-prepare) firing all run.
  {
    Workload w;
    w.name = "learning_rounds";
    ScenarioSpec& s = w.spec;
    s.dim = 10;  // |X| = 2^11
    s.records = 200000;
    s.catalog_queries = 96;
    s.serve_threads = 2;
    s.shards = 4;
    s.popularity = ScenarioSpec::Popularity::kUniform;
    s.data = ScenarioSpec::DataShape::kLogistic;
    s.override_updates = 0;
    s.analysts = 1;
    s.queries_per_analyst = 125;
    s.arrival = ScenarioSpec::Arrival::kClosedLoop;
    w.drive = Drive::kWindow;
    w.window = 4;
    w.ordered_check = true;
    all.push_back(w);
  }

  // Cold Prepare at scale: every first touch solves over 2^20 on the
  // sparse backend; repeats are cached reads. No hard rounds (one costs
  // about a second at this size).
  {
    Workload w;
    w.name = "huge_cold_start";
    ScenarioSpec& s = w.spec;
    s.dim = 19;  // |X| = 2^20
    // n sets the sparse vector's noise (sensitivity 3S/n): at 50000 records
    // a few thousand kBottom queries draw a false kTop now and then, and
    // each costs a 2^20 MW update plus a cold re-prepare of every plan.
    s.records = 100000;
    s.catalog_queries = 160;
    s.serve_threads = 2;
    s.shards = 4;
    s.backend = ScenarioSpec::Backend::kSparse;
    s.solver_max_iters = 8;
    s.alpha = 0.3;
    s.popularity = ScenarioSpec::Popularity::kZipfian;
    s.zipf_theta = 0.99;
    s.data = ScenarioSpec::DataShape::kNearUniform;
    s.override_updates = 32;
    s.analysts = 4;
    // Long enough that first touches stay a few percent of requests: the
    // median is a cached read and the p99 a cold Prepare.
    s.queries_per_analyst = 1024;
    s.arrival = ScenarioSpec::Arrival::kClosedLoop;
    w.drive = Drive::kClosedLoop;
    w.ordered_check = false;
    all.push_back(w);
  }

  // learning_rounds with the MW phases on two shard-group workers behind
  // the combiner, over localhost TCP: the only workload with the cluster
  // layer on the path.
  {
    Workload w = all[1];
    w.name = "multihost_rounds";
    w.spec.shard_groups = 2;
    all.push_back(w);
  }
  // spec.seed seeds the workload's catalog; MakeTrace overrides it with
  // the run's seed for the request stream.
  uint64_t catalog_seed = 101;
  for (Workload& w : all) {
    w.spec.name = w.name;
    w.spec.seed = catalog_seed++;
  }
  return all;
}

}  // namespace

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> all = Build();
  return all;
}

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : Workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

uint64_t ServerSeed(uint64_t seed) {
  // splitmix64: distinct, well-mixed server seeds for adjacent run seeds.
  uint64_t z = seed + 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

workload::Trace MakeTrace(const Workload& w, uint64_t seed,
                          const std::vector<std::string>& names, double qps,
                          double seconds) {
  workload::ScenarioSpec spec = w.spec;
  spec.seed = seed;
  if (w.drive == Drive::kOpenLoop) {
    spec.open_loop_qps = qps;
    const long long events = std::llround(qps * seconds);
    spec.queries_per_analyst = static_cast<int>(
        std::max<long long>(1, events / std::max(1, spec.analysts)));
  }
  return workload::BuildTrace(spec, names);
}

}  // namespace perfbench
}  // namespace pmw
