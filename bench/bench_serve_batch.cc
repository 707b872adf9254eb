// Throughput of the batched serving path (serve::PmwService::AnswerBatch)
// versus batch size, on the bottom-answer (cache-hit) path: a near-uniform
// dataset keeps the hypothesis accurate, so every query is answered from
// the public histogram with no privacy cost. This is the steady-state
// serving regime — updates are bounded by T, so after warm-up all traffic
// is kBottom — and it is where batching pays: one hypothesis compaction
// pass per batch and one solve per distinct query per batch.
//
// The workload cycles a pool of 8 distinct queries (many clients asking
// overlapping questions). The acceptance gate for the serving layer is
// >= 2x queries/sec at batch size 256 over batch size 1.

#include <cstdio>
#include <vector>

#include "common/random.h"
#include "common/stats.h"
#include "common/table_printer.h"
#include "common/timer.h"
#include "data/binary_universe.h"
#include "data/generators.h"
#include "data/histogram.h"
#include "erm/nonprivate_oracle.h"
#include "losses/loss_family.h"
#include "obs/metrics.h"
#include "serve/pmw_service.h"

namespace pmw {
namespace {

constexpr int kDim = 6;
constexpr int kRecords = 200000;
constexpr int kPoolSize = 8;
constexpr int kTotalQueries = 1024;

struct BenchResult {
  double queries_per_sec = 0.0;
  long long cache_hits = 0;
  long long updates = 0;
};

BenchResult RunAtBatchSize(const data::Dataset& dataset,
                           const std::vector<convex::CmQuery>& workload,
                           int batch_size) {
  erm::NonPrivateOracle oracle;
  core::PmwOptions options;
  options.alpha = 0.2;
  options.beta = 0.05;
  options.privacy = {2.0, 1e-6};
  options.max_queries = 2 * kTotalQueries;
  options.override_updates = 32;
  serve::PmwService service(&dataset, &oracle, options, /*seed=*/1234);

  WallTimer timer;
  for (size_t start = 0; start < workload.size();
       start += static_cast<size_t>(batch_size)) {
    size_t count = std::min(static_cast<size_t>(batch_size),
                            workload.size() - start);
    std::span<const convex::CmQuery> batch(&workload[start], count);
    std::vector<Result<convex::Vec>> results = service.AnswerBatch(batch);
    for (const auto& result : results) {
      if (!result.ok()) {
        std::fprintf(stderr, "serve error: %s\n",
                     result.status().ToString().c_str());
        return {};
      }
    }
  }
  double elapsed = timer.ElapsedSeconds();

  BenchResult result;
  result.queries_per_sec =
      elapsed > 0.0 ? static_cast<double>(workload.size()) / elapsed : 0.0;
  result.cache_hits =
      service.registry().CounterValue("pmw_serve_prepare_cache_hits_total");
  result.updates = service.registry().CounterValue("pmw_serve_updates_total");
  return result;
}

int Main() {
  data::LabeledHypercubeUniverse universe(kDim);
  // Near-uniform data: the uniform initial hypothesis is already accurate,
  // so the sparse vector answers kBottom throughout (the cache-hit path).
  data::Histogram uniform = data::Histogram::Uniform(universe.size());
  data::Dataset dataset = data::RoundedDataset(universe, uniform, kRecords);

  losses::LipschitzFamily family(kDim);
  Rng rng(99);
  std::vector<convex::CmQuery> pool = family.Generate(kPoolSize, &rng);
  std::vector<convex::CmQuery> workload;
  workload.reserve(kTotalQueries);
  for (int j = 0; j < kTotalQueries; ++j) {
    workload.push_back(pool[j % kPoolSize]);
  }

  std::printf("bench_serve_batch: |X|=%d, n=%d, pool=%d, queries=%d\n",
              universe.size(), kRecords, kPoolSize, kTotalQueries);

  TablePrinter table({"batch size", "queries/sec", "cache hits", "updates"});
  std::vector<int> batch_sizes = {1, 16, 256};
  std::vector<double> qps;
  for (int batch_size : batch_sizes) {
    BenchResult result = RunAtBatchSize(dataset, workload, batch_size);
    qps.push_back(result.queries_per_sec);
    table.AddRow({std::to_string(batch_size),
                  std::to_string(result.queries_per_sec),
                  std::to_string(result.cache_hits),
                  std::to_string(result.updates)});
  }
  table.Print();

  double speedup = qps.front() > 0.0 ? qps.back() / qps.front() : 0.0;
  std::printf("speedup at batch=256 vs batch=1: %.2fx (gate: >= 2x)\n",
              speedup);
  std::printf(speedup >= 2.0 ? "RESULT: PASS\n" : "RESULT: FAIL\n");
  return speedup >= 2.0 ? 0 : 1;
}

}  // namespace
}  // namespace pmw

int main() { return pmw::Main(); }
