// Per-layer timings of the serving stack's inner loops (ROADMAP 1(b)).
//
// Today it covers the convex layer: the hypercube margin kernels
// (losses/margin_kernels.h) that every SupportObjective sweep runs, and
// PmwCm::Prepare, which is two solves over such sweeps (theta_hat_t over
// the hypothesis, min l_D over the dataset).
//
//   BM_Value/<link>/<d>, BM_Gradient/<link>/<d>
//       One BatchValue / BatchAddGradient sweep of a SignFlipLoss over
//       its base link; `per_entry` is the time per support entry. d = 6
//       and 10 sweep every row of the labeled cube; d = 19 sweeps every
//       16th row (2^16 entries), a sparse support wider than the kernels'
//       prefix table.
//   BM_Value4, BM_Gradient4
//       A 4-entry sweep at d = 10: the fixed per-call cost.
//   BM_Prepare/<link>/borrowed:{0,1}
//       PmwCm::Prepare at |X| = 2^11 against the initial hypothesis;
//       borrowed:1 passes an earlier plan, so only the hypothesis side is
//       solved (the re-prepare after a hard round).
//
//   ./build/bench_layers --benchmark_filter=BM_Value
//   PMW_SIMD=off ./build/bench_layers    # the scalar kernels

#include <benchmark/benchmark.h>

#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "convex/domain.h"
#include "erm/nonprivate_oracle.h"
#include "losses/margin_losses.h"
#include "losses/transforms.h"

namespace pmw {
namespace {

enum class Link { kSquared, kLogistic, kHinge, kAbsolute };

std::unique_ptr<losses::MarginLoss> MakeLink(Link link, int dim) {
  switch (link) {
    case Link::kSquared:
      return std::make_unique<losses::SquaredLoss>(dim);
    case Link::kLogistic:
      return std::make_unique<losses::LogisticLoss>(dim);
    case Link::kHinge:
      return std::make_unique<losses::HingeLoss>(dim);
    case Link::kAbsolute:
      break;
  }
  return std::make_unique<losses::AbsoluteLoss>(dim);
}

/// Alternating coordinate flips, as the Table 1 families draw them.
std::vector<int> Flips(int dim) {
  std::vector<int> flips;
  for (int j = 0; j < dim; ++j) flips.push_back(j % 3 == 0 ? -1 : 1);
  return flips;
}

/// One universe per d, built on first use and kept for the process.
const data::LabeledHypercubeUniverse& Universe(int dim) {
  static std::map<int, std::unique_ptr<data::LabeledHypercubeUniverse>> all;
  auto& slot = all[dim];
  if (!slot) slot = std::make_unique<data::LabeledHypercubeUniverse>(dim);
  return *slot;
}

struct Sweep {
  const data::LabeledHypercubeUniverse* universe;
  std::unique_ptr<losses::MarginLoss> base;
  std::unique_ptr<losses::SignFlipLoss> loss;
  convex::Vec theta;
  data::HistogramSupport entries;
};

Sweep MakeSweep(Link link, int dim, size_t max_entries) {
  Sweep s;
  s.universe = &Universe(dim);
  s.base = MakeLink(link, dim);
  s.loss = std::make_unique<losses::SignFlipLoss>(s.base.get(), Flips(dim),
                                                  /*label_flip=*/-1);
  Rng rng(7100 + static_cast<uint64_t>(dim));
  s.theta = rng.InUnitBall(dim);
  const int stride = dim >= 19 ? 16 : 1;
  for (int i = 0; i < s.universe->size() && s.entries.size() < max_entries;
       i += stride) {
    s.entries.emplace_back(i, rng.Uniform(0.0, 1.0));
  }
  return s;
}

void SetPerEntry(benchmark::State& state, size_t entries) {
  state.counters["per_entry"] = benchmark::Counter(
      static_cast<double>(entries),
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
}

void BM_Value(benchmark::State& state, Link link) {
  const Sweep s = MakeSweep(link, static_cast<int>(state.range(0)),
                            static_cast<size_t>(-1));
  for (auto _ : state) {
    double acc = 0.0;
    s.loss->BatchValue(s.theta, *s.universe, s.entries.data(),
                       s.entries.size(), &acc);
    benchmark::DoNotOptimize(acc);
  }
  SetPerEntry(state, s.entries.size());
}

void BM_Gradient(benchmark::State& state, Link link) {
  const Sweep s = MakeSweep(link, static_cast<int>(state.range(0)),
                            static_cast<size_t>(-1));
  convex::Vec grad(s.theta.size(), 0.0);
  for (auto _ : state) {
    s.loss->BatchAddGradient(s.theta, *s.universe, s.entries.data(),
                             s.entries.size(), &grad);
    benchmark::DoNotOptimize(grad.data());
  }
  SetPerEntry(state, s.entries.size());
}

void Dims(benchmark::internal::Benchmark* b) {
  b->Arg(6)->Arg(10)->Arg(19);
}
BENCHMARK_CAPTURE(BM_Value, squared, Link::kSquared)->Apply(Dims);
BENCHMARK_CAPTURE(BM_Value, logistic, Link::kLogistic)->Apply(Dims);
BENCHMARK_CAPTURE(BM_Value, hinge, Link::kHinge)->Apply(Dims);
BENCHMARK_CAPTURE(BM_Value, absolute, Link::kAbsolute)->Apply(Dims);
BENCHMARK_CAPTURE(BM_Gradient, squared, Link::kSquared)->Apply(Dims);
BENCHMARK_CAPTURE(BM_Gradient, logistic, Link::kLogistic)->Apply(Dims);
BENCHMARK_CAPTURE(BM_Gradient, hinge, Link::kHinge)->Apply(Dims);
BENCHMARK_CAPTURE(BM_Gradient, absolute, Link::kAbsolute)->Apply(Dims);

void BM_Value4(benchmark::State& state) {
  const Sweep s = MakeSweep(Link::kSquared, 10, 4);
  for (auto _ : state) {
    double acc = 0.0;
    s.loss->BatchValue(s.theta, *s.universe, s.entries.data(),
                       s.entries.size(), &acc);
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_Value4);

void BM_Gradient4(benchmark::State& state) {
  const Sweep s = MakeSweep(Link::kSquared, 10, 4);
  convex::Vec grad(s.theta.size(), 0.0);
  for (auto _ : state) {
    s.loss->BatchAddGradient(s.theta, *s.universe, s.entries.data(),
                             s.entries.size(), &grad);
    benchmark::DoNotOptimize(grad.data());
  }
}
BENCHMARK(BM_Gradient4);

/// learning_rounds' shape: d = 10 (|X| = 2^11), logistic-model data.
struct PrepareBench {
  bench::Workbench wb{10, 200000, 7200};
  erm::NonPrivateOracle oracle;
  core::PmwCm pmw{&wb.dataset, &oracle,
                  bench::PracticalPmwOptions(0.1, 2.0, 1 << 20, 1 << 20),
                  7201};
  core::HypothesisSnapshot snapshot = pmw.SnapshotHypothesis();
  convex::L2Ball domain{10};
};

void BM_Prepare(benchmark::State& state, Link link) {
  static PrepareBench b;
  const std::unique_ptr<losses::MarginLoss> base = MakeLink(link, 10);
  const losses::SignFlipLoss loss(base.get(), Flips(10), /*label_flip=*/-1);
  convex::CmQuery query;
  query.loss = &loss;
  query.domain = &b.domain;
  const core::PreparedQuery earlier = b.pmw.Prepare(query, b.snapshot);
  const bool borrowed = state.range(0) != 0;
  for (auto _ : state) {
    core::PreparedQuery plan =
        b.pmw.Prepare(query, b.snapshot, borrowed ? &earlier : nullptr);
    benchmark::DoNotOptimize(plan);
  }
}
void Borrowed(benchmark::internal::Benchmark* b) {
  b->ArgName("borrowed")->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond);
}
BENCHMARK_CAPTURE(BM_Prepare, squared, Link::kSquared)->Apply(Borrowed);
BENCHMARK_CAPTURE(BM_Prepare, logistic, Link::kLogistic)->Apply(Borrowed);
BENCHMARK_CAPTURE(BM_Prepare, hinge, Link::kHinge)->Apply(Borrowed);
BENCHMARK_CAPTURE(BM_Prepare, absolute, Link::kAbsolute)->Apply(Borrowed);

}  // namespace
}  // namespace pmw

BENCHMARK_MAIN();
