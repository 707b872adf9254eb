// Two serving-layer scaling gates in one binary:
//
// 1. Prepare path (PR 2, default mode): throughput versus thread count
//    on a hypothesis-heavy workload — a near-uniform dataset keeps the
//    sparse vector answering kBottom, so per-query cost is dominated by
//    preparation (two solves against the hypothesis snapshot), the
//    embarrassingly parallel work the shard executor fans out. Gate:
//    >= 2.5x queries/sec at 4 threads over 1 thread.
//
// 2. MW-update path (PR 5, also via --shards=K): the domain-sharded
//    hypothesis. A point-mass dataset makes the uniform hypothesis
//    maximally wrong, so the sparse vector fires kTop round after round
//    and the cost that matters is the MW-update path — the
//    dual-certificate payoff over all of X plus the sharded
//    reweigh/renormalize — which the service's shard runner fork-joins
//    across the pool. The measured quantity is the sum of the
//    service's per-hard-round pmw_serve_mw_update_us histogram (the
//    update path alone; oracle solves and prepares excluded — they are
//    the sequential part sharding cannot touch). Gate: >= 2x MW-update-path
//    throughput at --shards=4 over --shards=1. Updates per config must
//    be identical (sharding is bit-invariant), so the ratio is pure
//    wall-clock.
//
// Both gates need hardware to scale on: when the effective-core probe
// (workload/cores.h) measures fewer than 3.5 cores of real parallelism,
// either at startup or again right after the gate's timed phase, the run
// still prints the tables but exits SKIP instead of FAIL, since no
// scheduler can conjure parallel speedup out of one core — however many
// vCPUs the box advertises. Transcript safety is asserted, not
// assumed: every configuration must produce the same
// bottom/update/error counts (serve_sharded_test checks value-level
// identity).

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common/math_util.h"
#include "common/random.h"
#include "common/simd.h"
#include "common/table_printer.h"
#include "common/timer.h"
#include "core/sharded_hypothesis.h"
#include "data/binary_universe.h"
#include "data/generators.h"
#include "data/histogram.h"
#include "erm/nonprivate_oracle.h"
#include "losses/loss_family.h"
#include "obs/metrics.h"
#include "serve/pmw_service.h"
#include "workload/cores.h"
#include "workload/json.h"

namespace pmw {
namespace {

/// The box's advertised parallelism (hardware_concurrency, which
/// baselines are bucketed by) and the measured one the gates trust.
struct Cores {
  unsigned advertised = 0;
  double effective = 0.0;
};

/// Both scaling gates want four cores of real parallelism; below this
/// measured floor they SKIP.
constexpr double kMinEffectiveCores = 3.5;

/// The gates' core check: the startup probe (what env.effective_cores
/// records) and a second probe taken right after the timed phase must
/// both reach kMinEffectiveCores, since one probe before a multi-second
/// phase cannot show the phase kept the cores. Prints both readings, and
/// the SKIP line when either falls short.
bool HadCores(const Cores& cores, double after, const char* gate) {
  std::printf("effective cores: %.2f before, %.2f after the timed phase\n",
              cores.effective, after);
  if (cores.effective >= kMinEffectiveCores && after >= kMinEffectiveCores) {
    return true;
  }
  std::printf("RESULT: SKIP (%.2f and %.2f effective core(s) of %u "
              "advertised; the %s gate needs %.1f on both probes)\n",
              cores.effective, after, cores.advertised, gate,
              kMinEffectiveCores);
  return false;
}

/// The BENCH json `env` record.
workload::JsonValue EnvJson(const Cores& cores) {
  workload::JsonValue env = workload::JsonValue::Object();
  env.Set("cores", workload::JsonValue::Int(cores.advertised))
      .Set("effective_cores", workload::JsonValue::Double(cores.effective));
  return env;
}

constexpr int kDim = 6;
constexpr int kRecords = 200000;
constexpr int kTotalQueries = 768;
constexpr size_t kBatchSize = 256;

// MW-update-path (sharded) mode parameters: a bigger universe so one
// update is real work, a point-mass dataset so updates actually fire.
constexpr int kMwDim = 12;  // |X| = 2^13 = 8192
constexpr int kMwQueries = 96;
constexpr int kMwUpdates = 64;
constexpr int kMwThreads = 4;

struct BenchResult {
  double queries_per_sec = 0.0;
  long long bottom = 0;
  long long updates = 0;
  long long errors = 0;
};

/// Writes a sweep's BENCH json artifact (same format family as
/// bench_scenarios: the nightly job uploads these and the regression
/// checker reads them back).
bool WriteBenchJson(const workload::JsonValue& root,
                    const std::string& dir, const std::string& name) {
  const std::string path = dir + "/BENCH_" + name + ".json";
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  out << root.Dump();
  return static_cast<bool>(out);
}

BenchResult RunAtThreads(const data::Dataset& dataset,
                         const std::vector<convex::CmQuery>& workload,
                         int num_threads) {
  erm::NonPrivateOracle oracle;
  core::PmwOptions options;
  options.alpha = 0.2;
  options.beta = 0.05;
  options.privacy = {2.0, 1e-6};
  options.max_queries = 2 * kTotalQueries;
  options.override_updates = 32;
  serve::ServeOptions serve_options;
  serve_options.num_threads = num_threads;
  serve::PmwService service(&dataset, &oracle, options, /*seed=*/1234,
                            serve_options);

  WallTimer timer;
  for (size_t start = 0; start < workload.size(); start += kBatchSize) {
    size_t count = std::min(kBatchSize, workload.size() - start);
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
  const obs::Registry& registry = service.registry();
  result.bottom = registry.CounterValue("pmw_serve_bottom_total");
  result.updates = registry.CounterValue("pmw_serve_updates_total");
  result.errors = registry.CounterValue("pmw_serve_errors_total");
  return result;
}

struct MwBenchResult {
  long long updates = 0;
  long long bottom = 0;
  long long errors = 0;
  double mw_ms = 0.0;
  double updates_per_sec = 0.0;
};

/// One sharded configuration of the MW-update-path bench: fixed thread
/// pool, varying domain-shard count. Batches of 1 so re-prepares never
/// pollute the measurement — the gate is about the update path.
MwBenchResult RunMwAtShards(const data::Dataset& dataset,
                            const std::vector<convex::CmQuery>& workload,
                            int num_shards,
                            core::HypothesisBackend backend) {
  erm::NonPrivateOracle oracle;
  core::PmwOptions options;
  options.alpha = 0.02;  // low threshold: the point-mass data fires kTop
  options.beta = 0.05;
  options.privacy = {8.0, 1e-6};
  options.max_queries = 2 * kMwQueries;
  options.override_updates = kMwUpdates;
  options.solver.max_iters = 40;  // bound the (unsharded) prepare cost
  serve::ServeOptions serve_options;
  serve_options.num_threads = kMwThreads;
  serve_options.num_shards = num_shards;
  serve_options.hypothesis_backend = backend;
  serve::PmwService service(&dataset, &oracle, options, /*seed=*/4321,
                            serve_options);

  for (const convex::CmQuery& query : workload) {
    Result<convex::Vec> result = service.Answer(query);
    if (!result.ok() && result.status().code() != StatusCode::kHalted) {
      std::fprintf(stderr, "serve error: %s\n",
                   result.status().ToString().c_str());
      return {};
    }
  }

  MwBenchResult result;
  const obs::Registry& registry = service.registry();
  result.updates = registry.CounterValue("pmw_serve_updates_total");
  result.bottom = registry.CounterValue("pmw_serve_bottom_total");
  result.errors = registry.CounterValue("pmw_serve_errors_total");
  result.mw_ms = registry.HistogramSnap("pmw_serve_mw_update_us").sum / 1e3;
  result.updates_per_sec =
      result.mw_ms > 0.0
          ? static_cast<double>(result.updates) / (result.mw_ms / 1e3)
          : 0.0;
  return result;
}

/// The sharded MW-update-path phase; returns the process exit code.
/// `gate_shards` <= 1 runs the default sweep {1, 2, 4} and gates 4 vs 1.
/// Under kSparse (exact mode) the artifact is named mw_shards_sparse so
/// dense baselines are never compared against sparse sweeps; transcript
/// counters must still agree across shard counts — exact mode is
/// bit-identical by construction, and this bench runs it hot.
int RunMwPhase(int gate_shards, const Cores& cores,
               const std::string& json_dir, core::HypothesisBackend backend) {
  data::LabeledHypercubeUniverse universe(kMwDim);
  // Point mass: the uniform initial hypothesis is maximally wrong, so
  // hard rounds fire until the update budget is spent — the MW-heavy
  // steady state the shard gate measures.
  std::vector<double> weights(static_cast<size_t>(universe.size()), 1e-12);
  weights[0] = 1.0;
  data::Histogram point_mass = data::Histogram::FromWeights(weights);
  data::Dataset dataset =
      data::RoundedDataset(universe, point_mass, kRecords);

  losses::LipschitzFamily family(kMwDim);
  Rng rng(77);
  std::vector<convex::CmQuery> workload = family.Generate(kMwQueries, &rng);

  const bool sparse = backend == core::HypothesisBackend::kSparse;
  const char* backend_name = sparse ? "sparse" : "dense";
  std::printf(
      "\nMW-update path (domain-sharded, %s backend): |X|=%d, n=%d, "
      "queries=%d, T=%d, threads=%d\n",
      backend_name, universe.size(), kRecords, kMwQueries, kMwUpdates,
      kMwThreads);

  // --shards=K runs {1, K} ({1} alone for K=1: the baseline-only
  // invocation); the default sweep is {1, 2, 4}.
  std::vector<int> shard_counts;
  if (gate_shards == 1) {
    shard_counts = {1};
  } else if (gate_shards > 1) {
    shard_counts = {1, gate_shards};
  } else {
    shard_counts = {1, 2, 4};
  }
  TablePrinter table({"shards", "updates", "mw_ms", "mw_upd/s"});
  MwBenchResult baseline;
  MwBenchResult gated;
  bool transcripts_agree = true;
  workload::JsonValue sweep = workload::JsonValue::Array();
  for (int shards : shard_counts) {
    MwBenchResult result = RunMwAtShards(dataset, workload, shards, backend);
    if (shards == 1) baseline = result;
    if (shards == shard_counts.back()) gated = result;
    transcripts_agree = transcripts_agree &&
                        result.updates == baseline.updates &&
                        result.bottom == baseline.bottom &&
                        result.errors == baseline.errors;
    table.AddRow({std::to_string(shards), std::to_string(result.updates),
                  TablePrinter::Fmt(result.mw_ms, 2),
                  TablePrinter::Fmt(result.updates_per_sec, 1)});
    sweep.Push(workload::JsonValue::Object()
                   .Set("shards", workload::JsonValue::Int(shards))
                   .Set("updates", workload::JsonValue::Int(result.updates))
                   .Set("mw_ms", workload::JsonValue::Double(result.mw_ms))
                   .Set("updates_per_sec",
                        workload::JsonValue::Double(result.updates_per_sec)));
  }
  const double cores_after = workload::MeasureEffectiveCores();
  table.Print();

  if (!transcripts_agree) {
    std::printf("RESULT: FAIL (transcript counters diverged across shard "
                "counts)\n");
    return 1;
  }
  const int top = shard_counts.back();
  double speedup = baseline.updates_per_sec > 0.0
                       ? gated.updates_per_sec / baseline.updates_per_sec
                       : 0.0;
  std::printf(
      "MW-update-path speedup at shards=%d vs shards=1: %.2fx "
      "(gate: >= 2x at shards=4)\n",
      top, speedup);
  if (!json_dir.empty()) {
    const std::string bench_name = sparse ? "mw_shards_sparse" : "mw_shards";
    workload::JsonValue root =
        workload::JsonValue::Object()
            .Set("bench", workload::JsonValue::Str(bench_name))
            .Set("params",
                 workload::JsonValue::Object()
                     .Set("dim", workload::JsonValue::Int(kMwDim))
                     .Set("records", workload::JsonValue::Int(kRecords))
                     .Set("queries", workload::JsonValue::Int(kMwQueries))
                     .Set("override_updates",
                          workload::JsonValue::Int(kMwUpdates))
                     .Set("threads", workload::JsonValue::Int(kMwThreads))
                     .Set("backend", workload::JsonValue::Str(backend_name)))
            .Set("env", EnvJson(cores))
            .Set("sweep", std::move(sweep))
            .Set("speedup_top_vs_1", workload::JsonValue::Double(speedup));
    if (!WriteBenchJson(root, json_dir, bench_name)) return 1;
  }
  if (!HadCores(cores, cores_after, ">= 2x")) return 0;
  if (top < 4) {
    std::printf("RESULT: SKIP (gate applies at --shards=4)\n");
    return 0;
  }
  if (baseline.updates < kMwUpdates / 4) {
    std::printf("RESULT: FAIL (only %lld hard rounds fired; the MW gate "
                "needs a hot update path)\n",
                baseline.updates);
    return 1;
  }
  std::printf(speedup >= 2.0 ? "RESULT: PASS\n" : "RESULT: FAIL\n");
  return speedup >= 2.0 ? 0 : 1;
}

// SIMD phase parameters: a domain big enough that the per-element passes
// dominate loop overhead, enough reps that the ratio is stable on a
// shared runner.
constexpr int kSimdDomainBits = 18;  // |X| = 262144
constexpr int kSimdKernelReps = 200;
constexpr int kSimdUpdates = 30;

/// Times one full pass of the vectorized reweigh/normalize inner loops
/// (axpy+max fold, stabilizing subtract, fixed-tree sum, normalizing
/// divide) at the current simd::Enabled() setting. The scalar log/exp
/// passes are deliberately absent: they are identical in both builds
/// (libm stays scalar per element), so including them would only dilute
/// the ratio the gate is about.
double TimeKernelLoops(const std::vector<double>& base,
                       const std::vector<double>& src, double* sink) {
  const size_t n = base.size();
  std::vector<double> work = base;
  std::vector<double> out(n);
  WallTimer timer;
  for (int rep = 0; rep < kSimdKernelReps; ++rep) {
    double local_max = -std::numeric_limits<double>::infinity();
    simd::AxpyMax(work.data(), src.data(), 0.1, n, &local_max);
    simd::SubScalar(work.data(), local_max * 1e-6, n);
    *sink += PairwiseSum(work.data(), 0, n);
    simd::DivScalarTo(out.data(), work.data(), 1.0 + 1e-9, n);
  }
  return timer.ElapsedSeconds() * 1e3;
}

struct SimdRun {
  double kernel_ms = 0.0;
  double update_ms = 0.0;
  /// FNV-1a over the final hypothesis content (ContentFingerprint).
  uint64_t fingerprint = 0;
};

/// FNV-1a over every support entry's index and mass bits: any moved bit
/// changes it.
uint64_t ContentFingerprint(const data::HistogramSupport& support) {
  uint64_t hash = 1469598103934665603ull;
  const auto mix = [&hash](uint64_t word) {
    hash = (hash ^ word) * 1099511628211ull;
  };
  for (const auto& [index, mass] : support) {
    mix(static_cast<uint64_t>(static_cast<uint32_t>(index)));
    uint64_t mass_bits;
    std::memcpy(&mass_bits, &mass, sizeof(mass_bits));
    mix(mass_bits);
  }
  return hash;
}

/// One full measurement at a fixed simd setting: the kernel-loop pass
/// plus kSimdUpdates real MultiplicativeUpdate calls on a fresh
/// hypothesis (same payoffs both settings, so the final content
/// fingerprints must be bit-identical).
SimdRun RunSimdAt(bool simd_on, const std::vector<double>& base,
                  const std::vector<double>& src,
                  const std::vector<std::vector<double>>& payoffs,
                  double* sink) {
  simd::SetEnabled(simd_on);
  SimdRun run;
  run.kernel_ms = TimeKernelLoops(base, src, sink);
  core::ShardedHypothesis hypothesis(1 << kSimdDomainBits);
  WallTimer timer;
  for (const std::vector<double>& payoff : payoffs) {
    const Status status = hypothesis.MultiplicativeUpdate(payoff, 0.1);
    if (!status.ok()) {
      std::fprintf(stderr, "mw update failed: %s\n",
                   status.ToString().c_str());
      return run;
    }
  }
  run.update_ms = timer.ElapsedSeconds() * 1e3;
  run.fingerprint = ContentFingerprint(hypothesis.CompactSupport());
  return run;
}

/// The SIMD on/off sweep (`--simd=on|off`): gates the vectorized
/// reweigh+normalize inner loops at >= 1.3x (on vs off) and asserts the
/// end-to-end MW update is bit-identical across the two paths (equal
/// hypothesis content fingerprints after identical update sequences). `gated`
/// applies the 1.3x gate (--simd=on, the CI invocation); --simd=off
/// records the same artifact without failing, for baseline collection.
/// Without AVX2 the comparison would be scalar-vs-scalar, so the run
/// SKIPs and the artifact says so instead of faking a 1.0x.
int RunSimdPhase(bool gated, const Cores& cores,
                 const std::string& json_dir) {
  std::printf("\nSIMD sweep (reweigh+normalize inner loops): |X|=%d, "
              "kernel reps=%d, updates=%d, avx2=%s\n",
              1 << kSimdDomainBits, kSimdKernelReps, kSimdUpdates,
              simd::Available() ? "yes" : "no");
  if (!simd::Available()) {
    if (!json_dir.empty()) {
      workload::JsonValue env = EnvJson(cores);
      env.Set("simd_available", workload::JsonValue::Bool(false));
      workload::JsonValue root =
          workload::JsonValue::Object()
              .Set("bench", workload::JsonValue::Str("mw_simd"))
              .Set("env", std::move(env));
      if (!WriteBenchJson(root, json_dir, "mw_simd")) return 1;
    }
    std::printf("RESULT: SKIP (no AVX2: on/off would compare scalar to "
                "itself)\n");
    return 0;
  }

  const size_t n = static_cast<size_t>(1) << kSimdDomainBits;
  Rng rng(2718);
  std::vector<double> base(n), src(n);
  for (size_t i = 0; i < n; ++i) {
    base[i] = rng.Uniform(-20.0, 0.0);  // SafeLog(p) territory
    src[i] = rng.Uniform(-1.0, 1.0);
  }
  std::vector<std::vector<double>> payoffs(kSimdUpdates,
                                           std::vector<double>(n));
  for (std::vector<double>& payoff : payoffs) {
    for (double& x : payoff) x = rng.Uniform(-1.0, 1.0);
  }

  // Two interleaved rounds per setting; keep each setting's best. The
  // interleave cancels slow drift (thermal, noisy neighbors) that a
  // back-to-back A/A/B/B order would fold into the ratio.
  double sink = 0.0;
  SimdRun off = RunSimdAt(false, base, src, payoffs, &sink);
  SimdRun on = RunSimdAt(true, base, src, payoffs, &sink);
  const SimdRun off2 = RunSimdAt(false, base, src, payoffs, &sink);
  const SimdRun on2 = RunSimdAt(true, base, src, payoffs, &sink);
  off.kernel_ms = std::min(off.kernel_ms, off2.kernel_ms);
  off.update_ms = std::min(off.update_ms, off2.update_ms);
  on.kernel_ms = std::min(on.kernel_ms, on2.kernel_ms);
  on.update_ms = std::min(on.update_ms, on2.update_ms);

  const bool identical = off.fingerprint == on.fingerprint &&
                         off.fingerprint == off2.fingerprint &&
                         on.fingerprint == on2.fingerprint;
  const double kernel_speedup =
      on.kernel_ms > 0.0 ? off.kernel_ms / on.kernel_ms : 0.0;
  const double update_speedup =
      on.update_ms > 0.0 ? off.update_ms / on.update_ms : 0.0;

  TablePrinter table({"simd", "kernel_ms", "mw_update_ms", "fingerprint"});
  char fp_buf[32];
  std::snprintf(fp_buf, sizeof(fp_buf), "%016llx",
                static_cast<unsigned long long>(off.fingerprint));
  table.AddRow({"off", TablePrinter::Fmt(off.kernel_ms, 2),
                TablePrinter::Fmt(off.update_ms, 2), fp_buf});
  std::snprintf(fp_buf, sizeof(fp_buf), "%016llx",
                static_cast<unsigned long long>(on.fingerprint));
  table.AddRow({"on", TablePrinter::Fmt(on.kernel_ms, 2),
                TablePrinter::Fmt(on.update_ms, 2), fp_buf});
  table.Print();
  std::printf("kernel-loop speedup on vs off: %.2fx (gate: >= 1.3x); "
              "end-to-end MW update: %.2fx (informational; scalar log/exp "
              "dominate it)\n",
              kernel_speedup, update_speedup);

  if (!json_dir.empty()) {
    workload::JsonValue env = EnvJson(cores);
    env.Set("simd_available", workload::JsonValue::Bool(true));
    workload::JsonValue root =
        workload::JsonValue::Object()
            .Set("bench", workload::JsonValue::Str("mw_simd"))
            .Set("params",
                 workload::JsonValue::Object()
                     .Set("domain", workload::JsonValue::Int(
                                        static_cast<long long>(n)))
                     .Set("kernel_reps",
                          workload::JsonValue::Int(kSimdKernelReps))
                     .Set("updates", workload::JsonValue::Int(kSimdUpdates)))
            .Set("env", std::move(env))
            .Set("kernel_ms_off", workload::JsonValue::Double(off.kernel_ms))
            .Set("kernel_ms_on", workload::JsonValue::Double(on.kernel_ms))
            .Set("mw_update_ms_off",
                 workload::JsonValue::Double(off.update_ms))
            .Set("mw_update_ms_on", workload::JsonValue::Double(on.update_ms))
            .Set("mw_update_speedup",
                 workload::JsonValue::Double(update_speedup))
            .Set("fingerprints_match", workload::JsonValue::Bool(identical))
            .Set("speedup_simd_on_vs_off",
                 workload::JsonValue::Double(kernel_speedup));
    if (!WriteBenchJson(root, json_dir, "mw_simd")) return 1;
  }
  if (!identical) {
    std::printf("RESULT: FAIL (SIMD on/off hypothesis fingerprints "
                "diverged: the paths are NOT bit-identical)\n");
    return 1;
  }
  if (!gated) {
    std::printf("RESULT: RECORDED (gate applies under --simd=on)\n");
    return 0;
  }
  std::printf(kernel_speedup >= 1.3 ? "RESULT: PASS\n" : "RESULT: FAIL\n");
  return kernel_speedup >= 1.3 ? 0 : 1;
}

int Main(const Cores& cores, const std::string& json_dir) {
  data::LabeledHypercubeUniverse universe(kDim);
  // Near-uniform data: the uniform initial hypothesis is already accurate,
  // so the sparse vector answers kBottom throughout — the steady-state
  // regime where preparation is all the work there is.
  data::Histogram uniform = data::Histogram::Uniform(universe.size());
  data::Dataset dataset = data::RoundedDataset(universe, uniform, kRecords);

  // All-distinct queries: no dedup, every query costs two solves.
  losses::LipschitzFamily family(kDim);
  Rng rng(99);
  std::vector<convex::CmQuery> workload =
      family.Generate(kTotalQueries, &rng);

  std::printf(
      "bench_serve_parallel: |X|=%d, n=%d, queries=%d (all distinct), "
      "batch=%zu, cores=%u (effective %.2f)\n",
      universe.size(), kRecords, kTotalQueries, kBatchSize, cores.advertised,
      cores.effective);

  TablePrinter table({"threads", "queries/sec", "bottom", "updates"});
  std::vector<int> thread_counts = {1, 2, 4, 8};
  std::vector<double> qps;
  BenchResult baseline;
  bool transcripts_agree = true;
  workload::JsonValue sweep = workload::JsonValue::Array();
  for (int threads : thread_counts) {
    BenchResult result = RunAtThreads(dataset, workload, threads);
    if (threads == 1) baseline = result;
    transcripts_agree = transcripts_agree &&
                        result.bottom == baseline.bottom &&
                        result.updates == baseline.updates &&
                        result.errors == baseline.errors;
    qps.push_back(result.queries_per_sec);
    table.AddRow({std::to_string(threads),
                  std::to_string(result.queries_per_sec),
                  std::to_string(result.bottom),
                  std::to_string(result.updates)});
    sweep.Push(
        workload::JsonValue::Object()
            .Set("threads", workload::JsonValue::Int(threads))
            .Set("queries_per_sec",
                 workload::JsonValue::Double(result.queries_per_sec))
            .Set("bottom", workload::JsonValue::Int(result.bottom))
            .Set("updates", workload::JsonValue::Int(result.updates)));
  }
  const double cores_after = workload::MeasureEffectiveCores();
  table.Print();

  if (!transcripts_agree) {
    std::printf("RESULT: FAIL (transcript counters diverged across "
                "thread counts)\n");
    return 1;
  }

  // qps[2] is the 4-thread row.
  double speedup = qps[0] > 0.0 ? qps[2] / qps[0] : 0.0;
  std::printf("speedup at threads=4 vs threads=1: %.2fx (gate: >= 2.5x)\n",
              speedup);
  if (!json_dir.empty()) {
    workload::JsonValue root =
        workload::JsonValue::Object()
            .Set("bench", workload::JsonValue::Str("prepare_threads"))
            .Set("params",
                 workload::JsonValue::Object()
                     .Set("dim", workload::JsonValue::Int(kDim))
                     .Set("records", workload::JsonValue::Int(kRecords))
                     .Set("queries", workload::JsonValue::Int(kTotalQueries))
                     .Set("batch", workload::JsonValue::Int(
                                       static_cast<long long>(kBatchSize))))
            .Set("env", EnvJson(cores))
            .Set("sweep", std::move(sweep))
            .Set("speedup_4_vs_1", workload::JsonValue::Double(speedup));
    if (!WriteBenchJson(root, json_dir, "prepare_threads")) return 1;
  }
  if (!HadCores(cores, cores_after, ">= 2.5x")) return 0;
  std::printf(speedup >= 2.5 ? "RESULT: PASS\n" : "RESULT: FAIL\n");
  return speedup >= 2.5 ? 0 : 1;
}

}  // namespace
}  // namespace pmw

int main(int argc, char** argv) {
  // --shards=K runs only the MW-update-path phase at {1, K} (the PR 5
  // gate invocation is `--shards=4`); no argument runs the prepare phase
  // plus the MW phase on BOTH hypothesis backends (dense and exact-mode
  // sparse — separate BENCH artifacts, so the nightly trajectory tracks
  // both). --backend=dense|sparse pins the MW phase to one backend.
  // --simd=on|off runs only the SIMD on/off sweep (BENCH_mw_simd.json);
  // `on` applies the >= 1.3x kernel-loop gate, `off` records without
  // gating. --json-dir=DIR additionally records each phase's sweep as a
  // BENCH_<phase>.json artifact (the nightly perf-trajectory upload).
  int gate_shards = 0;
  std::string json_dir;
  std::string backend_flag;
  std::string simd_flag;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--shards=", 9) == 0) {
      gate_shards = std::atoi(argv[i] + 9);
      if (gate_shards < 1) {
        std::fprintf(stderr, "bad --shards value: %s\n", argv[i]);
        return 2;
      }
    } else if (std::strncmp(argv[i], "--json-dir=", 11) == 0) {
      json_dir = argv[i] + 11;
      if (json_dir.empty()) {
        std::fprintf(stderr, "bad --json-dir value: %s\n", argv[i]);
        return 2;
      }
    } else if (std::strncmp(argv[i], "--backend=", 10) == 0) {
      backend_flag = argv[i] + 10;
      if (backend_flag != "dense" && backend_flag != "sparse") {
        std::fprintf(stderr, "bad --backend value: %s\n", argv[i]);
        return 2;
      }
    } else if (std::strncmp(argv[i], "--simd=", 7) == 0) {
      simd_flag = argv[i] + 7;
      if (simd_flag != "on" && simd_flag != "off") {
        std::fprintf(stderr, "bad --simd value: %s\n", argv[i]);
        return 2;
      }
    } else {
      std::fprintf(stderr,
                   "usage: %s [--shards=K] [--backend=dense|sparse] "
                   "[--simd=on|off] [--json-dir=DIR]\n",
                   argv[0]);
      return 2;
    }
  }
  // Probed before any phase starts its pools, so nothing else competes.
  const pmw::Cores cores{std::thread::hardware_concurrency(),
                         pmw::workload::EffectiveCores()};
  const pmw::core::HypothesisBackend pinned =
      backend_flag == "sparse" ? pmw::core::HypothesisBackend::kSparse
                               : pmw::core::HypothesisBackend::kDense;
  if (!simd_flag.empty()) {
    return pmw::RunSimdPhase(simd_flag == "on", cores, json_dir);
  }
  if (gate_shards > 0) {
    return pmw::RunMwPhase(gate_shards, cores, json_dir, pinned);
  }
  const int prepare_code = pmw::Main(cores, json_dir);
  if (!backend_flag.empty()) {
    const int mw_code = pmw::RunMwPhase(0, cores, json_dir, pinned);
    return prepare_code != 0 ? prepare_code : mw_code;
  }
  const int dense_code =
      pmw::RunMwPhase(0, cores, json_dir, pmw::core::HypothesisBackend::kDense);
  const int sparse_code = pmw::RunMwPhase(
      0, cores, json_dir, pmw::core::HypothesisBackend::kSparse);
  if (prepare_code != 0) return prepare_code;
  return dense_code != 0 ? dense_code : sparse_code;
}
