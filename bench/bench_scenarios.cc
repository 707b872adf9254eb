// The unified scenario runner: drives the canonical workload matrix
// (bench/workload/scenario.cc) through api::Client / api::ServerEndpoint
// and emits one BENCH_<scenario>.json artifact per scenario — scenario
// params, environment (cores/threads/shards), client-observed p50/p99,
// throughput and goodput, the server-side queue-wait/serve split read
// from ServingMeta, cache hit rate, and the privacy budget spent.
//
// Exit status is the SLO verdict: 0 when every scenario met its
// objectives, 1 otherwise (nightly CI fails on it). All traffic goes
// through the api front door — this file includes workload/ headers
// only, and the workload runner itself talks exclusively to
// api::Client / api::ServerEndpoint.
//
//   bench_scenarios [--out-dir=DIR] [--scenario=NAME] [--verify-codec]
//                   [--record-trace=DIR] [--list]
//
// --record-trace writes each scenario's expanded request stream as a
// replayable trace file (workload/trace.h) next to the json artifacts.
// Both directories are created before the first scenario runs; if that
// fails the run exits 2 having run nothing.

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <system_error>
#include <vector>

#include "workload/runner.h"
#include "workload/scenario.h"
#include "workload/trace.h"

namespace pmw {
namespace {

struct Args {
  std::string out_dir = ".";
  std::string only_scenario;
  std::string trace_dir;
  bool verify_codec = false;
  bool list = false;
  bool ok = true;
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--out-dir=", 0) == 0) {
      args.out_dir = arg.substr(std::strlen("--out-dir="));
    } else if (arg.rfind("--scenario=", 0) == 0) {
      args.only_scenario = arg.substr(std::strlen("--scenario="));
    } else if (arg.rfind("--record-trace=", 0) == 0) {
      args.trace_dir = arg.substr(std::strlen("--record-trace="));
    } else if (arg == "--verify-codec") {
      args.verify_codec = true;
    } else if (arg == "--list") {
      args.list = true;
    } else {
      std::fprintf(stderr, "bench_scenarios: unknown flag '%s'\n",
                   arg.c_str());
      args.ok = false;
    }
  }
  return args;
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  if (!args.ok) return 2;

  std::vector<workload::ScenarioSpec> scenarios =
      workload::StandardScenarios();
  if (args.list) {
    for (const workload::ScenarioSpec& spec : scenarios) {
      std::printf("%s\n", spec.name.c_str());
    }
    return 0;
  }
  if (!args.only_scenario.empty()) {
    workload::ScenarioSpec spec;
    if (!workload::FindStandardScenario(args.only_scenario, &spec)) {
      std::fprintf(stderr, "bench_scenarios: unknown scenario '%s'\n",
                   args.only_scenario.c_str());
      return 2;
    }
    scenarios = {spec};
  }

  for (const std::string& dir : {args.out_dir, args.trace_dir}) {
    std::error_code error;
    if (!dir.empty()) std::filesystem::create_directories(dir, error);
    if (error) {
      std::fprintf(stderr, "bench_scenarios: cannot create '%s': %s\n",
                   dir.c_str(), error.message().c_str());
      return 2;
    }
  }

  workload::RunOptions options;
  options.verify_codec = args.verify_codec;

  bool all_ok = true;
  std::printf(
      "%-26s %10s %10s %10s %10s %8s %8s  %s\n", "scenario", "p50_ms",
      "p99_ms", "goodput", "hit_rate", "ok", "rej", "slo");
  for (const workload::ScenarioSpec& spec : scenarios) {
    workload::ScenarioHarness harness(spec, options);
    const workload::Trace trace = harness.MakeTrace();
    if (!args.trace_dir.empty()) {
      const Status written = workload::WriteTraceFile(
          trace, args.trace_dir + "/TRACE_" + spec.name + ".txt");
      if (!written.ok()) {
        std::fprintf(stderr, "bench_scenarios: %s\n",
                     written.ToString().c_str());
        return 2;
      }
    }
    const workload::ScenarioResult result = harness.Run(trace);
    const Status wrote = workload::WriteBenchJson(result, args.out_dir);
    if (!wrote.ok()) {
      std::fprintf(stderr, "bench_scenarios: %s\n",
                   wrote.ToString().c_str());
      return 2;
    }
    const Status scraped =
        workload::WriteMetricsDumps(result, args.out_dir);
    if (!scraped.ok()) {
      std::fprintf(stderr, "bench_scenarios: %s\n",
                   scraped.ToString().c_str());
      return 2;
    }
    const long long rejections = result.quota_rejected +
                                 result.deadline_expired + result.halted;
    std::printf("%-26s %10.3f %10.3f %10.1f %10.3f %8lld %8lld  %s\n",
                spec.name.c_str(), result.p50_ms, result.p99_ms,
                result.goodput_qps, result.cache_hit_rate, result.ok,
                rejections, result.slo_ok ? "PASS" : "FAIL");
    const workload::ScenarioResult::SpanBreakdown& tail =
        result.span_breakdown;
    if (tail.tail_requests > 0) {
      std::printf(
          "  p99 tail (%lld req >= %.3f ms): queue %.0f%% prepare %.0f%% "
          "solve %.0f%% mw %.0f%% commit %.0f%% other %.0f%% "
          "(attributed %.0f%%)\n",
          tail.tail_requests, tail.threshold_ms, 100.0 * tail.queue,
          100.0 * tail.prepare, 100.0 * tail.solve, 100.0 * tail.mw,
          100.0 * tail.commit_other, 100.0 * tail.other,
          100.0 * tail.attributed);
    }
    for (const std::string& violation : result.slo_violations) {
      std::printf("  SLO violation: %s\n", violation.c_str());
    }
    all_ok = all_ok && result.slo_ok;
  }
  std::printf(all_ok ? "RESULT: PASS\n" : "RESULT: FAIL (SLO breach)\n");
  return all_ok ? 0 : 1;
}

}  // namespace
}  // namespace pmw

int main(int argc, char** argv) { return pmw::Main(argc, argv); }
