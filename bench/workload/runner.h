// The scenario runner: a ScenarioSpec, driven end-to-end through the
// api front door.
//
// ScenarioHarness owns everything server-side (universe, dataset,
// catalog, api::ServerEndpoint, InProcessTransport) built from the spec
// alone; DriveTrace issues a trace's request stream through api::Client
// — closed-loop analyst threads or an open-loop Poisson issuer/reaper
// pair per analyst — and classifies every reply envelope by its typed
// error code. Run() adds the client-observed quantiles, the server-side
// queue-wait/serve split read from ServingMeta (never from frontend::
// internals), the budget view from a Stats poll, and the per-scenario
// SLO verdict; WriteBenchJson emits the BENCH_<scenario>.json artifact
// nightly CI uploads and bench/check_regression.py compares.
//
// Everything here talks to the serving stack exclusively through
// api::Client / api::ServerEndpoint — the bench tools that include this
// header stay behind the front door by construction.

#ifndef PMWCM_BENCH_WORKLOAD_RUNNER_H_
#define PMWCM_BENCH_WORKLOAD_RUNNER_H_

#include <memory>
#include <string>
#include <vector>

#include "api/catalog.h"
#include "api/endpoint.h"
#include "api/in_process_transport.h"
#include "cluster/combiner.h"
#include "cluster/worker.h"
#include "data/binary_universe.h"
#include "data/dataset.h"
#include "workload/scenario.h"
#include "workload/trace.h"

namespace pmw {
namespace workload {

/// Harness knobs that are not part of the workload itself.
struct RunOptions {
  /// Round-trip every frame through the binary codec (the socket
  /// transport's byte path, without a socket).
  bool verify_codec = false;
  /// Record the endpoint's replayable arrival log (transcript tests).
  bool record_arrival_log = false;
  uint64_t server_seed = 4321;
  api::OracleKind oracle = api::OracleKind::kNonPrivate;
};

/// What DriveTrace observed, client-side.
struct DriveResult {
  long long issued = 0;
  long long ok = 0;
  long long quota_rejected = 0;
  long long deadline_expired = 0;
  long long halted = 0;
  long long other_errors = 0;
  /// Per successful reply, in merge order (the span vectors stay
  /// parallel to latencies_ms: index i is one request everywhere).
  std::vector<double> latencies_ms;
  std::vector<double> queue_wait_us;
  std::vector<double> serve_us;
  std::vector<double> prepare_us;
  std::vector<double> solve_us;
  std::vector<double> mw_us;
  std::vector<double> commit_us;
  long long cache_hits = 0;
  long long hard_rounds = 0;
  double elapsed_s = 0.0;
};

struct ScenarioResult {
  ScenarioSpec spec;
  /// hardware_concurrency() (the baseline bucket) and the measured
  /// parallelism behind it (workload/cores.h).
  int cores = 0;
  double effective_cores = 0.0;
  int serve_threads = 0;
  int shards = 0;

  long long issued = 0;
  long long ok = 0;
  long long quota_rejected = 0;
  long long deadline_expired = 0;
  long long halted = 0;
  long long other_errors = 0;

  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double mean_ms = 0.0;
  double max_ms = 0.0;
  double queue_wait_p50_us = 0.0;
  double queue_wait_p99_us = 0.0;
  double serve_p50_us = 0.0;
  double serve_p99_us = 0.0;

  double elapsed_s = 0.0;
  /// Issued (finished, any outcome) per second vs successful per second.
  double throughput_qps = 0.0;
  double goodput_qps = 0.0;
  double cache_hit_rate = 0.0;
  long long hard_rounds = 0;

  /// The Stats-poll budget view after the run.
  double epsilon_spent = 0.0;
  double delta_spent = 0.0;
  long long hard_rounds_remaining = -1;
  uint64_t final_epoch = 0;

  /// Server-side phase attribution of the client-observed p99 latency
  /// tail, computed from the ServingMeta span fields (queue_wait,
  /// prepare, solve, mw, commit). Shares are fractions of the tail's
  /// total server-visible time (queue_wait + serve); `attributed` is
  /// what the named phases account for, `other` the remainder
  /// (dispatch overhead, sibling commits in the same batch).
  struct SpanBreakdown {
    long long tail_requests = 0;
    double threshold_ms = 0.0;
    double queue = 0.0;
    double prepare = 0.0;
    double solve = 0.0;
    double mw = 0.0;
    double commit_other = 0.0;
    double other = 0.0;
    double attributed = 0.0;
  };
  SpanBreakdown span_breakdown;

  /// The distributed-update ledger for multi-host scenarios
  /// (spec.shard_groups > 0): where the combiner's wall time went —
  /// waiting on worker replies vs the compute the workers reported for
  /// the ops themselves (the difference is transport + scheduling) —
  /// plus the RPC/recovery counters. All zero when single-process.
  struct Multihost {
    bool enabled = false;
    int shard_groups = 0;
    /// Worker addresses came from PMW_MULTIHOST_WORKERS (external
    /// pmw_shard_worker processes) rather than in-process workers.
    bool external_workers = false;
    long long rpcs = 0;
    long long rpc_failures = 0;
    long long recoveries = 0;
    long long updates_logged = 0;
    double combiner_wait_us = 0.0;
    double worker_compute_us = 0.0;
    /// Shares of the combiner's total wait: what workers actually
    /// computed vs transport + scheduling overhead.
    double worker_compute_share = 0.0;
    double transport_share = 0.0;
  };
  Multihost multihost;

  /// The endpoint registry's exposition after the run, scraped through
  /// the kMetricsRequest front door in both formats (what nightly CI
  /// uploads next to the BENCH json, and what check_regression.py reads
  /// histogram p99s from).
  std::string metrics_text;
  std::string metrics_json;

  bool slo_ok = true;
  std::vector<std::string> slo_violations;

  /// The BENCH_<scenario>.json body.
  std::string ToJson() const;
};

/// The serve-pool width a spec resolves to on this machine
/// (spec.serve_threads, or min(4, hardware cores) when 0).
int ResolveServeThreads(const ScenarioSpec& spec);

/// The api::ServerOptions a spec resolves to — exactly what
/// ScenarioHarness builds its endpoint with (`catalog_scale` is the
/// catalog's scale() bound). Exposed so transcript tests can replay a
/// recorded arrival log through sequential core::PmwCm under the same
/// mechanism options.
api::ServerOptions MakeServerOptions(const ScenarioSpec& spec,
                                     const RunOptions& options,
                                     double catalog_scale);

/// Issues `trace` through api::Client instances over `transport`,
/// honouring the spec's arrival process and batching. Blocks until every
/// reply is collected.
DriveResult DriveTrace(const ScenarioSpec& spec, const Trace& trace,
                       api::Transport* transport);

/// The full server stack for one scenario, built from the spec. Exposes
/// the endpoint/transport so tests can record arrival logs and replay
/// traces; bench tools only need Run().
class ScenarioHarness {
 public:
  ScenarioHarness(const ScenarioSpec& spec, const RunOptions& options);

  /// The spec's request stream over this harness's catalog names.
  Trace MakeTrace() const { return BuildTrace(spec_, names_); }

  /// DriveTrace + stats poll + SLO verdict.
  ScenarioResult Run(const Trace& trace);

  api::ServerEndpoint& endpoint() { return *endpoint_; }
  api::Transport& transport() { return *transport_; }
  const data::Dataset& dataset() const { return *dataset_; }
  const api::QueryCatalog& catalog() const { return catalog_; }
  const std::vector<std::string>& names() const { return names_; }
  const ScenarioSpec& spec() const { return spec_; }

 private:
  ScenarioSpec spec_;
  data::LabeledHypercubeUniverse universe_;
  std::unique_ptr<data::Dataset> dataset_;
  api::QueryCatalog catalog_;
  std::vector<std::string> names_;
  /// Multi-host fabric (spec.shard_groups > 0). Declared before the
  /// endpoint on purpose: the endpoint holds the combiner as its
  /// hypothesis delegate, so destruction must tear the endpoint down
  /// first, then the combiner, then the workers it talks to.
  std::vector<std::unique_ptr<cluster::ShardWorker>> local_workers_;
  std::unique_ptr<cluster::Combiner> combiner_;
  bool external_workers_ = false;
  std::unique_ptr<api::ServerEndpoint> endpoint_;
  std::unique_ptr<api::InProcessTransport> transport_;
};

/// Build + trace + run, in one call.
ScenarioResult RunScenario(const ScenarioSpec& spec,
                           const RunOptions& options);

/// Writes result.ToJson() to <dir>/BENCH_<scenario>.json.
Status WriteBenchJson(const ScenarioResult& result, const std::string& dir);

/// Writes the scraped expositions to <dir>/METRICS_<scenario>.txt
/// (Prometheus text) and <dir>/METRICS_<scenario>.json (ordered JSON).
Status WriteMetricsDumps(const ScenarioResult& result,
                         const std::string& dir);

}  // namespace workload
}  // namespace pmw

#endif  // PMWCM_BENCH_WORKLOAD_RUNNER_H_
