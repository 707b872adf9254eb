// The benchmark's workloads: each one a server shape, a mechanism
// configuration and a traffic mix, all pinned here. Nothing is derived
// from the machine (no hardware_concurrency): the same name and seed
// build the same server and the same request stream everywhere.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "workload/scenario.h"
#include "workload/trace.h"

namespace pmw {
namespace perfbench {

/// How the load generator issues a trace.
enum class Drive {
  /// Poisson arrivals on a schedule over `spec.analysts` connections;
  /// latency counts from each request's scheduled send time.
  kOpenLoop,
  /// One analyst on one connection keeps `window` requests in flight;
  /// arrival order, and with it the transcript, is the send order.
  kWindow,
  /// `spec.analysts` analysts, one connection each, one request at a
  /// time.
  kClosedLoop,
};

struct Workload {
  std::string name;
  /// Server shape, mechanism knobs, key popularity. `spec.analysts` is
  /// the connection count; `spec.seed` seeds the catalog (the run's seed
  /// seeds the request stream and the server).
  workload::ScenarioSpec spec;
  Drive drive = Drive::kClosedLoop;
  /// kWindow: requests in flight on the one connection.
  int window = 1;
  /// kOpenLoop: the rate the end-to-end metrics are measured at, and
  /// the ladder load.max_rate_qps is read from (ascending).
  double nominal_qps = 0.0;
  std::vector<double> ladder_qps;
  /// The p99 bound (ms, from scheduled send) a ladder step must meet.
  double p99_limit_ms = 0.0;
  /// kOpenLoop: seconds per ladder step.
  double ladder_step_s = 0.0;
  /// True when answers are checked in send order against a sequential
  /// replay (hard rounds fire); false when every answer must be the
  /// hypothesis's own answer for its query name (no hard rounds).
  bool ordered_check = false;
};

const std::vector<Workload>& Workloads();
/// Null when no workload has that name.
const Workload* FindWorkload(const std::string& name);

/// The run's server seed: the mechanism's noise stream, derived from the
/// command-line seed.
uint64_t ServerSeed(uint64_t seed);

/// The request stream one repetition issues: a pure function of
/// (workload, seed, catalog names, rate). `qps` and `seconds` size
/// open-loop traces and are ignored otherwise.
workload::Trace MakeTrace(const Workload& workload, uint64_t seed,
                          const std::vector<std::string>& names,
                          double qps = 0.0, double seconds = 0.0);

}  // namespace perfbench
}  // namespace pmw

#endif  // PERFBENCH_WORKLOADS_H_
