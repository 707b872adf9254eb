// The load generator: issues one trace through api::Client over a
// stack's socket connections and records every reply. At most four
// client threads, one connection per analyst.

#ifndef PERFBENCH_LOAD_H_
#define PERFBENCH_LOAD_H_

#include <vector>

#include "api/envelope.h"
#include "instruments.h"
#include "stack.h"
#include "workload/trace.h"
#include "workloads.h"

namespace pmw {
namespace perfbench {

struct Observation {
  bool done = false;
  api::AnswerEnvelope reply;
  /// Client-observed: from the scheduled send time (open loop) or the
  /// send (closed loops) to the reply.
  double latency_ms = 0.0;
  /// Open loop: how late the generator sent it (0 for closed loops).
  double late_ms = 0.0;
};

struct DriveResult {
  /// Indexed like trace.events.
  std::vector<Observation> observations;
  /// From the first (scheduled) send to the last reply.
  double elapsed_s = 0.0;
};

/// `recorder` non-null opens a "load.request" span per request (the
/// stack's timing transport nests "api.rtt" under it).
DriveResult DriveTrace(const Workload& workload, const workload::Trace& trace,
                       Stack* stack, SpanRecorder* recorder);

}  // namespace perfbench
}  // namespace pmw

#endif  // PERFBENCH_LOAD_H_
