// Workload traces: a scenario, flattened to a replayable artifact.
//
// BuildTrace expands a ScenarioSpec against a catalog's name list into
// the exact request stream a run will issue — per-event arrival offset,
// analyst, query name, deadline. The expansion is a pure function of
// (spec, names): platform-deterministic generators (workload/generator.h)
// mean the same spec always yields byte-identical traces, so a trace can
// be checked in, replayed through api::ServerEndpoint, and compared
// against sequential core::PmwCm bit-for-bit (tests/workload_test.cc).
//
// The text format is line-based and integer-only (microsecond offsets,
// no doubles), so files diff cleanly and golden comparisons are exact:
//
//   # pmw-workload-trace v1
//   scenario <name>
//   seed <seed>
//   events <count>
//   <arrival_us> <analyst> <deadline_us> <query_name>
//   ...

#ifndef PMWCM_BENCH_WORKLOAD_TRACE_H_
#define PMWCM_BENCH_WORKLOAD_TRACE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "workload/scenario.h"

namespace pmw {
namespace workload {

struct TraceEvent {
  /// Offset from the run's start, microseconds; 0 for closed-loop
  /// events (issue as fast as the loop allows).
  uint64_t arrival_us = 0;
  /// Which analyst issues the event (0-based).
  uint32_t analyst = 0;
  /// Relative server-side deadline; 0 = none.
  uint64_t deadline_us = 0;
  std::string query_name;

  bool operator==(const TraceEvent&) const = default;
};

struct Trace {
  std::string scenario;
  uint64_t seed = 0;
  std::vector<TraceEvent> events;

  bool operator==(const Trace&) const = default;
};

/// Expands the spec into its request stream over the given catalog
/// names. Events are in issue order: analysts round-robin, arrival
/// offsets non-decreasing (identically 0 for closed loop).
Trace BuildTrace(const ScenarioSpec& spec,
                 const std::vector<std::string>& names);

/// Serializes to / parses from the text format above. Format followed by
/// Parse is the identity; Parse rejects malformed input with
/// kMalformedRequest.
std::string FormatTrace(const Trace& trace);
Result<Trace> ParseTrace(std::string_view text);

/// File convenience wrappers over Format/Parse.
Status WriteTraceFile(const Trace& trace, const std::string& path);
Result<Trace> ReadTraceFile(const std::string& path);

}  // namespace workload
}  // namespace pmw

#endif  // PMWCM_BENCH_WORKLOAD_TRACE_H_
