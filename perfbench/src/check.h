// The output check: served answers must be bit-identical to a
// sequential core::PmwCm under the same seed and oracle type.
//
// * Ordered (hard rounds fire; one connection, so send order is arrival
//   order): answer i and its hard-round flag must equal the replay's
//   i-th, and the final ledger (eps, delta) must equal the replay's.
// * By name (no hard rounds): every answer must equal the replay's answer
//   for its query name, and no reply — served or replayed — may report a
//   hard round.
//
// A check never passes vacuously: a run with no answers, a missing
// reply, an error envelope or a single differing bit fails it.

#ifndef PERFBENCH_CHECK_H_
#define PERFBENCH_CHECK_H_

#include <map>
#include <string>
#include <vector>

#include "api/catalog.h"
#include "api/endpoint.h"
#include "data/dataset.h"
#include "instruments.h"
#include "load.h"
#include "workload/trace.h"

namespace pmw {
namespace perfbench {

/// The sequential transcript.
struct Reference {
  /// Ordered: one entry per replayed query, in replay order.
  std::vector<std::vector<double>> answers;
  std::vector<bool> hard_rounds;
  double epsilon = 0.0;
  double delta = 0.0;
  /// By name: the answer for each replayed name.
  std::map<std::string, std::vector<double>> by_name;
};

/// Replays `names` in order through a sequential core::PmwCm built from
/// the server's mechanism options and seed, with a fresh NoisyGradient
/// oracle, decomposed as SnapshotHypothesis / Prepare / AnswerPrepared.
/// `recorder` non-null records "replay.query" spans with "core.snapshot",
/// "convex.prepare" and "core.commit" (which nests "erm.solve") under
/// them. Fails (returns false, `*error` set) when the mechanism rejects a
/// query.
bool Replay(const data::Dataset& dataset, const api::QueryCatalog& catalog,
            const api::ServerOptions& options, uint64_t server_seed,
            const std::vector<std::string>& names, SpanRecorder* recorder,
            Reference* reference, std::string* error);

struct Verdict {
  long long attempted = 0;
  /// Missing replies, error envelopes, and answers that differ.
  long long failed = 0;
  long long answers = 0;
  bool ok = false;
  /// The first problem found (empty when ok).
  std::string problem;
};

/// `epsilon`/`delta` are the server's final ledger totals (Stats RPC).
Verdict CheckOrdered(const Reference& reference, const workload::Trace& trace,
                     const std::vector<Observation>& observations,
                     double epsilon, double delta);

Verdict CheckByName(const Reference& reference, const workload::Trace& trace,
                    const std::vector<Observation>& observations);

/// Distinct query names in first-appearance order.
std::vector<std::string> DistinctNames(const workload::Trace& trace);
/// Every query name, in trace order.
std::vector<std::string> AllNames(const workload::Trace& trace);

}  // namespace perfbench
}  // namespace pmw

#endif  // PERFBENCH_CHECK_H_
