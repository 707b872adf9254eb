#include "check.h"

#include <cstring>
#include <set>

#include "core/pmw_cm.h"
#include "erm/noisy_gradient_oracle.h"

namespace pmw {
namespace perfbench {
namespace {

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// Counts one failed request, keeping the first reason.
void Fail(Verdict* verdict, const std::string& why) {
  ++verdict->failed;
  if (verdict->problem.empty()) verdict->problem = why;
}

/// Shared per-reply screening: missing or error replies fail; returns
/// true when the reply carries an answer worth comparing.
bool Screen(const Observation& obs, size_t i, Verdict* verdict) {
  if (!obs.done) {
    Fail(verdict, "request " + std::to_string(i) + ": no reply");
    return false;
  }
  if (!obs.reply.ok()) {
    Fail(verdict, "request " + std::to_string(i) + ": " +
                      obs.reply.status().ToString());
    return false;
  }
  ++verdict->answers;
  return true;
}

void Finish(Verdict* verdict) {
  if (verdict->answers == 0 && verdict->problem.empty()) {
    verdict->problem = "no answers to check";
  }
  verdict->ok = verdict->failed == 0 && verdict->answers > 0 &&
                verdict->problem.empty();
}

}  // namespace

bool Replay(const data::Dataset& dataset, const api::QueryCatalog& catalog,
            const api::ServerOptions& options, uint64_t server_seed,
            const std::vector<std::string>& names, SpanRecorder* recorder,
            Reference* reference, std::string* error) {
  erm::NoisyGradientOracle plain;
  TimingOracle timed(&plain, recorder);
  erm::Oracle* oracle = recorder != nullptr ? static_cast<erm::Oracle*>(&timed)
                                            : &plain;
  core::PmwCm cm(&dataset, oracle, options.mechanism, server_seed);
  // The server's storage layout, run inline: sharding and the exact
  // sparse backend never change a bit, and mirroring them keeps the
  // replay's cost comparable to the server's.
  cm.ConfigureSharding(options.serve.num_shards, nullptr,
                       options.serve.hypothesis_backend, options.serve.sparse);
  core::HypothesisSnapshot snapshot;
  bool have_snapshot = false;
  for (size_t i = 0; i < names.size(); ++i) {
    const convex::CmQuery* query = catalog.Find(names[i]);
    if (query == nullptr) {
      *error = "replay: unknown query " + names[i];
      return false;
    }
    ScopedSpan span(recorder, "replay.query", i + 1);
    if (!have_snapshot || snapshot.version != cm.hypothesis_version()) {
      ScopedSpan snap(recorder, "core.snapshot");
      snapshot = cm.SnapshotHypothesis();
      have_snapshot = true;
    }
    core::PreparedQuery plan;
    {
      ScopedSpan prepare(recorder, "convex.prepare");
      plan = cm.Prepare(*query, snapshot);
    }
    Result<core::PmwAnswer> answer = [&] {
      ScopedSpan commit(recorder, "core.commit");
      return cm.AnswerPrepared(*query, plan, &snapshot);
    }();
    if (!answer.ok()) {
      *error = "replay: query " + std::to_string(i) + " (" + names[i] +
               "): " + answer.status().ToString();
      return false;
    }
    reference->answers.push_back(answer.value().theta);
    reference->hard_rounds.push_back(answer.value().was_update);
    reference->by_name.emplace(names[i], answer.value().theta);
  }
  const dp::PrivacyParams spent = cm.ledger().BasicTotal();
  reference->epsilon = spent.epsilon;
  reference->delta = spent.delta;
  return true;
}

Verdict CheckOrdered(const Reference& reference, const workload::Trace& trace,
                     const std::vector<Observation>& observations,
                     double epsilon, double delta) {
  Verdict verdict;
  verdict.attempted = static_cast<long long>(trace.events.size());
  if (observations.size() != trace.events.size() ||
      reference.answers.size() != trace.events.size()) {
    verdict.problem = "transcript length: trace " +
                      std::to_string(trace.events.size()) + ", replies " +
                      std::to_string(observations.size()) + ", replay " +
                      std::to_string(reference.answers.size());
    verdict.failed = verdict.attempted;
    Finish(&verdict);
    return verdict;
  }
  for (size_t i = 0; i < observations.size(); ++i) {
    const Observation& obs = observations[i];
    if (!Screen(obs, i, &verdict)) continue;
    if (!SameBits(obs.reply.answer, reference.answers[i])) {
      Fail(&verdict, "request " + std::to_string(i) + ": answer differs");
    } else if (obs.reply.meta.hard_round != reference.hard_rounds[i]) {
      Fail(&verdict, "request " + std::to_string(i) + ": hard-round flag differs");
    }
  }
  if (!SameBits(epsilon, reference.epsilon) ||
      !SameBits(delta, reference.delta)) {
    if (verdict.problem.empty()) verdict.problem = "final ledger differs";
  }
  Finish(&verdict);
  return verdict;
}

Verdict CheckByName(const Reference& reference, const workload::Trace& trace,
                    const std::vector<Observation>& observations) {
  Verdict verdict;
  verdict.attempted = static_cast<long long>(trace.events.size());
  for (size_t i = 0; i < reference.hard_rounds.size(); ++i) {
    if (reference.hard_rounds[i] && verdict.problem.empty()) {
      verdict.problem = "replay fired a hard round at query " +
                        std::to_string(i);
    }
  }
  if (observations.size() != trace.events.size()) {
    Fail(&verdict, "replies " + std::to_string(observations.size()) +
                       " for " + std::to_string(trace.events.size()) +
                       " requests");
  }
  for (size_t i = 0; i < observations.size() && i < trace.events.size(); ++i) {
    const Observation& obs = observations[i];
    if (!Screen(obs, i, &verdict)) continue;
    auto want = reference.by_name.find(trace.events[i].query_name);
    if (want == reference.by_name.end()) {
      Fail(&verdict, "request " + std::to_string(i) + ": name not replayed");
    } else if (obs.reply.meta.hard_round) {
      Fail(&verdict, "request " + std::to_string(i) + ": hard round");
    } else if (!SameBits(obs.reply.answer, want->second)) {
      Fail(&verdict, "request " + std::to_string(i) + ": answer differs");
    }
  }
  Finish(&verdict);
  return verdict;
}

std::vector<std::string> DistinctNames(const workload::Trace& trace) {
  std::vector<std::string> names;
  std::set<std::string> seen;
  for (const workload::TraceEvent& event : trace.events) {
    if (seen.insert(event.query_name).second) names.push_back(event.query_name);
  }
  return names;
}

std::vector<std::string> AllNames(const workload::Trace& trace) {
  std::vector<std::string> names;
  names.reserve(trace.events.size());
  for (const workload::TraceEvent& event : trace.events) {
    names.push_back(event.query_name);
  }
  return names;
}

}  // namespace perfbench
}  // namespace pmw
