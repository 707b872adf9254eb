#include "workload/trace.h"

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/check.h"
#include "workload/generator.h"

namespace pmw {
namespace workload {
namespace {

constexpr char kHeader[] = "# pmw-workload-trace v1";

/// Key choice per event: the base popularity stream (zipfian; theta = 0
/// is exact uniform) with the optional hot-set churn overlay. The base
/// generator only advances on non-hot events, and the overlay engine
/// draws exactly two words per hot event, so the schedule is a stable
/// function of the event index sequence.
class KeyPicker {
 public:
  KeyPicker(const ScenarioSpec& spec, int num_keys, uint64_t pop_seed,
            uint64_t hot_seed)
      : spec_(spec),
        num_keys_(num_keys),
        base_(num_keys,
              spec.popularity == ScenarioSpec::Popularity::kZipfian
                  ? spec.zipf_theta
                  : 0.0,
              pop_seed),
        hot_engine_(hot_seed) {}

  int Pick(long long event_index) {
    if (spec_.hot_keys > 0 &&
        CanonicalUniform(hot_engine_) < spec_.hot_fraction) {
      const long long epoch =
          spec_.churn_every > 0 ? event_index / spec_.churn_every : 0;
      const int slot =
          static_cast<int>(hot_engine_() % static_cast<uint64_t>(
                                               spec_.hot_keys));
      return static_cast<int>((epoch * spec_.hot_keys + slot) %
                              num_keys_);
    }
    return base_.Next();
  }

 private:
  const ScenarioSpec& spec_;
  int num_keys_;
  ZipfianGenerator base_;
  std::mt19937_64 hot_engine_;
};

}  // namespace

Trace BuildTrace(const ScenarioSpec& spec,
                 const std::vector<std::string>& names) {
  PMW_CHECK(!names.empty());
  PMW_CHECK_GE(spec.analysts, 1);
  Trace trace;
  trace.scenario = spec.name;
  trace.seed = spec.seed;

  // One root engine deals the sub-seeds, always in the same order, so
  // toggling a feature (say, churn) never shifts the other streams.
  std::mt19937_64 root(spec.seed);
  const uint64_t pop_seed = root();
  const uint64_t arrival_seed = root();
  const uint64_t hot_seed = root();

  KeyPicker picker(spec, static_cast<int>(names.size()), pop_seed,
                   hot_seed);
  PoissonArrivals arrivals(
      spec.arrival == ScenarioSpec::Arrival::kOpenLoopPoisson
          ? spec.open_loop_qps
          : 1.0,
      arrival_seed);

  const long long total = spec.total_events();
  trace.events.reserve(static_cast<size_t>(total));
  for (long long i = 0; i < total; ++i) {
    TraceEvent event;
    if (spec.arrival == ScenarioSpec::Arrival::kOpenLoopPoisson) {
      event.arrival_us = arrivals.NextArrivalUs();
    }
    event.analyst = static_cast<uint32_t>(i % spec.analysts);
    event.deadline_us = spec.deadline_us;
    event.query_name = names[static_cast<size_t>(picker.Pick(i))];
    trace.events.push_back(std::move(event));
  }
  return trace;
}

std::string FormatTrace(const Trace& trace) {
  std::string out;
  out += kHeader;
  out += '\n';
  out += "scenario " + trace.scenario + '\n';
  out += "seed " + std::to_string(trace.seed) + '\n';
  out += "events " + std::to_string(trace.events.size()) + '\n';
  char line[128];
  for (const TraceEvent& event : trace.events) {
    std::snprintf(line, sizeof(line), "%" PRIu64 " %u %" PRIu64 " ",
                  event.arrival_us, event.analyst, event.deadline_us);
    out += line;
    out += event.query_name;
    out += '\n';
  }
  return out;
}

Result<Trace> ParseTrace(std::string_view text) {
  std::istringstream in{std::string(text)};
  std::string line;
  if (!std::getline(in, line) || line != kHeader) {
    return Status(StatusCode::kMalformedRequest,
                  "trace: missing header '" + std::string(kHeader) + "'");
  }
  Trace trace;
  size_t count = 0;
  {
    std::string key;
    if (!std::getline(in, line)) {
      return Status(StatusCode::kMalformedRequest,
                    "trace: truncated preamble");
    }
    std::istringstream fields(line);
    if (!(fields >> key >> trace.scenario) || key != "scenario") {
      return Status(StatusCode::kMalformedRequest,
                    "trace: expected 'scenario <name>'");
    }
  }
  {
    std::string key;
    if (!std::getline(in, line)) {
      return Status(StatusCode::kMalformedRequest,
                    "trace: truncated preamble");
    }
    std::istringstream fields(line);
    if (!(fields >> key >> trace.seed) || key != "seed") {
      return Status(StatusCode::kMalformedRequest,
                    "trace: expected 'seed <n>'");
    }
  }
  {
    std::string key;
    if (!std::getline(in, line)) {
      return Status(StatusCode::kMalformedRequest,
                    "trace: truncated preamble");
    }
    std::istringstream fields(line);
    if (!(fields >> key >> count) || key != "events") {
      return Status(StatusCode::kMalformedRequest,
                    "trace: expected 'events <n>'");
    }
  }
  trace.events.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    if (!std::getline(in, line)) {
      return Status(StatusCode::kMalformedRequest,
                    "trace: expected " + std::to_string(count) +
                        " events, got " + std::to_string(i));
    }
    TraceEvent event;
    std::istringstream fields(line);
    if (!(fields >> event.arrival_us >> event.analyst >>
          event.deadline_us >> event.query_name)) {
      return Status(StatusCode::kMalformedRequest,
                    "trace: malformed event line " + std::to_string(i) +
                        ": '" + line + "'");
    }
    trace.events.push_back(std::move(event));
  }
  return trace;
}

Status WriteTraceFile(const Trace& trace, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    return Status::Internal("trace: cannot open '" + path +
                            "' for writing");
  }
  const std::string text = FormatTrace(trace);
  out.write(text.data(), static_cast<std::streamsize>(text.size()));
  out.flush();
  if (!out) {
    return Status::Internal("trace: short write to '" + path + "'");
  }
  return Status::Ok();
}

Result<Trace> ReadTraceFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status(StatusCode::kMalformedRequest,
                  "trace: cannot open '" + path + "'");
  }
  std::ostringstream text;
  text << in.rdbuf();
  return ParseTrace(text.str());
}

}  // namespace workload
}  // namespace pmw
