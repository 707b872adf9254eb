// pmw_perfbench: one workload, one seed, one run.
//
//   pmw_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                 [--socket-dir DIR] [--spans-dir DIR]
//
// --trace 0 measures the end-to-end metrics with no instrumentation.
// --trace 1 runs the same untraced pass, then a traced pass (timing
// decorators on, plus a timed sequential replay) and prints the
// per-layer metrics; the end-to-end figures of the traced pass only
// serve trace.overhead_frac. Every pass is checked against the
// sequential replay. The last stdout line is the result object; the line
// before it records the environment and run details.

#include <sys/resource.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "api/client.h"
#include "api/codec.h"
#include "check.h"
#include "env.h"
#include "instruments.h"
#include "load.h"
#include "report.h"
#include "stack.h"
#include "workloads.h"

namespace pmw {
namespace perfbench {
namespace {

/// Set-up samples per pass; passes with fewer repetitions build and tear
/// down extra stacks so setup_s is always a median of this many.
constexpr int kMinSetups = 5;
/// Answers per pass at least, so p99 has ten samples beyond it.
constexpr size_t kMinAnswers = 1000;
/// Open loop: p99_ms is the median of the p99s of consecutive blocks of
/// this many requests, so one external stall moves one block, not the run.
constexpr size_t kP99Block = 1000;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string socket_dir = ".bench_build";
  std::string spans_dir = ".bench_build";
};

/// One repetition: a fresh stack, one trace, what the server reported.
struct Rep {
  /// Seeds this repetition's request stream and server.
  uint64_t seed = 0;
  workload::Trace trace;
  DriveResult drive;
  double epsilon = 0.0;
  double delta = 0.0;
  std::map<std::string, double> scrape;
  cluster::CombinerStats combiner;
};

struct Pass {
  std::vector<Rep> reps;
  std::vector<SetupTimes> setups;
  /// The last repetition's stack, kept for the replay (idle).
  std::unique_ptr<Stack> stack;
};

std::string SocketPath(const Args& args) {
  static std::atomic<int> counter{0};
  return args.socket_dir + "/pb-" + std::to_string(::getpid()) + "-" +
         std::to_string(counter++) + ".sock";
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Repetition r of a run with seed s uses seed s + 1000000 r: every
/// repetition is a different transcript, so a run averages over several
/// and its figures depend less on one seed's hard-round count.
uint64_t RepSeed(uint64_t seed, size_t rep) { return seed + 1000000 * rep; }

/// Builds a stack and drives one trace through it.
Rep RunRep(const Workload& w, const Args& args, uint64_t seed,
           SpanRecorder* recorder, double qps, double seconds, Pass* pass) {
  pass->stack.reset();
  pass->stack = std::make_unique<Stack>(w, seed, recorder, SocketPath(args));
  Stack& stack = *pass->stack;
  pass->setups.push_back(stack.times());
  Rep rep;
  rep.seed = seed;
  rep.trace = MakeTrace(w, seed, stack.catalog().names(), qps, seconds);
  rep.drive = DriveTrace(w, rep.trace, &stack, recorder);
  std::cerr << "perfbench: " << w.name << " drove " << rep.trace.events.size()
            << " requests in " << rep.drive.elapsed_s << " s (setup "
            << stack.times().total_s << " s)\n";
  api::Client admin(stack.transport(0), "perfbench-admin");
  const api::AnswerEnvelope stats = admin.Stats();
  rep.epsilon = stats.meta.epsilon_spent;
  rep.delta = stats.meta.delta_spent;
  rep.scrape = ParseExposition(admin.Metrics(api::kMetricsFormatText).message);
  if (stack.combiner() != nullptr) rep.combiner = stack.combiner()->stats();
  return rep;
}

/// Repetitions until kMinAnswers requests were sent, then more while
/// another one is expected to fit in `seconds` of driving (open loop: one
/// trace that long).
Pass RunPass(const Workload& w, const Args& args, SpanRecorder* recorder) {
  Pass pass;
  double driven_s = 0.0;
  double rep_s = 0.0;
  size_t sent = 0;
  do {
    pass.reps.push_back(RunRep(w, args, RepSeed(args.seed, pass.reps.size()),
                               recorder, w.nominal_qps, args.seconds, &pass));
    rep_s = pass.reps.back().drive.elapsed_s;
    driven_s += rep_s;
    sent += pass.reps.back().trace.events.size();
  } while (w.drive != Drive::kOpenLoop &&
           (sent < kMinAnswers || driven_s + rep_s <= args.seconds));
  std::unique_ptr<Stack> keep = std::move(pass.stack);
  while (static_cast<int>(pass.setups.size()) < kMinSetups) {
    Stack extra(w, args.seed, recorder, SocketPath(args));
    pass.setups.push_back(extra.times());
  }
  pass.stack = std::move(keep);
  return pass;
}

/// Checks repetitions against sequential replays, replaying each
/// reference once: per repetition seed when answers are checked in order,
/// once over every name any repetition sent when checked by name.
class Checker {
 public:
  Checker(const Workload& w, const Stack& stack, uint64_t seed,
          std::vector<std::string> by_name)
      : w_(w), stack_(stack), seed_(seed), by_name_(std::move(by_name)) {}

  /// `recorder` times the replay if this repetition needs a new one.
  Verdict Check(const Rep& rep, SpanRecorder* recorder) {
    const uint64_t key = w_.ordered_check ? rep.seed : seed_;
    auto it = references_.find(key);
    if (it == references_.end()) {
      const std::vector<std::string> names =
          w_.ordered_check ? AllNames(rep.trace) : by_name_;
      Reference reference;
      std::string error;
      const Clock::time_point start = Clock::now();
      if (!Replay(stack_.dataset(), stack_.catalog(), stack_.options(),
                  ServerSeed(key), names, recorder, &reference, &error)) {
        Verdict failed;
        failed.attempted = static_cast<long long>(rep.trace.events.size());
        failed.failed = failed.attempted;
        failed.problem = error;
        return failed;
      }
      std::cerr << "perfbench: replayed " << names.size() << " queries in "
                << std::chrono::duration<double>(Clock::now() - start).count()
                << " s\n";
      it = references_.emplace(key, std::move(reference)).first;
    }
    if (w_.ordered_check) {
      return CheckOrdered(it->second, rep.trace, rep.drive.observations,
                          rep.epsilon, rep.delta);
    }
    return CheckByName(it->second, rep.trace, rep.drive.observations);
  }

 private:
  const Workload& w_;
  const Stack& stack_;
  const uint64_t seed_;
  const std::vector<std::string> by_name_;
  std::map<uint64_t, Reference> references_;
};

/// Folds per-repetition verdicts into one.
void Accumulate(const Verdict& v, Verdict* total) {
  total->attempted += v.attempted;
  total->failed += v.failed;
  total->answers += v.answers;
  if (!v.ok && total->problem.empty()) total->problem = v.problem;
}

std::vector<double> OkLatencies(const Pass& pass) {
  std::vector<double> out;
  for (const Rep& rep : pass.reps) {
    for (const Observation& obs : rep.drive.observations) {
      if (obs.done && obs.reply.ok()) out.push_back(obs.latency_ms);
    }
  }
  return out;
}

/// Per successful reply: a ServingMeta-derived value.
template <typename Fn>
std::vector<double> MetaValues(const Pass& pass, Fn fn) {
  std::vector<double> out;
  for (const Rep& rep : pass.reps) {
    for (const Observation& obs : rep.drive.observations) {
      if (obs.done && obs.reply.ok()) out.push_back(fn(obs.reply.meta));
    }
  }
  return out;
}

double Goodput(const Pass& pass) {
  double ok = 0.0, seconds = 0.0;
  for (const Rep& rep : pass.reps) {
    for (const Observation& obs : rep.drive.observations) {
      if (obs.done && obs.reply.ok()) ok += 1.0;
    }
    seconds += rep.drive.elapsed_s;
  }
  return seconds > 0.0 ? ok / seconds : 0.0;
}

/// Sum of a scraped instrument over the pass's repetitions.
double ScrapeSum(const Pass& pass, const std::string& name) {
  double total = 0.0;
  for (const Rep& rep : pass.reps) {
    auto it = rep.scrape.find(name);
    if (it != rep.scrape.end()) total += it->second;
  }
  return total;
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

struct Ladder {
  double max_rate_qps = 0.0;
  std::string steps;  // "rate:p99_ms:ok" per step, for the report line
};

/// Open-loop rate ladder (untraced): the highest rate at which p99 (from
/// scheduled send) stays under the workload's limit and goodput keeps up
/// with the offered rate (no growing backlog). Stops at the first
/// failing step.
Ladder RunLadder(const Workload& w, const Args& args, std::vector<Rep>* reps) {
  Ladder ladder;
  for (double qps : w.ladder_qps) {
    Pass pass;
    pass.reps.push_back(
        RunRep(w, args, args.seed, nullptr, qps, w.ladder_step_s, &pass));
    const double p99 = Quantile(OkLatencies(pass), 0.99);
    const double goodput = Goodput(pass);
    const bool ok = p99 <= w.p99_limit_ms && goodput >= 0.9 * qps;
    char step[96];
    std::snprintf(step, sizeof(step), "%s%.0f:%.3f:%d",
                  ladder.steps.empty() ? "" : " ", qps, p99, ok ? 1 : 0);
    ladder.steps += step;
    reps->push_back(std::move(pass.reps.back()));
    if (!ok) break;
    ladder.max_rate_qps = qps;
  }
  return ladder;
}

/// Encode/decode cost of the run's own frames: every request the last
/// repetition sent (as the client framed it) and every reply it got.
void CodecCost(const Rep& rep, double* encode_us, double* decode_us,
               double* frame_bytes) {
  std::vector<api::QueryRequest> requests;
  std::vector<const api::AnswerEnvelope*> replies;
  for (size_t i = 0; i < rep.trace.events.size(); ++i) {
    const Observation& obs = rep.drive.observations[i];
    if (!obs.done) continue;
    api::QueryRequest request;
    request.analyst_id =
        "analyst-" + std::to_string(rep.trace.events[i].analyst);
    request.request_id = obs.reply.request_id;
    request.query_name = rep.trace.events[i].query_name;
    requests.push_back(std::move(request));
    replies.push_back(&obs.reply);
  }
  if (requests.empty()) return;
  std::vector<std::string> req_frames(requests.size());
  std::vector<std::string> ans_frames(requests.size());
  Clock::time_point t = Clock::now();
  for (size_t i = 0; i < requests.size(); ++i) {
    api::EncodeRequest(requests[i], &req_frames[i]);
    api::EncodeAnswer(*replies[i], &ans_frames[i]);
  }
  const double enc = std::chrono::duration<double, std::micro>(
                         Clock::now() - t).count();
  t = Clock::now();
  size_t decoded = 0;
  for (size_t i = 0; i < requests.size(); ++i) {
    decoded += api::DecodeRequest(req_frames[i]).ok() ? 1 : 0;
    decoded += api::DecodeAnswer(ans_frames[i]).ok() ? 1 : 0;
  }
  const double dec = std::chrono::duration<double, std::micro>(
                         Clock::now() - t).count();
  if (decoded != 2 * requests.size()) {
    throw std::runtime_error("codec: the run's own frames did not decode");
  }
  double bytes = 0.0;
  for (size_t i = 0; i < requests.size(); ++i) {
    bytes += static_cast<double>(req_frames[i].size() + ans_frames[i].size());
  }
  const double n = static_cast<double>(requests.size());
  *encode_us = enc / n;
  *decode_us = dec / n;
  *frame_bytes = bytes / n;
}

/// Open loop: the median of the p99s of consecutive kP99Block-request
/// blocks (in send order). Closed loops: the p99 of every answer.
double P99(const Workload& w, const Pass& pass) {
  const std::vector<double> latencies = OkLatencies(pass);
  if (w.drive != Drive::kOpenLoop || latencies.size() < 2 * kP99Block) {
    return Quantile(latencies, 0.99);
  }
  std::vector<double> blocks;
  for (size_t begin = 0; begin + kP99Block <= latencies.size();
       begin += kP99Block) {
    blocks.push_back(Quantile(
        std::vector<double>(latencies.begin() + begin,
                            latencies.begin() + begin + kP99Block),
        0.99));
  }
  return Median(blocks);
}

std::vector<Metric> EndToEnd(const Workload& w, const Pass& pass,
                             double rss_mb) {
  std::vector<double> setup;
  for (const SetupTimes& s : pass.setups) setup.push_back(s.total_s);
  return {
      {"p50_ms", Quantile(OkLatencies(pass), 0.5), "ms"},
      {"p99_ms", P99(w, pass), "ms"},
      {"goodput_qps", Goodput(pass), "1/s"},
      {"setup_s", Median(setup), "s"},
      {"peak_rss_mb", rss_mb, "MB"},
  };
}

std::vector<Metric> PerLayer(const Pass& traced, const Pass& untraced,
                             const SpanRecorder& spans, const Ladder& ladder) {
  using T = SpanRecorder::Timing;
  auto us = [](const std::vector<T>& timings) {
    std::vector<double> out;
    for (const T& t : timings) out.push_back(t.us);
    return out;
  };
  auto self = [](const std::vector<T>& timings) {
    std::vector<double> out;
    for (const T& t : timings) out.push_back(t.self_us());
    return out;
  };
  const double reps = static_cast<double>(traced.reps.size());
  std::vector<Metric> m;

  // api
  const std::vector<T> rtt = spans.Timings("api.rtt");
  double encode_us = 0.0, decode_us = 0.0, frame_bytes = 0.0;
  CodecCost(traced.reps.back(), &encode_us, &decode_us, &frame_bytes);
  m.push_back({"api.rtt_p50_us", Quantile(us(rtt), 0.5), "us"});
  m.push_back({"api.rtt_p99_us", Quantile(us(rtt), 0.99), "us"});
  m.push_back({"api.wire_p50_us", Quantile(self(rtt), 0.5), "us"});
  m.push_back({"api.encode_us", encode_us, "us"});
  m.push_back({"api.decode_us", decode_us, "us"});
  m.push_back({"api.frame_bytes", frame_bytes, "bytes"});

  // frontend
  const auto queue_wait = MetaValues(traced, [](const api::ServingMeta& s) {
    return static_cast<double>(s.queue_wait_us);
  });
  m.push_back({"frontend.queue_wait_p50_us", Quantile(queue_wait, 0.5), "us"});
  m.push_back({"frontend.queue_wait_p99_us", Quantile(queue_wait, 0.99), "us"});
  m.push_back({"frontend.batch_size_mean",
               Ratio(ScrapeSum(traced, "pmw_frontend_batch_fill_sum"),
                     ScrapeSum(traced, "pmw_frontend_batch_fill_count")),
               "requests"});
  m.push_back({"frontend.plan_hit_rate",
               Ratio(ScrapeSum(traced, "pmw_serve_cross_batch_hits_total"),
                     ScrapeSum(traced, "pmw_serve_cross_batch_lookups_total")),
               "fraction"});
  m.push_back({"frontend.plan_evicted",
               ScrapeSum(traced, "pmw_frontend_plan_evicted_total") / reps,
               "count"});
  m.push_back({"frontend.plan_admission_rejected",
               ScrapeSum(traced, "pmw_frontend_plan_admission_rejected_total") /
                   reps,
               "count"});
  m.push_back({"frontend.plan_stale_dropped",
               ScrapeSum(traced, "pmw_frontend_plan_stale_dropped_total") / reps,
               "count"});

  // serve
  const auto serve = MetaValues(traced, [](const api::ServingMeta& s) {
    return static_cast<double>(s.serve_us);
  });
  const auto prepare = MetaValues(traced, [](const api::ServingMeta& s) {
    return static_cast<double>(s.prepare_us);
  });
  const auto hol = MetaValues(traced, [](const api::ServingMeta& s) {
    return s.serve_us > s.commit_us
               ? static_cast<double>(s.serve_us - s.commit_us)
               : 0.0;
  });
  const double updates = ScrapeSum(traced, "pmw_serve_updates_total");
  m.push_back({"serve.serve_p50_us", Quantile(serve, 0.5), "us"});
  m.push_back({"serve.serve_p99_us", Quantile(serve, 0.99), "us"});
  m.push_back({"serve.prepare_p99_us", Quantile(prepare, 0.99), "us"});
  m.push_back({"serve.hol_p99_us", Quantile(hol, 0.99), "us"});
  m.push_back({"serve.epochs", ScrapeSum(traced, "pmw_serve_epochs_total") / reps,
               "count"});
  m.push_back({"serve.reprepared_per_hard_round",
               Ratio(ScrapeSum(traced, "pmw_serve_reprepared_total"), updates),
               "plans"});

  // convex / core (the timed sequential replay)
  const std::vector<T> commits = spans.Timings("core.commit");
  std::vector<double> soft, mw;
  for (const T& t : commits) {
    if (t.children > 0) {
      mw.push_back(t.self_us());
    } else {
      soft.push_back(t.us);
    }
  }
  const auto prepares = us(spans.Timings("convex.prepare"));
  m.push_back({"convex.prepare_p50_us", Quantile(prepares, 0.5), "us"});
  m.push_back({"convex.prepare_p99_us", Quantile(prepares, 0.99), "us"});
  m.push_back({"core.snapshot_us", Median(us(spans.Timings("core.snapshot"))),
               "us"});
  m.push_back({"core.commit_soft_p50_us", Quantile(soft, 0.5), "us"});
  m.push_back({"core.mw_update_p50_us", Quantile(mw, 0.5), "us"});

  // erm (server-side solves: root spans; the replay's nest under commits)
  std::vector<double> solves;
  for (const T& t : spans.Timings("erm.solve")) {
    if (t.parent == 0) solves.push_back(t.us);
  }
  m.push_back({"erm.solve_p50_us", Quantile(solves, 0.5), "us"});
  m.push_back({"erm.solve_p99_us", Quantile(solves, 0.99), "us"});
  m.push_back({"erm.calls", static_cast<double>(solves.size()) / reps, "count"});

  // dp
  const auto hard = MetaValues(traced, [](const api::ServingMeta& s) {
    return s.hard_round ? 1.0 : 0.0;
  });
  double hard_rounds = 0.0;
  for (double v : hard) hard_rounds += v;
  m.push_back({"dp.hard_round_frac",
               Ratio(hard_rounds, static_cast<double>(hard.size())),
               "fraction"});
  m.push_back({"dp.epsilon_spent", traced.reps.back().epsilon, "epsilon"});

  // cluster
  double rpcs = 0.0, failures = 0.0, wait = 0.0, compute = 0.0;
  for (const Rep& rep : traced.reps) {
    rpcs += static_cast<double>(rep.combiner.rpcs);
    failures += static_cast<double>(rep.combiner.rpc_failures);
    wait += static_cast<double>(rep.combiner.combiner_wait_us);
    compute += static_cast<double>(rep.combiner.worker_compute_us);
  }
  m.push_back({"cluster.reweigh_p50_us",
               Quantile(us(spans.Timings("cluster.reweigh")), 0.5), "us"});
  m.push_back({"cluster.partials_p50_us",
               Quantile(us(spans.Timings("cluster.partials")), 0.5), "us"});
  m.push_back({"cluster.normalize_p50_us",
               Quantile(us(spans.Timings("cluster.normalize")), 0.5), "us"});
  m.push_back({"cluster.rpcs", rpcs / reps, "count"});
  m.push_back({"cluster.rpc_failures", failures / reps, "count"});
  m.push_back({"cluster.transport_share",
               wait > 0.0 ? std::max(0.0, 1.0 - compute / wait) : 0.0,
               "fraction"});

  // setup
  std::vector<double> dataset, catalog, endpoint, workers;
  for (const SetupTimes& s : traced.setups) {
    dataset.push_back(s.dataset_s);
    catalog.push_back(s.catalog_s);
    endpoint.push_back(s.endpoint_s);
    workers.push_back(s.workers_s);
  }
  m.push_back({"setup.dataset_s", Median(dataset), "s"});
  m.push_back({"setup.catalog_s", Median(catalog), "s"});
  m.push_back({"setup.endpoint_s", Median(endpoint), "s"});
  m.push_back({"setup.workers_s", Median(workers), "s"});

  // load
  std::vector<double> late;
  for (const Rep& rep : traced.reps) {
    for (const Observation& obs : rep.drive.observations) {
      late.push_back(obs.late_ms);
    }
  }
  m.push_back({"load.late_p99_ms", Quantile(late, 0.99), "ms"});
  m.push_back({"load.max_rate_qps", ladder.max_rate_qps, "1/s"});

  // self time and span counts per layer
  const std::map<std::string, LayerTotals> layers = spans.SelfTimes();
  for (const char* layer : {"load", "api", "frontend", "serve", "erm",
                            "cluster", "convex", "core"}) {
    auto it = layers.find(layer);
    const LayerTotals totals = it == layers.end() ? LayerTotals{} : it->second;
    m.push_back({std::string(layer) + ".self_ms", totals.self_ms, "ms"});
    m.push_back({std::string(layer) + ".spans",
                 static_cast<double>(totals.spans), "count"});
  }

  // tracing overhead on the client-observed median
  const double base = Quantile(OkLatencies(untraced), 0.5);
  m.push_back({"trace.overhead_frac",
               base > 0.0 ? Quantile(OkLatencies(traced), 0.5) / base - 1.0
                          : 0.0,
               "fraction"});
  return m;
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--socket-dir") {
      args.socket_dir = value;
    } else if (flag == "--spans-dir") {
      args.spans_dir = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (argc % 2 == 0) throw std::invalid_argument("flags take one value each");
  if (args.seconds <= 0.0) throw std::invalid_argument("--seconds must be > 0");
  return args;
}

int Run(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  const Workload* w = FindWorkload(args.workload);
  if (w == nullptr) {
    std::cerr << "unknown workload '" << args.workload << "'; known:";
    for (const Workload& known : Workloads()) std::cerr << " " << known.name;
    std::cerr << "\n";
    return 2;
  }
  const Environment env = ProbeEnvironment();

  Pass untraced = RunPass(*w, args, nullptr);
  const double rss_mb = PeakRssMb();

  SpanRecorder recorder;
  Pass traced;
  Ladder ladder;
  std::vector<Rep> ladder_reps;
  if (args.trace) {
    if (w->drive == Drive::kOpenLoop) ladder = RunLadder(*w, args, &ladder_reps);
    untraced.stack.reset();
    traced = RunPass(*w, args, &recorder);
  }
  const Pass& last = args.trace ? traced : untraced;

  // Every answer against the sequential replay; the traced pass first, so
  // its replays are the timed ones.
  const std::vector<const std::vector<Rep>*> all_reps = {
      &traced.reps, &untraced.reps, &ladder_reps};
  workload::Trace sent;
  for (const std::vector<Rep>* reps : all_reps) {
    for (const Rep& rep : *reps) {
      sent.events.insert(sent.events.end(), rep.trace.events.begin(),
                         rep.trace.events.end());
    }
  }
  Checker checker(*w, *last.stack, args.seed, DistinctNames(sent));
  Verdict total;
  for (const std::vector<Rep>* reps : all_reps) {
    for (const Rep& rep : *reps) {
      Accumulate(checker.Check(rep, reps == &traced.reps ? &recorder : nullptr),
                 &total);
    }
  }
  total.ok = total.failed == 0 && total.answers > 0 && total.problem.empty();

  // The run record: environment, pinned topology, sample counts.
  const workload::ScenarioSpec& s = w->spec;
  double hard_rounds = 0.0, answers = 0.0;
  for (const Rep& rep : untraced.reps) {
    for (const Observation& obs : rep.drive.observations) {
      if (obs.done && obs.reply.ok()) {
        answers += 1.0;
        hard_rounds += obs.reply.meta.hard_round ? 1.0 : 0.0;
      }
    }
  }
  std::string record = "{\"workload\": " + JsonString(w->name);
  record += ", \"seed\": " + std::to_string(args.seed);
  record += ", \"trace\": " + std::string(args.trace ? "1" : "0");
  record += ", \"env\": {\"nproc\": " + std::to_string(env.nproc) +
            ", \"effective_cores\": " + JsonNumber(env.effective_cores) +
            ", \"avx2_available\": " + (env.avx2_available ? "true" : "false") +
            ", \"avx2_enabled\": " + (env.avx2_enabled ? "true" : "false") +
            ", \"build_type\": " + JsonString(env.build_type) + "}";
  record += ", \"pinned\": {\"serve_threads\": " +
            std::to_string(s.serve_threads) +
            ", \"shards\": " + std::to_string(s.shards) +
            ", \"shard_groups\": " + std::to_string(s.shard_groups) +
            ", \"connections\": " + std::to_string(s.analysts) +
            ", \"client_threads\": " +
            std::to_string(w->drive == Drive::kOpenLoop ? s.analysts + 1
                           : w->drive == Drive::kWindow ? 1
                                                        : s.analysts) +
            ", \"window\": " + std::to_string(w->window) + "}";
  record += ", \"reps\": " + std::to_string(untraced.reps.size());
  record += ", \"samples\": " + JsonNumber(answers);
  record += ", \"hard_rounds\": " + JsonNumber(hard_rounds);
  record += ", \"failed_frac\": " +
            JsonNumber(Ratio(static_cast<double>(total.failed),
                             static_cast<double>(total.attempted)));
  if (args.trace && w->drive == Drive::kOpenLoop) {
    record += ", \"ladder\": " + JsonString(ladder.steps);
  }
  if (!total.problem.empty()) {
    record += ", \"problem\": " + JsonString(total.problem);
  }
  record += "}";
  std::cout << record << "\n";

  std::vector<Metric> metrics;
  if (args.trace) {
    metrics = PerLayer(traced, untraced, recorder, ladder);
    const std::string path = args.spans_dir + "/spans-" + w->name + "-" +
                             std::to_string(args.seed) + ".jsonl";
    if (!recorder.WriteJsonLines(path)) {
      std::cerr << "could not write " << path << "\n";
    }
  } else {
    metrics = EndToEnd(*w, untraced, rss_mb);
  }
  std::cout << ResultLine(total.ok, total.attempted, total.failed, metrics)
            << std::endl;
  return 0;
}

}  // namespace
}  // namespace perfbench
}  // namespace pmw

int main(int argc, char** argv) {
  try {
    return pmw::perfbench::Run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "pmw_perfbench: " << e.what() << "\n";
    return 1;
  }
}
