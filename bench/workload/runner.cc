#include "workload/runner.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <fstream>
#include <memory>
#include <future>
#include <mutex>
#include <thread>
#include <utility>

#include "api/client.h"
#include "common/check.h"
#include "common/stats.h"
#include "common/timer.h"
#include "core/sharded_hypothesis.h"
#include "data/generators.h"
#include "data/histogram.h"
#include "workload/cores.h"
#include "workload/json.h"

#include <cstdlib>

namespace pmw {
namespace workload {
namespace {

/// One observed reply, classified for merging.
struct Observation {
  double latency_ms = 0.0;
  api::ErrorCode error = api::ErrorCode::kOk;
  bool cache_hit = false;
  bool hard_round = false;
  uint64_t queue_wait_us = 0;
  uint64_t serve_us = 0;
  uint64_t prepare_us = 0;
  uint64_t solve_us = 0;
  uint64_t mw_us = 0;
  uint64_t commit_us = 0;
};

Observation Observe(const api::AnswerEnvelope& reply, double latency_ms) {
  Observation obs;
  obs.latency_ms = latency_ms;
  obs.error = reply.error;
  obs.cache_hit = reply.meta.cache_hit;
  obs.hard_round = reply.meta.hard_round;
  obs.queue_wait_us = reply.meta.queue_wait_us;
  obs.serve_us = reply.meta.serve_us;
  obs.prepare_us = reply.meta.prepare_us;
  obs.solve_us = reply.meta.solve_us;
  obs.mw_us = reply.meta.mw_us;
  obs.commit_us = reply.meta.commit_us;
  return obs;
}

void Merge(const std::vector<Observation>& local, DriveResult* result) {
  for (const Observation& obs : local) {
    ++result->issued;
    switch (obs.error) {
      case api::ErrorCode::kOk:
        ++result->ok;
        result->latencies_ms.push_back(obs.latency_ms);
        result->queue_wait_us.push_back(
            static_cast<double>(obs.queue_wait_us));
        result->serve_us.push_back(static_cast<double>(obs.serve_us));
        result->prepare_us.push_back(static_cast<double>(obs.prepare_us));
        result->solve_us.push_back(static_cast<double>(obs.solve_us));
        result->mw_us.push_back(static_cast<double>(obs.mw_us));
        result->commit_us.push_back(static_cast<double>(obs.commit_us));
        if (obs.cache_hit) ++result->cache_hits;
        if (obs.hard_round) ++result->hard_rounds;
        break;
      case api::ErrorCode::kQuotaExceeded:
        ++result->quota_rejected;
        break;
      case api::ErrorCode::kDeadlineExpired:
        ++result->deadline_expired;
        break;
      case api::ErrorCode::kHalted:
      case api::ErrorCode::kBudgetExhausted:
        ++result->halted;
        break;
      default:
        ++result->other_errors;
    }
  }
}

/// Per-analyst views into the trace, in issue order.
std::vector<std::vector<const TraceEvent*>> PartitionByAnalyst(
    const ScenarioSpec& spec, const Trace& trace) {
  std::vector<std::vector<const TraceEvent*>> per(
      static_cast<size_t>(spec.analysts));
  for (const TraceEvent& event : trace.events) {
    PMW_CHECK_LT(event.analyst, static_cast<uint32_t>(spec.analysts));
    per[event.analyst].push_back(&event);
  }
  return per;
}

void DriveClosedLoop(const ScenarioSpec& spec, const Trace& trace,
                     api::Transport* transport, DriveResult* result) {
  const auto per_analyst = PartitionByAnalyst(spec, trace);
  std::vector<std::unique_ptr<api::Client>> clients;
  for (int a = 0; a < spec.analysts; ++a) {
    clients.push_back(std::make_unique<api::Client>(
        transport, "analyst-" + std::to_string(a)));
  }
  std::mutex merge_mutex;
  WallTimer total;
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(spec.analysts));
  for (int a = 0; a < spec.analysts; ++a) {
    threads.emplace_back([a, &spec, &per_analyst, &clients, &merge_mutex,
                          result] {
      api::Client& client = *clients[static_cast<size_t>(a)];
      const std::vector<const TraceEvent*>& mine =
          per_analyst[static_cast<size_t>(a)];
      std::vector<Observation> local;
      local.reserve(mine.size());
      const size_t group = std::max<size_t>(
          1, static_cast<size_t>(spec.batch_size));
      for (size_t start = 0; start < mine.size(); start += group) {
        const size_t count = std::min(group, mine.size() - start);
        const std::chrono::microseconds deadline{
            static_cast<int64_t>(mine[start]->deadline_us)};
        WallTimer timer;
        if (count == 1) {
          api::AnswerEnvelope reply =
              client.Call(mine[start]->query_name, deadline);
          local.push_back(Observe(reply, timer.ElapsedMillis()));
        } else {
          std::vector<std::string> names;
          names.reserve(count);
          for (size_t j = 0; j < count; ++j) {
            names.push_back(mine[start + j]->query_name);
          }
          std::vector<api::AnswerEnvelope> replies =
              client.CallBatch(names, deadline);
          const double elapsed_ms = timer.ElapsedMillis();
          // A batched request's latency is its whole wire call's.
          for (const api::AnswerEnvelope& reply : replies) {
            local.push_back(Observe(reply, elapsed_ms));
          }
        }
      }
      std::lock_guard<std::mutex> lock(merge_mutex);
      Merge(local, result);
    });
  }
  for (std::thread& thread : threads) thread.join();
  result->elapsed_s = total.ElapsedSeconds();
}

void DriveOpenLoop(const ScenarioSpec& spec, const Trace& trace,
                   api::Transport* transport, DriveResult* result) {
  const auto per_analyst = PartitionByAnalyst(spec, trace);
  std::vector<std::unique_ptr<api::Client>> clients;
  for (int a = 0; a < spec.analysts; ++a) {
    clients.push_back(std::make_unique<api::Client>(
        transport, "analyst-" + std::to_string(a)));
  }
  std::mutex merge_mutex;
  // A short runway so every issuer is up before the schedule's origin.
  const auto start =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(20);
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(spec.analysts) * 2);
  for (int a = 0; a < spec.analysts; ++a) {
    // The endpoint's futures are deferred: collecting one blocks until
    // the reply is served. An issuer thread alone would therefore fall
    // back to closed-loop pacing, so each analyst splits into an issuer
    // (fires CallAsync exactly on the schedule) and a reaper (collects
    // in issue order and timestamps completion).
    struct Inflight {
      std::chrono::steady_clock::time_point issued_at;
      std::future<api::AnswerEnvelope> reply;
    };
    auto queue = std::make_shared<std::deque<Inflight>>();
    auto queue_mutex = std::make_shared<std::mutex>();
    auto queue_cv = std::make_shared<std::condition_variable>();
    auto done = std::make_shared<bool>(false);

    threads.emplace_back([a, start, &per_analyst, &clients, queue,
                          queue_mutex, queue_cv, done] {
      api::Client& client = *clients[static_cast<size_t>(a)];
      for (const TraceEvent* event : per_analyst[static_cast<size_t>(a)]) {
        std::this_thread::sleep_until(
            start + std::chrono::microseconds(event->arrival_us));
        Inflight entry;
        entry.issued_at = std::chrono::steady_clock::now();
        entry.reply = client.CallAsync(
            event->query_name, std::chrono::microseconds(
                                   static_cast<int64_t>(event->deadline_us)));
        {
          std::lock_guard<std::mutex> lock(*queue_mutex);
          queue->push_back(std::move(entry));
        }
        queue_cv->notify_one();
      }
      {
        std::lock_guard<std::mutex> lock(*queue_mutex);
        *done = true;
      }
      queue_cv->notify_one();
    });

    threads.emplace_back([queue, queue_mutex, queue_cv, done, &merge_mutex,
                          result] {
      std::vector<Observation> local;
      for (;;) {
        std::unique_lock<std::mutex> lock(*queue_mutex);
        queue_cv->wait(lock,
                       [&] { return *done || !queue->empty(); });
        if (queue->empty()) break;
        Inflight entry = std::move(queue->front());
        queue->pop_front();
        lock.unlock();
        api::AnswerEnvelope reply = entry.reply.get();
        const double latency_ms =
            std::chrono::duration<double, std::milli>(
                std::chrono::steady_clock::now() - entry.issued_at)
                .count();
        local.push_back(Observe(reply, latency_ms));
      }
      std::lock_guard<std::mutex> lock(merge_mutex);
      Merge(local, result);
    });
  }
  for (std::thread& thread : threads) thread.join();
  result->elapsed_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
}

double SafeQuantile(const std::vector<double>& values, double q) {
  return values.empty() ? 0.0 : Quantile(values, q);
}

/// Shared secret between the bench harness's combiner and its workers —
/// in-process ones get it directly; external pmw_shard_worker processes
/// (the nightly CI topology) must be launched with
/// --auth-token=bench-multihost.
constexpr const char* kMultihostToken = "bench-multihost";

/// PMW_MULTIHOST_WORKERS="host:port,host:port" names external
/// shard-group workers, one entry per group in domain order. Unset or
/// empty means the harness stands up in-process workers. A malformed
/// entry aborts rather than silently falling back to in-process — a CI
/// typo must never fake a multi-host pass.
std::vector<cluster::WorkerAddress> ExternalWorkerAddresses() {
  std::vector<cluster::WorkerAddress> addresses;
  const char* env = std::getenv("PMW_MULTIHOST_WORKERS");
  if (env == nullptr || *env == '\0') return addresses;
  const std::string spec(env);
  size_t start = 0;
  while (start <= spec.size()) {
    size_t comma = spec.find(',', start);
    if (comma == std::string::npos) comma = spec.size();
    const std::string entry = spec.substr(start, comma - start);
    const size_t colon = entry.rfind(':');
    PMW_CHECK_MSG(colon != std::string::npos && colon > 0 &&
                      colon + 1 < entry.size(),
                  "PMW_MULTIHOST_WORKERS entry '" << entry
                                                  << "' is not host:port");
    const long port = std::strtol(entry.c_str() + colon + 1, nullptr, 10);
    PMW_CHECK_MSG(port > 0 && port <= 65535,
                  "PMW_MULTIHOST_WORKERS entry '" << entry
                                                  << "' has a bad port");
    cluster::WorkerAddress address;
    address.host = entry.substr(0, colon);
    address.port = static_cast<uint16_t>(port);
    addresses.push_back(std::move(address));
    start = comma + 1;
  }
  return addresses;
}

/// Attributes the latency tail (client latency >= threshold_ms) to the
/// server-side phases the ServingMeta spans name. Shares are fractions
/// of the tail's total (queue_wait + serve) time; solve + mw +
/// commit_other reassemble the commit, so `attributed` counts commit
/// once, not twice.
ScenarioResult::SpanBreakdown AttributeTail(const DriveResult& drive,
                                            double threshold_ms) {
  ScenarioResult::SpanBreakdown breakdown;
  breakdown.threshold_ms = threshold_ms;
  double total = 0.0, queue = 0.0, prepare = 0.0, solve = 0.0, mw = 0.0;
  double commit_other = 0.0;
  for (size_t i = 0; i < drive.latencies_ms.size(); ++i) {
    if (drive.latencies_ms[i] < threshold_ms) continue;
    ++breakdown.tail_requests;
    total += drive.queue_wait_us[i] + drive.serve_us[i];
    queue += drive.queue_wait_us[i];
    prepare += drive.prepare_us[i];
    solve += drive.solve_us[i];
    mw += drive.mw_us[i];
    commit_other += std::max(
        0.0, drive.commit_us[i] - drive.solve_us[i] - drive.mw_us[i]);
  }
  if (total <= 0.0) return breakdown;
  breakdown.queue = queue / total;
  breakdown.prepare = prepare / total;
  breakdown.solve = solve / total;
  breakdown.mw = mw / total;
  breakdown.commit_other = commit_other / total;
  breakdown.attributed = breakdown.queue + breakdown.prepare +
                         breakdown.solve + breakdown.mw +
                         breakdown.commit_other;
  breakdown.other = std::max(0.0, 1.0 - breakdown.attributed);
  return breakdown;
}

}  // namespace

int ResolveServeThreads(const ScenarioSpec& spec) {
  if (spec.serve_threads > 0) return spec.serve_threads;
  const unsigned cores = std::thread::hardware_concurrency();
  return static_cast<int>(std::min(4u, cores > 0 ? cores : 1u));
}

DriveResult DriveTrace(const ScenarioSpec& spec, const Trace& trace,
                       api::Transport* transport) {
  DriveResult result;
  if (spec.arrival == ScenarioSpec::Arrival::kOpenLoopPoisson) {
    DriveOpenLoop(spec, trace, transport, &result);
  } else {
    DriveClosedLoop(spec, trace, transport, &result);
  }
  PMW_CHECK_EQ(result.issued,
               static_cast<long long>(trace.events.size()));
  return result;
}

api::ServerOptions MakeServerOptions(const ScenarioSpec& spec,
                                     const RunOptions& options,
                                     double catalog_scale) {
  api::ServerOptions server;
  server.mechanism.alpha = spec.alpha;
  server.mechanism.beta = spec.beta;
  server.mechanism.privacy = {spec.epsilon, spec.delta};
  server.mechanism.scale = std::max(2.0, catalog_scale);
  server.mechanism.max_queries = 4 * spec.total_events();
  server.mechanism.override_updates = spec.override_updates;
  if (spec.solver_max_iters > 0) {
    server.mechanism.solver.max_iters = spec.solver_max_iters;
  }
  server.serve.num_threads = ResolveServeThreads(spec);
  server.serve.num_shards = spec.shards;
  server.serve.hypothesis_backend =
      spec.backend == ScenarioSpec::Backend::kSparse
          ? core::HypothesisBackend::kSparse
          : core::HypothesisBackend::kDense;
  server.quota.per_analyst_queries = spec.per_analyst_quota;
  server.dispatcher.queue_capacity = 1024;
  server.dispatcher.max_batch = spec.max_batch;
  server.oracle = options.oracle;
  server.record_arrival_log = options.record_arrival_log;
  // Scrape-time SLO burn gauges (obs/slo.h): the scenario's client-side
  // bounds are upper bounds for each server-side span — queue wait and
  // serve time are both components of the client-observed latency — so
  // a pmw_slo_burn_ratio above 1.0 on either histogram gauge means the
  // scenario's p99 objective is already lost server-side. Zeroes (no
  // objective) keep the gauges disabled, exactly like the SLO verdict.
  server.slo_queue_wait_p99_us = spec.slo.max_p99_ms * 1000.0;
  server.slo_serve_p99_us = spec.slo.max_p99_ms * 1000.0;
  server.slo_goodput_qps = spec.slo.min_goodput_qps;
  return server;
}

ScenarioHarness::ScenarioHarness(const ScenarioSpec& spec,
                                 const RunOptions& options)
    : spec_(spec), universe_(spec.dim) {
  data::Histogram truth = [&] {
    if (spec.data == ScenarioSpec::DataShape::kLogistic) {
      std::vector<double> theta_star(static_cast<size_t>(spec.dim));
      std::vector<double> biases(static_cast<size_t>(spec.dim), 0.5);
      for (int j = 0; j < spec.dim; ++j) {
        theta_star[static_cast<size_t>(j)] = (j % 2 == 0 ? 0.8 : -0.8);
      }
      return data::LogisticModelDistribution(universe_, theta_star, biases,
                                             /*temperature=*/0.3);
    }
    return data::Histogram::Uniform(universe_.size());
  }();
  dataset_ = std::make_unique<data::Dataset>(
      data::RoundedDataset(universe_, truth, spec.records));

  api::WorkloadSpec family;
  family.family = api::WorkloadSpec::Family::kLipschitz;
  family.dim = spec.dim;
  names_ = catalog_.Populate(family, spec.catalog_queries,
                             spec.seed ^ 0x9e3779b97f4a7c15ULL, "q/");

  api::ServerOptions server =
      MakeServerOptions(spec, options, catalog_.scale());
  if (spec.shard_groups > 0) {
    // Multi-host topology: shard-group workers own the per-shard MW
    // phase work behind a cluster::Combiner installed as the endpoint's
    // hypothesis delegate. External worker processes when
    // PMW_MULTIHOST_WORKERS names them, in-process ShardWorkers (still
    // over real localhost TCP) otherwise.
    PMW_CHECK_MSG(spec.backend == ScenarioSpec::Backend::kDense,
                  "multi-host serving requires the dense backend");
    PMW_CHECK_MSG(spec.shards > 1,
                  "multi-host serving requires shards > 1");
    cluster::CombinerOptions fabric;
    fabric.auth_token = kMultihostToken;
    fabric.workers = ExternalWorkerAddresses();
    external_workers_ = !fabric.workers.empty();
    if (!external_workers_) {
      for (int w = 0; w < spec.shard_groups; ++w) {
        cluster::ShardWorkerOptions worker_options;
        worker_options.auth_token = kMultihostToken;
        auto worker =
            std::make_unique<cluster::ShardWorker>(worker_options);
        const Status started = worker->Start();
        PMW_CHECK_MSG(started.ok(), started.ToString());
        cluster::WorkerAddress address;
        address.port = worker->port();
        fabric.workers.push_back(address);
        local_workers_.push_back(std::move(worker));
      }
    }
    combiner_ = std::make_unique<cluster::Combiner>(fabric);
    // Connect at the shard count ConfigureSharding will settle on (the
    // largest power of two <= min(shards, |X|)); the combiner insists
    // on the clamped value so its partition matches the front door's.
    const int clamped = static_cast<int>(
        core::PartitionDomain(universe_.size(), spec.shards).size());
    const Status connected = combiner_->Connect(universe_.size(), clamped);
    PMW_CHECK_MSG(connected.ok(), connected.ToString());
    server.serve.hypothesis_delegate = combiner_.get();
  }
  endpoint_ = std::make_unique<api::ServerEndpoint>(
      dataset_.get(), &catalog_, server, options.server_seed);
  transport_ = std::make_unique<api::InProcessTransport>(
      endpoint_.get(), options.verify_codec);
}

ScenarioResult ScenarioHarness::Run(const Trace& trace) {
  DriveResult drive = DriveTrace(spec_, trace, transport_.get());

  ScenarioResult result;
  result.spec = spec_;
  result.cores = static_cast<int>(std::thread::hardware_concurrency());
  result.effective_cores = EffectiveCores();
  result.serve_threads = ResolveServeThreads(spec_);
  result.shards = spec_.shards;
  result.issued = drive.issued;
  result.ok = drive.ok;
  result.quota_rejected = drive.quota_rejected;
  result.deadline_expired = drive.deadline_expired;
  result.halted = drive.halted;
  result.other_errors = drive.other_errors;
  result.p50_ms = SafeQuantile(drive.latencies_ms, 0.5);
  result.p99_ms = SafeQuantile(drive.latencies_ms, 0.99);
  result.mean_ms =
      drive.latencies_ms.empty() ? 0.0 : Mean(drive.latencies_ms);
  result.max_ms = drive.latencies_ms.empty() ? 0.0 : Max(drive.latencies_ms);
  result.queue_wait_p50_us = SafeQuantile(drive.queue_wait_us, 0.5);
  result.queue_wait_p99_us = SafeQuantile(drive.queue_wait_us, 0.99);
  result.serve_p50_us = SafeQuantile(drive.serve_us, 0.5);
  result.serve_p99_us = SafeQuantile(drive.serve_us, 0.99);
  result.elapsed_s = drive.elapsed_s;
  result.throughput_qps =
      drive.elapsed_s > 0.0
          ? static_cast<double>(drive.issued) / drive.elapsed_s
          : 0.0;
  result.goodput_qps =
      drive.elapsed_s > 0.0 ? static_cast<double>(drive.ok) / drive.elapsed_s
                            : 0.0;
  // Rates are defined as exactly 0.0 — never NaN — when nothing was
  // served (ok == 0) or no time elapsed: the zero-served SLO check
  // below is what judges that case, and it must do so on finite
  // numbers so the verdict (and the emitted json) stays meaningful.
  result.cache_hit_rate =
      drive.ok > 0
          ? static_cast<double>(drive.cache_hits) /
                static_cast<double>(drive.ok)
          : 0.0;
  result.hard_rounds = drive.hard_rounds;
  result.span_breakdown = AttributeTail(drive, result.p99_ms);

  if (combiner_ != nullptr) {
    const cluster::CombinerStats fabric = combiner_->stats();
    ScenarioResult::Multihost& multihost = result.multihost;
    multihost.enabled = true;
    multihost.shard_groups = combiner_->num_workers();
    multihost.external_workers = external_workers_;
    multihost.rpcs = fabric.rpcs;
    multihost.rpc_failures = fabric.rpc_failures;
    multihost.recoveries = fabric.recoveries;
    multihost.updates_logged = fabric.updates_logged;
    multihost.combiner_wait_us =
        static_cast<double>(fabric.combiner_wait_us);
    multihost.worker_compute_us =
        static_cast<double>(fabric.worker_compute_us);
    if (multihost.combiner_wait_us > 0.0) {
      multihost.worker_compute_share = std::min(
          1.0, multihost.worker_compute_us / multihost.combiner_wait_us);
      multihost.transport_share =
          std::max(0.0, 1.0 - multihost.worker_compute_share);
    }
  }

  // The budget view an analyst dashboards, through the same front door.
  api::Client harness(transport_.get(), "workload-harness");
  const api::AnswerEnvelope stats = harness.Stats();
  result.epsilon_spent = stats.meta.epsilon_spent;
  result.delta_spent = stats.meta.delta_spent;
  result.hard_rounds_remaining = stats.meta.hard_rounds_remaining;
  result.final_epoch = stats.meta.epoch;

  // The whole stack's instruments, through the same front door again.
  result.metrics_text = harness.Metrics(api::kMetricsFormatText).message;
  result.metrics_json = harness.Metrics(api::kMetricsFormatJson).message;

  // SLO verdict.
  const Slo& slo = spec_.slo;
  auto violate = [&result](std::string what) {
    result.slo_ok = false;
    result.slo_violations.push_back(std::move(what));
  };
  if (result.other_errors > 0) {
    violate("unexpected errors: " + std::to_string(result.other_errors));
  }
  const long long rejections =
      result.quota_rejected + result.deadline_expired + result.halted;
  if (!slo.allow_rejections && rejections > 0) {
    violate("rejections: " + std::to_string(rejections));
  }
  if (result.ok == 0) {
    // Nothing was served, so every latency/goodput/hit-rate check below
    // would be vacuous (their inputs are all defined-zero). Fail loudly
    // with the full disposition instead — a run where every request was
    // rejected or expired must never pass on an empty verdict, even
    // when the scenario allows typed rejections.
    violate("no successful answers (issued " + std::to_string(result.issued) +
            ": quota " + std::to_string(result.quota_rejected) +
            ", deadline " + std::to_string(result.deadline_expired) +
            ", halted " + std::to_string(result.halted) + ", errors " +
            std::to_string(result.other_errors) + ")");
    return result;
  }
  char buf[128];
  if (slo.max_p50_ms > 0.0 && result.p50_ms > slo.max_p50_ms) {
    std::snprintf(buf, sizeof(buf), "p50_ms %.3f > %.3f", result.p50_ms,
                  slo.max_p50_ms);
    violate(buf);
  }
  if (slo.max_p99_ms > 0.0 && result.p99_ms > slo.max_p99_ms) {
    std::snprintf(buf, sizeof(buf), "p99_ms %.3f > %.3f", result.p99_ms,
                  slo.max_p99_ms);
    violate(buf);
  }
  if (slo.min_goodput_qps > 0.0 &&
      result.goodput_qps < slo.min_goodput_qps) {
    std::snprintf(buf, sizeof(buf), "goodput_qps %.1f < %.1f",
                  result.goodput_qps, slo.min_goodput_qps);
    violate(buf);
  }
  if (slo.min_cache_hit_rate >= 0.0 &&
      result.cache_hit_rate < slo.min_cache_hit_rate) {
    std::snprintf(buf, sizeof(buf), "cache_hit_rate %.3f < %.3f",
                  result.cache_hit_rate, slo.min_cache_hit_rate);
    violate(buf);
  }
  return result;
}

ScenarioResult RunScenario(const ScenarioSpec& spec,
                           const RunOptions& options) {
  ScenarioHarness harness(spec, options);
  return harness.Run(harness.MakeTrace());
}

std::string ScenarioResult::ToJson() const {
  JsonValue params = JsonValue::Object();
  params.Set("popularity", JsonValue::Str(PopularityName(spec.popularity)))
      .Set("zipf_theta", JsonValue::Double(spec.zipf_theta))
      .Set("hot_keys", JsonValue::Int(spec.hot_keys))
      .Set("hot_fraction", JsonValue::Double(spec.hot_fraction))
      .Set("churn_every", JsonValue::Int(spec.churn_every))
      .Set("arrival", JsonValue::Str(ArrivalName(spec.arrival)))
      .Set("open_loop_qps", JsonValue::Double(spec.open_loop_qps))
      .Set("analysts", JsonValue::Int(spec.analysts))
      .Set("queries_per_analyst", JsonValue::Int(spec.queries_per_analyst))
      .Set("batch_size", JsonValue::Int(spec.batch_size))
      .Set("deadline_us",
           JsonValue::Int(static_cast<long long>(spec.deadline_us)))
      .Set("per_analyst_quota", JsonValue::Int(spec.per_analyst_quota))
      .Set("data", JsonValue::Str(DataShapeName(spec.data)))
      .Set("dim", JsonValue::Int(spec.dim))
      .Set("records", JsonValue::Int(spec.records))
      .Set("catalog_queries", JsonValue::Int(spec.catalog_queries))
      .Set("max_batch",
           JsonValue::Int(static_cast<long long>(spec.max_batch)))
      .Set("backend", JsonValue::Str(BackendName(spec.backend)))
      .Set("solver_max_iters", JsonValue::Int(spec.solver_max_iters))
      .Set("shard_groups", JsonValue::Int(spec.shard_groups))
      .Set("seed", JsonValue::Int(static_cast<long long>(spec.seed)));

  JsonValue env = JsonValue::Object();
  env.Set("cores", JsonValue::Int(cores))
      .Set("effective_cores", JsonValue::Double(effective_cores))
      .Set("serve_threads", JsonValue::Int(serve_threads))
      .Set("shards", JsonValue::Int(shards));

  JsonValue requests = JsonValue::Object();
  requests.Set("issued", JsonValue::Int(issued))
      .Set("ok", JsonValue::Int(ok))
      .Set("quota_rejected", JsonValue::Int(quota_rejected))
      .Set("deadline_expired", JsonValue::Int(deadline_expired))
      .Set("halted", JsonValue::Int(halted))
      .Set("errors", JsonValue::Int(other_errors));

  JsonValue latency = JsonValue::Object();
  latency.Set("p50", JsonValue::Double(p50_ms))
      .Set("p99", JsonValue::Double(p99_ms))
      .Set("mean", JsonValue::Double(mean_ms))
      .Set("max", JsonValue::Double(max_ms));

  JsonValue server = JsonValue::Object();
  server.Set("queue_wait_p50", JsonValue::Double(queue_wait_p50_us))
      .Set("queue_wait_p99", JsonValue::Double(queue_wait_p99_us))
      .Set("serve_p50", JsonValue::Double(serve_p50_us))
      .Set("serve_p99", JsonValue::Double(serve_p99_us));

  JsonValue spans = JsonValue::Object();
  spans.Set("tail_requests", JsonValue::Int(span_breakdown.tail_requests))
      .Set("threshold_ms", JsonValue::Double(span_breakdown.threshold_ms))
      .Set("queue", JsonValue::Double(span_breakdown.queue))
      .Set("prepare", JsonValue::Double(span_breakdown.prepare))
      .Set("solve", JsonValue::Double(span_breakdown.solve))
      .Set("mw", JsonValue::Double(span_breakdown.mw))
      .Set("commit_other", JsonValue::Double(span_breakdown.commit_other))
      .Set("other", JsonValue::Double(span_breakdown.other))
      .Set("attributed", JsonValue::Double(span_breakdown.attributed));

  JsonValue budget = JsonValue::Object();
  budget.Set("epsilon_spent", JsonValue::Double(epsilon_spent))
      .Set("delta_spent", JsonValue::Double(delta_spent))
      .Set("hard_rounds_remaining", JsonValue::Int(hard_rounds_remaining))
      .Set("epoch", JsonValue::Int(static_cast<long long>(final_epoch)));

  JsonValue violations = JsonValue::Array();
  for (const std::string& violation : slo_violations) {
    violations.Push(JsonValue::Str(violation));
  }
  JsonValue slo = JsonValue::Object();
  slo.Set("ok", JsonValue::Bool(slo_ok))
      .Set("violations", std::move(violations));

  JsonValue root = JsonValue::Object();
  root.Set("scenario", JsonValue::Str(spec.name));
  if (multihost.enabled) {
    // The distributed-update ledger: where the combiner's wall time
    // went. Only multi-host scenarios carry the key, so single-process
    // BENCH jsons keep their schema (and their baselines) unchanged.
    JsonValue fabric = JsonValue::Object();
    fabric.Set("shard_groups", JsonValue::Int(multihost.shard_groups))
        .Set("external_workers", JsonValue::Bool(multihost.external_workers))
        .Set("rpcs", JsonValue::Int(multihost.rpcs))
        .Set("rpc_failures", JsonValue::Int(multihost.rpc_failures))
        .Set("recoveries", JsonValue::Int(multihost.recoveries))
        .Set("updates_logged", JsonValue::Int(multihost.updates_logged))
        .Set("combiner_wait_us",
             JsonValue::Double(multihost.combiner_wait_us))
        .Set("worker_compute_us",
             JsonValue::Double(multihost.worker_compute_us))
        .Set("worker_compute_share",
             JsonValue::Double(multihost.worker_compute_share))
        .Set("transport_share",
             JsonValue::Double(multihost.transport_share));
    root.Set("multihost", std::move(fabric));
  }
  root.Set("params", std::move(params))
      .Set("env", std::move(env))
      .Set("requests", std::move(requests))
      .Set("latency_ms", std::move(latency))
      .Set("server_us", std::move(server))
      .Set("span_breakdown", std::move(spans))
      .Set("elapsed_s", JsonValue::Double(elapsed_s))
      .Set("throughput_qps", JsonValue::Double(throughput_qps))
      .Set("goodput_qps", JsonValue::Double(goodput_qps))
      .Set("cache_hit_rate", JsonValue::Double(cache_hit_rate))
      .Set("hard_rounds", JsonValue::Int(hard_rounds))
      .Set("budget", std::move(budget))
      .Set("slo", std::move(slo));
  return root.Dump();
}

Status WriteBenchJson(const ScenarioResult& result, const std::string& dir) {
  const std::string path = dir + "/BENCH_" + result.spec.name + ".json";
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    return Status::Internal("bench json: cannot open '" + path + "'");
  }
  const std::string body = result.ToJson();
  out.write(body.data(), static_cast<std::streamsize>(body.size()));
  out.flush();
  if (!out) {
    return Status::Internal("bench json: short write to '" + path + "'");
  }
  return Status::Ok();
}

Status WriteMetricsDumps(const ScenarioResult& result,
                         const std::string& dir) {
  const auto write = [&](const std::string& suffix,
                         const std::string& body) {
    const std::string path =
        dir + "/METRICS_" + result.spec.name + suffix;
    std::ofstream out(path, std::ios::binary);
    out.write(body.data(), static_cast<std::streamsize>(body.size()));
    out.flush();
    return out ? Status::Ok()
               : Status::Internal("metrics dump: cannot write '" + path +
                                  "'");
  };
  Status text = write(".txt", result.metrics_text);
  if (!text.ok()) return text;
  return write(".json", result.metrics_json);
}

}  // namespace workload
}  // namespace pmw
