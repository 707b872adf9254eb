#include "serve/pmw_service.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "common/timer.h"

namespace pmw {
namespace serve {

PmwService::PmwService(const data::Dataset* dataset, erm::Oracle* oracle,
                       const core::PmwOptions& options, uint64_t seed,
                       const ServeOptions& serve_options)
    : cm_(dataset, oracle, options, seed),
      pool_(serve_options.num_threads > 1
                ? std::make_unique<ThreadPool>(serve_options.num_threads)
                : nullptr),
      executor_(pool_.get(), &cm_) {
  // Partition the hypothesis; its per-shard MW-update work fork-joins
  // across the pool (shard 0 on the writer), timing each shard into
  // shard_us_. A single shard never calls the runner. With a delegate
  // (multi-host topology: cluster::Combiner) the per-shard phases run in
  // shard-group worker processes and only the payoff loop comes here.
  cm_.ConfigureSharding(
      serve_options.num_shards,
      [this](int num_shards, const std::function<void(int)>& fn) {
        ForkJoin(pool_.get(), num_shards, [this, &fn](int s) {
          WallTimer timer;
          fn(s);
          shard_us_[static_cast<size_t>(s)] +=
              static_cast<uint64_t>(timer.ElapsedSeconds() * 1e6);
        });
      },
      serve_options.hypothesis_backend, serve_options.sparse,
      serve_options.hypothesis_delegate);
  shard_us_.assign(static_cast<size_t>(cm_.num_shards()), 0);

  // Bind the metrics registry (injected by the endpoint, or a private
  // one) and resolve every instrument handle once; all hot-path
  // recording below is handle-based and lock-free.
  if (serve_options.registry != nullptr) {
    registry_ = serve_options.registry;
  } else {
    owned_registry_ = std::make_unique<obs::Registry>();
    registry_ = owned_registry_.get();
  }
  m_.queries = registry_->GetCounter("pmw_serve_queries_total");
  m_.batches = registry_->GetCounter("pmw_serve_batches_total");
  m_.bottom_answers = registry_->GetCounter("pmw_serve_bottom_total");
  m_.updates = registry_->GetCounter("pmw_serve_updates_total");
  m_.prepare_cache_hits =
      registry_->GetCounter("pmw_serve_prepare_cache_hits_total");
  m_.errors = registry_->GetCounter("pmw_serve_errors_total");
  m_.epochs = registry_->GetCounter("pmw_serve_epochs_total");
  m_.reprepared = registry_->GetCounter("pmw_serve_reprepared_total");
  m_.cross_batch_cache_lookups =
      registry_->GetCounter("pmw_serve_cross_batch_lookups_total");
  m_.cross_batch_cache_hits =
      registry_->GetCounter("pmw_serve_cross_batch_hits_total");
  m_.plan_stale_dropped =
      registry_->GetCounter("pmw_frontend_plan_stale_dropped_total");
  m_.threads = registry_->GetGauge("pmw_serve_threads");
  m_.shards = registry_->GetGauge("pmw_serve_shards");
  // 1us .. ~8.4s in x2 steps, one observation per hard round.
  m_.mw_update_us = registry_->GetHistogram(
      "pmw_serve_mw_update_us", obs::Histogram::LogBuckets(1.0, 2.0, 24));
  // 10us .. ~84s in x2 steps: covers sub-ms soft batches through the
  // huge_domain cold tail.
  m_.batch_latency_ms = registry_->GetHistogram(
      "pmw_serve_batch_latency_ms", obs::Histogram::LogBuckets(0.01, 2.0, 24));
  m_.batch_queries_per_sec = registry_->GetHistogram(
      "pmw_serve_batch_queries_per_sec",
      obs::Histogram::LogBuckets(1.0, 2.0, 24));
  // Topology gauges are live immediately so a scrape before the first
  // batch already reports it.
  m_.threads->Set(static_cast<double>(pool_ != nullptr ? pool_->size() : 1));
  m_.shards->Set(static_cast<double>(cm_.num_shards()));
}

PmwService::AnalystHandles& PmwService::HandlesFor(
    const std::string& analyst) {
  auto it = analyst_handles_.find(analyst);
  if (it == analyst_handles_.end()) {
    AnalystHandles handles;
    handles.queries = registry_->GetCounter(obs::Registry::LabeledName(
        "pmw_serve_analyst_queries_total", "analyst", analyst));
    handles.updates = registry_->GetCounter(obs::Registry::LabeledName(
        "pmw_serve_analyst_updates_total", "analyst", analyst));
    handles.errors = registry_->GetCounter(obs::Registry::LabeledName(
        "pmw_serve_analyst_errors_total", "analyst", analyst));
    it = analyst_handles_.emplace(analyst, handles).first;
  }
  return it->second;
}

std::shared_ptr<const core::HypothesisSnapshot> PmwService::PublishAndPrepare(
    std::span<const convex::CmQuery> queries, size_t begin, size_t end,
    ShardExecutor::PrepareResult* prepared) {
  const std::shared_ptr<const core::HypothesisSnapshot> previous =
      epochs_.Current();
  std::shared_ptr<const core::HypothesisSnapshot> snapshot =
      epochs_.Publish(cm_);
  if (snapshot != previous) m_.epochs->Add(1);
  *prepared =
      executor_.PrepareRange(queries, begin, end, *snapshot, plan_cache_);
  m_.prepare_cache_hits->Add(prepared->cache_hits);
  m_.cross_batch_cache_lookups->Add(prepared->cross_batch_lookups);
  m_.cross_batch_cache_hits->Add(prepared->cross_batch_hits);
  m_.plan_stale_dropped->Add(prepared->cross_batch_stale);
  return snapshot;
}

std::vector<Result<convex::Vec>> PmwService::AnswerBatch(
    std::span<const convex::CmQuery> queries) {
  return AnswerBatch(queries, {});
}

std::vector<Result<convex::Vec>> PmwService::AnswerBatch(
    std::span<const convex::CmQuery> queries,
    std::span<const std::string> analyst_ids) {
  return AnswerBatch(queries, analyst_ids, nullptr);
}

std::vector<Result<convex::Vec>> PmwService::AnswerBatch(
    std::span<const convex::CmQuery> queries,
    std::span<const std::string> analyst_ids,
    std::vector<QueryOutcome>* outcomes) {
  WallTimer timer;
  const size_t n = queries.size();
  PMW_CHECK_MSG(analyst_ids.empty() || analyst_ids.size() == n,
                "analyst_ids must be empty or aligned with queries");

  // Read phase: prepare every query in parallel against one epoch
  // snapshot. Skipped when the mechanism would reject the whole batch
  // anyway (halted / k exhausted) — rejections never consult a plan, so
  // there is no point burning solver time on one. Plans stay
  // deduplicated: query j's plan is prepared.plans[plan_of[j -
  // prepared_begin]], never deep-copied per position.
  // Ranges are capped at the remaining k-query budget: every committed
  // query consumes one budget slot, so positions past the cap are
  // guaranteed rejections and their plans would never be consulted.
  ShardExecutor::PrepareResult prepared;
  size_t prepared_begin = 0;
  std::shared_ptr<const core::HypothesisSnapshot> snapshot;
  uint64_t batch_prepare_us = 0;
  if (n > 0 && !cm_.WillReject()) {
    size_t prep_end =
        std::min(n, static_cast<size_t>(cm_.queries_remaining()));
    WallTimer prepare_timer;
    snapshot = PublishAndPrepare(queries, 0, prep_end, &prepared);
    batch_prepare_us =
        static_cast<uint64_t>(prepare_timer.ElapsedSeconds() * 1e6);
  }

  // Commit phase: the single writer replays queries in arrival order.
  // All mechanism state — sparse-vector draws, oracle randomness, MW
  // updates, ledger appends — mutates only here, in canonical order,
  // which is what keeps the transcript bit-identical to sequential PmwCm.
  std::vector<Result<convex::Vec>> results;
  results.reserve(n);
  if (outcomes != nullptr) {
    outcomes->clear();
    outcomes->resize(n);
  }
  const int shards = cm_.num_shards();
  for (size_t j = 0; j < n; ++j) {
    const convex::CmQuery& query = queries[j];
    PMW_CHECK(query.loss != nullptr);
    PMW_CHECK(query.domain != nullptr);
    AnalystHandles* analyst =
        analyst_ids.empty() ? nullptr : &HandlesFor(analyst_ids[j]);
    if (analyst != nullptr) analyst->queries->Add(1);
    QueryOutcome* outcome = outcomes != nullptr ? &(*outcomes)[j] : nullptr;
    if (outcome != nullptr) outcome->epoch = cm_.hypothesis_version();

    if (cm_.WillReject()) {
      Result<core::PmwAnswer> rejected =
          cm_.AnswerPrepared(query, core::PreparedQuery{});
      PMW_CHECK(!rejected.ok());
      m_.errors->Add(1);
      if (analyst != nullptr) analyst->errors->Add(1);
      results.push_back(rejected.status());
      continue;
    }

    // A null snapshot means the read phase was skipped; the stale
    // default plan is never trusted by AnswerPrepared.
    static const core::PreparedQuery kStalePlan;
    const size_t plan_slot =
        snapshot != nullptr ? prepared.plan_of[j - prepared_begin] : 0;
    const core::PreparedQuery& plan =
        snapshot != nullptr ? prepared.plans[plan_slot] : kStalePlan;
    if (outcome != nullptr && snapshot != nullptr) {
      outcome->cache_hit = prepared.plan_from_cache[plan_slot] != 0;
    }
    std::fill(shard_us_.begin(), shard_us_.end(), 0);
    WallTimer commit_timer;
    Result<core::PmwAnswer> answer =
        cm_.AnswerPrepared(query, plan, snapshot.get());
    if (outcome != nullptr) {
      outcome->commit_us =
          static_cast<uint64_t>(commit_timer.ElapsedSeconds() * 1e6);
      outcome->solve_us = cm_.last_answer_timing().solve_us;
      outcome->mw_us = cm_.last_answer_timing().mw_us;
      outcome->epoch = cm_.hypothesis_version();
    }
    if (!answer.ok()) {
      m_.errors->Add(1);
      if (analyst != nullptr) analyst->errors->Add(1);
      results.push_back(answer.status());
      continue;
    }
    if (answer.value().was_update) {
      m_.updates->Add(1);
      m_.mw_update_us->Observe(
          static_cast<double>(cm_.last_answer_timing().mw_us));
      if (analyst != nullptr) analyst->updates->Add(1);
      if (outcome != nullptr) outcome->hard_round = true;
      if (outcome != nullptr && shards > 1) {
        outcome->shard_us.reserve(shard_us_.size());
        for (uint64_t us : shard_us_) {
          outcome->shard_us.push_back(static_cast<uint32_t>(
              std::min<uint64_t>(us, UINT32_MAX)));
        }
      }
      // Hard round: the hypothesis changed, so every remaining plan is
      // stale. Advance the epoch and re-prepare the suffix in parallel
      // (bounded by T such rounds over the mechanism's lifetime).
      if (j + 1 < n && !cm_.WillReject()) {
        size_t prep_end = std::min(
            n, j + 1 + static_cast<size_t>(cm_.queries_remaining()));
        WallTimer prepare_timer;
        snapshot = PublishAndPrepare(queries, j + 1, prep_end, &prepared);
        batch_prepare_us +=
            static_cast<uint64_t>(prepare_timer.ElapsedSeconds() * 1e6);
        prepared_begin = j + 1;
        m_.reprepared->Add(static_cast<long long>(prepared.plans.size()));
      }
    } else {
      m_.bottom_answers->Add(1);
    }
    results.push_back(std::move(answer.value().theta));
  }

  // Prepare ran batch-wide (one fan-out per epoch), so its cost is a
  // batch-level span — the same shape as the dispatcher's serve_us.
  if (outcomes != nullptr) {
    for (QueryOutcome& outcome : *outcomes) {
      outcome.prepare_us = batch_prepare_us;
    }
  }

  const double elapsed_ms = timer.ElapsedMillis();
  m_.batches->Add(1);
  m_.queries->Add(static_cast<long long>(n));
  m_.batch_latency_ms->Observe(elapsed_ms);
  if (elapsed_ms > 0.0 && n > 0) {
    const double qps = static_cast<double>(n) / (elapsed_ms / 1e3);
    m_.batch_queries_per_sec->Observe(qps);
  }
  return results;
}

Result<convex::Vec> PmwService::Answer(const convex::CmQuery& query) {
  std::vector<Result<convex::Vec>> results = AnswerBatch({&query, 1});
  return std::move(results.front());
}

}  // namespace serve
}  // namespace pmw
