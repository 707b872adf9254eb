#include "core/pmw_cm.h"

#include <cmath>
#include <utility>

#include "common/check.h"
#include "common/logging.h"
#include "common/timer.h"

namespace pmw {
namespace core {

PmwSchedule PmwSchedule::Compute(const PmwOptions& options,
                                 double log_universe) {
  PMW_CHECK_GT(options.alpha, 0.0);
  PMW_CHECK_GT(options.beta, 0.0);
  PMW_CHECK_GT(options.scale, 0.0);
  PMW_CHECK_GT(log_universe, 0.0);
  dp::ValidatePrivacyParams(options.privacy);
  PMW_CHECK_MSG(options.privacy.delta > 0.0,
                "Figure 3 requires delta > 0 (strong composition)");

  PmwSchedule s;
  if (options.override_updates > 0) {
    s.T = options.override_updates;
  } else {
    // T = 64 S^2 log|X| / alpha^2 (Figure 3).
    s.T = static_cast<int>(std::ceil(64.0 * options.scale * options.scale *
                                     log_universe /
                                     (options.alpha * options.alpha)));
  }
  PMW_CHECK_GE(s.T, 1);
  s.eta = options.override_eta > 0.0 ? options.override_eta
                                     : std::sqrt(log_universe / s.T);
  const double eps = options.privacy.epsilon;
  const double delta = options.privacy.delta;
  // eps0 = eps / sqrt(8 T log(4/delta)), delta0 = delta/(4T) (Figure 3);
  // the T-fold strong composition of the oracle calls then stays within
  // (eps/2 + o(eps), delta/2), and the sparse vector gets (eps/2, delta/2).
  s.oracle_budget.epsilon =
      eps / std::sqrt(8.0 * s.T * std::log(4.0 / delta));
  s.oracle_budget.delta = delta / (4.0 * s.T);
  s.sv_budget = {eps / 2.0, delta / 2.0};
  s.alpha0 = options.alpha / 4.0;
  s.beta0 = options.beta / (2.0 * s.T);
  return s;
}

double PmwSchedule::TheoremRequiredN(const PmwOptions& options,
                                     double log_universe, double oracle_n) {
  const double s = options.scale;
  const double eps = options.privacy.epsilon;
  const double delta = options.privacy.delta;
  const double alpha = options.alpha;
  const double beta = options.beta;
  const double k = static_cast<double>(options.max_queries);
  double pmw_n = 4096.0 * s * s *
                 std::sqrt(log_universe * std::log(4.0 / delta)) *
                 std::log(8.0 * k / beta) / (eps * alpha * alpha);
  return std::max(oracle_n, pmw_n);
}

PmwCm::PmwCm(const data::Dataset* dataset, erm::Oracle* oracle,
             const PmwOptions& options, uint64_t seed)
    : dataset_(dataset),
      oracle_(oracle),
      options_(options),
      schedule_(PmwSchedule::Compute(options, dataset->universe().LogSize())),
      error_oracle_(&dataset->universe(), options.solver),
      data_support_(data::Histogram::FromDataset(*dataset).CompactSupport()),
      hypothesis_(dataset->universe().size()),
      rng_(seed) {
  PMW_CHECK(oracle != nullptr);
  dp::SparseVector::Options sv_options;
  sv_options.max_top_answers = schedule_.T;
  sv_options.alpha = options_.alpha;
  // The error queries are (3S/n)-sensitive (Section 3.4.2).
  sv_options.sensitivity =
      3.0 * options_.scale / static_cast<double>(dataset->n());
  sv_options.privacy = schedule_.sv_budget;
  sparse_vector_ =
      std::make_unique<dp::SparseVector>(sv_options, rng_.NextSeed());
  ledger_.Record("sparse-vector", schedule_.sv_budget);
}

Result<PmwAnswer> PmwCm::AnswerQuery(const convex::CmQuery& query) {
  if (WillReject()) {
    // Rejected before the plan would be consulted; skip the solves.
    return AnswerPrepared(query, PreparedQuery{});
  }
  return AnswerPrepared(query, Prepare(query));
}

int PmwCm::ConfigureSharding(int shards, ShardRunner runner) {
  return ConfigureSharding(shards, std::move(runner),
                           HypothesisBackend::kDense);
}

int PmwCm::ConfigureSharding(int shards, ShardRunner runner,
                             HypothesisBackend backend,
                             const SparseHypothesisOptions& sparse) {
  PMW_CHECK_MSG(queries_answered_ == 0 && update_count_ == 0,
                "sharding must be configured before the first query");
  hypothesis_.SetBackend(backend, sparse);
  const int actual = hypothesis_.Repartition(shards);
  hypothesis_.set_runner(std::move(runner));
  return actual;
}

void PmwCm::SetHypothesisDelegate(HypothesisDelegate* delegate) {
  PMW_CHECK_MSG(queries_answered_ == 0 && update_count_ == 0,
                "the delegate must be installed before the first query");
  hypothesis_.SetDelegate(delegate);
}

HypothesisSnapshot PmwCm::SnapshotHypothesis() const {
  return {hypothesis_.CompactSupport(), update_count_};
}

PreparedQuery PmwCm::Prepare(const convex::CmQuery& query) const {
  return Prepare(query, SnapshotHypothesis());
}

PreparedQuery PmwCm::Prepare(const convex::CmQuery& query,
                             const HypothesisSnapshot& snapshot,
                             const PreparedQuery* earlier) const {
  PMW_CHECK(query.loss != nullptr);
  PMW_CHECK(query.domain != nullptr);

  PreparedQuery prepared;
  // theta_hat_t = argmin over the public hypothesis (no privacy cost).
  prepared.theta_hat = error_oracle_.Minimize(query, snapshot.support);
  // min l_D never depends on the hypothesis: an earlier plan of this
  // query holds the very bits the solve would return.
  prepared.data_min =
      earlier != nullptr && !std::isnan(earlier->data_min)
          ? earlier->data_min
          : error_oracle_.MinimumValue(query, data_support_);
  // q_j(D) = err_l(D, D_hat_t) = l_D(theta_hat) - min l_D, clamped at 0
  // in ErrorOracle::AnswerError's operation order.
  const double excess =
      error_oracle_.Loss(query, data_support_, prepared.theta_hat) -
      prepared.data_min;
  prepared.query_value = std::max(excess, 0.0);
  prepared.hypothesis_version = snapshot.version;
  return prepared;
}

Result<PmwAnswer> PmwCm::AnswerPrepared(
    const convex::CmQuery& query, const PreparedQuery& prepared,
    const HypothesisSnapshot* current_snapshot) {
  PMW_CHECK(query.loss != nullptr);
  PMW_CHECK(query.domain != nullptr);
  last_answer_timing_ = AnswerTiming{};
  if (halted()) {
    return Status::Halted("pmw-cm: sparse vector exhausted its T updates");
  }
  if (queries_answered_ >= options_.max_queries) {
    return Status::ResourceExhausted("pmw-cm: k queries already answered");
  }
  ++queries_answered_;

  convex::Vec theta_hat;
  double query_value;
  if (prepared.hypothesis_version == update_count_) {
    theta_hat = prepared.theta_hat;
    query_value = prepared.query_value;
  } else {
    // Stale plan (prepared before an MW update): recompute. Prepare is
    // deterministic, so the recompute path is transcript-identical to a
    // fresh plan; a caller-held snapshot at the live version just skips
    // the compaction pass.
    PreparedQuery fresh;
    if (current_snapshot != nullptr &&
        current_snapshot->version == update_count_) {
      fresh = Prepare(query, *current_snapshot);
    } else {
      fresh = Prepare(query);
    }
    theta_hat = std::move(fresh.theta_hat);
    query_value = fresh.query_value;
  }

  // The only access to D flows through the sparse vector's noisy threshold
  // test on the precomputed query value.
  Result<dp::SparseVector::Answer> sv_answer =
      sparse_vector_->Process(query_value);
  if (!sv_answer.ok()) return sv_answer.status();

  if (*sv_answer == dp::SparseVector::Answer::kBottom) {
    PmwAnswer answer;
    answer.theta = std::move(theta_hat);
    answer.was_update = false;
    return answer;
  }

  // kTop: the hypothesis is (noisily) alpha/2-inaccurate. Obtain a private
  // approximate minimizer from A'.
  erm::OracleContext context;
  context.privacy = schedule_.oracle_budget;
  context.target_alpha = schedule_.alpha0;
  context.target_beta = schedule_.beta0;
  WallTimer solve_timer;
  Result<convex::Vec> oracle_answer =
      oracle_->Solve(query, *dataset_, context, &rng_);
  last_answer_timing_.solve_us =
      static_cast<uint64_t>(solve_timer.ElapsedSeconds() * 1e6);
  if (!oracle_answer.ok()) return oracle_answer.status();
  convex::Vec theta_t = std::move(oracle_answer).value();
  ledger_.Record("oracle:" + oracle_->name(), schedule_.oracle_budget);

  // Dual certificate (the paper's key new step):
  //   u_t(x) = <theta_t - theta_hat_t, grad l_x(theta_hat_t)>.
  // The loop over x is elementwise, so each domain shard evaluates its
  // own [lo, hi) slice — the parallel half of the MW-update path.
  WallTimer mw_timer;
  const data::Universe& universe = dataset_->universe();
  convex::Vec direction = convex::Sub(theta_t, theta_hat);
  std::vector<double> payoff(universe.size());
  hypothesis_.RunShards(
      [this, &query, &theta_hat, &direction, &universe, &payoff](int s) {
        const HypothesisShard& shard = hypothesis_.shard(s);
        for (int x = shard.lo; x < shard.hi; ++x) {
          convex::Vec grad =
              query.loss->Gradient(theta_hat, universe.row(x));
          payoff[static_cast<size_t>(x)] = convex::Dot(direction, grad);
        }
      });

  // MW step D_{t+1}(x) ~ exp(-eta u_t(x)/S) D_t(x): mass moves away from
  // records where the hypothesis over-weights the certificate (payoffs are
  // normalized to [-1, 1] by S so eta = sqrt(log|X|/T) is the standard MW
  // tuning; see the regret accounting in DESIGN.md). Sharded: K per-shard
  // reweighs plus the O(K) normalizer combine, bit-identical at any K.
  double exponent = -schedule_.eta / options_.scale;
  if (options_.flip_update_sign) exponent = -exponent;  // ablation only
  const Status mw_status = hypothesis_.MultiplicativeUpdate(payoff, exponent);
  if (!mw_status.ok()) {
    // Only reachable with a cluster delegate whose own bounded recovery
    // already failed: the hypothesis is unchanged (update_count() still
    // gates plan caches correctly) but the oracle access above IS on the
    // ledger — the caller sees a typed unavailability error, and a
    // replayed run that never lost the worker proceeds identically up to
    // this query.
    return mw_status;
  }
  ++update_count_;
  last_answer_timing_.mw_us =
      static_cast<uint64_t>(mw_timer.ElapsedSeconds() * 1e6);
  PMW_LOG(kDebug) << "pmw-cm update " << update_count_ << "/" << schedule_.T
                  << " on " << query.label;

  PmwAnswer answer;
  answer.theta = std::move(theta_t);
  answer.was_update = true;
  return answer;
}

}  // namespace core
}  // namespace pmw
