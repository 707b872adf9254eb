// Online Private Multiplicative Weights for CM queries — the paper's main
// contribution (Figure 3, Theorems 3.8 and 3.9).
//
// The mechanism maintains a public hypothesis histogram D_hat over the data
// universe. For each incoming loss l_j it forms the (3S/n)-sensitive query
//   q_j(D) = err_{l_j}(D, D_hat_t)
// and feeds it to the online sparse vector algorithm. On kBottom it answers
// with the hypothesis's own minimizer (free: no privacy cost). On kTop it
// calls the single-query oracle A' for a private minimizer theta_t, answers
// with it, and performs the paper's key *dual certificate* update: the
// vector
//   u_t(x) = <theta_t - theta_hat_t, grad l_x(theta_hat_t)>
// is a linear query on which D_hat_t errs by at least err - alpha_0
// (Claim 3.5), and a multiplicative-weights step on u_t drives D_hat toward
// D. The regret bound (Lemma 3.4) caps the number of updates at
// T = 64 S^2 log|X| / alpha^2, so the sparse vector never exhausts its
// budget and every one of the k queries is answered within alpha
// (Theorem 3.8).

#ifndef PMWCM_CORE_PMW_CM_H_
#define PMWCM_CORE_PMW_CM_H_

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>

#include "common/random.h"
#include "common/result.h"
#include "core/error.h"
#include "core/sharded_hypothesis.h"
#include "data/dataset.h"
#include "data/histogram.h"
#include "dp/ledger.h"
#include "dp/privacy.h"
#include "dp/sparse_vector.h"
#include "erm/oracle.h"

namespace pmw {
namespace core {

/// Configuration of the Figure 3 algorithm.
struct PmwOptions {
  /// Target accuracy alpha and failure probability beta.
  double alpha = 0.1;
  double beta = 0.05;
  /// Total privacy budget (eps, delta); delta > 0 required.
  dp::PrivacyParams privacy{1.0, 1e-6};
  /// The family scale parameter S (Section 3.2's scaling condition). For
  /// 1-Lipschitz losses over the unit ball, S = 2.
  double scale = 2.0;
  /// k: the number of queries the analyst may ask (enters the sparse
  /// vector's parameters only through documentation; the accuracy bound's
  /// log k lives in the required n).
  long long max_queries = 1024;
  /// Maximum number of MW updates. 0 selects the paper's worst-case
  /// T = ceil(64 S^2 log|X| / alpha^2); benchmarks use small practical
  /// values (the HLM12 regime), which is sound: T only bounds the number
  /// of updates the mechanism may spend.
  int override_updates = 0;
  /// Learning rate. 0 selects the paper's eta = sqrt(log|X| / T).
  double override_eta = 0.0;
  /// ABLATION ONLY: negate the MW exponent (the wrong direction). The
  /// accuracy analysis (Claims 3.5-3.7) breaks; bench_ablation measures
  /// how badly.
  bool flip_update_sign = false;
  /// Inner solver controls.
  convex::SolverOptions solver;
};

/// The derived parameters of Figure 3.
struct PmwSchedule {
  int T = 0;            // update budget
  double eta = 0.0;     // MW learning rate
  dp::PrivacyParams oracle_budget;  // (eps0, delta0) per A' call
  dp::PrivacyParams sv_budget;      // (eps/2, delta/2) for sparse vector
  double alpha0 = 0.0;  // oracle accuracy target alpha/4
  double beta0 = 0.0;   // oracle failure target beta/(2T)

  /// Computes the schedule exactly as printed in Figure 3.
  static PmwSchedule Compute(const PmwOptions& options, double log_universe);

  /// Theorem 3.8's sufficient dataset size:
  /// max(n', 4096 S^2 sqrt(log|X| log(4/delta)) log(8k/beta)/(eps alpha^2)).
  static double TheoremRequiredN(const PmwOptions& options,
                                 double log_universe, double oracle_n);
};

/// Per-query outcome (the mechanism's released transcript entry).
struct PmwAnswer {
  convex::Vec theta;
  /// True when this query triggered an A' call and a MW update.
  bool was_update = false;
};

/// Wall-clock breakdown of the most recent AnswerPrepared call, reset on
/// entry: the private oracle solve (hard rounds only) and the MW-update
/// path (dual-certificate payoff + sharded reweigh/renormalize, the work
/// the domain shards parallelize). Bookkeeping only — never influences
/// answers; the serving layer copies it into trace spans and its MW
/// update histogram.
struct AnswerTiming {
  uint64_t solve_us = 0;
  uint64_t mw_us = 0;
};

/// A compacted copy of the hypothesis histogram tagged with the
/// hypothesis_version() it was taken at. Batch callers snapshot once and
/// prepare many queries against it; the version tag travels into every
/// PreparedQuery so staleness is always detectable.
struct HypothesisSnapshot {
  data::HistogramSupport support;
  int version = 0;
};

/// The deterministic, data-independent-randomness part of answering one
/// query: the hypothesis minimizer theta_hat_t and the error-query value
/// q_j(D) fed to the sparse vector. Computing it touches no mechanism
/// state and draws no randomness, so a serving layer may precompute and
/// reuse it for repeated queries — it stays valid until the hypothesis
/// histogram changes (i.e. while hypothesis_version() is unchanged).
struct PreparedQuery {
  convex::Vec theta_hat;
  double query_value = 0.0;
  /// min_theta l_D(theta), the dataset side of q_j(D). It depends only on
  /// the query and the dataset, never on the hypothesis, so it outlives
  /// the plan's version: PmwCm::Prepare takes it from an earlier plan of
  /// the same query instead of solving again. NaN when not computed.
  double data_min = std::numeric_limits<double>::quiet_NaN();
  /// The snapshot version this plan was computed against. Defaults to -1
  /// (never a real version) so a default-constructed plan is always
  /// treated as stale and recomputed, never trusted.
  int hypothesis_version = -1;
};

/// The hypothesis side of a PreparedQuery: theta_hat_t = argmin l_{D_hat_t}
/// on one snapshot and the dataset's loss at it, l_D(theta_hat_t). The
/// other side, min l_D, is a plain double; PmwCm::CombinePlan joins them.
struct HypothesisSide {
  convex::Vec theta_hat;
  double data_loss = 0.0;
  int hypothesis_version = -1;
};

/// The interactive mechanism. One instance serves one dataset and up to
/// max_queries adaptively chosen CM queries.
class PmwCm {
 public:
  /// `dataset` and `oracle` must outlive the mechanism. The dataset's
  /// universe provides |X|.
  PmwCm(const data::Dataset* dataset, erm::Oracle* oracle,
        const PmwOptions& options, uint64_t seed);

  /// Answers the next query; Status kHalted when the sparse vector has
  /// exhausted its T updates (Theorem 3.8 guarantees this cannot happen
  /// at the theorem's n; at practical parameters it is observable).
  /// Equivalent to AnswerPrepared(query, Prepare(query)).
  Result<PmwAnswer> AnswerQuery(const convex::CmQuery& query);

  /// One compaction pass over the current hypothesis, tagged with its
  /// version. The serving layer snapshots once per batch instead of once
  /// per query.
  HypothesisSnapshot SnapshotHypothesis() const;

  /// Computes theta_hat_t and the error-query value for `query` against the
  /// given hypothesis snapshot (or a fresh one). Deterministic and const:
  /// answering with the result via AnswerPrepared is indistinguishable from
  /// AnswerQuery. The plan inherits the snapshot's version, so preparing
  /// against a stale snapshot yields a plan AnswerPrepared will recompute
  /// rather than trust.
  ///
  /// Prepare is CombinePlan(PrepareHypothesisSide(query, snapshot),
  /// data_min), where data_min is earlier->data_min when `earlier` is
  /// non-null and its data_min is not NaN, and PrepareDataSide(query)
  /// otherwise. The caller vouches that `earlier` was prepared for this
  /// same query by this mechanism (at any version) — serve::PlanCache's
  /// key pins exactly that. Reuse returns the bits a fresh solve would,
  /// so the plan is identical either way.
  ///
  /// Thread safety: Prepare and its two halves draw no randomness and
  /// touch only state that is immutable after construction (the error
  /// oracle, the data support) plus the caller-supplied snapshot, so any
  /// number of threads may run them concurrently against const snapshots
  /// — the epoch-read path of serve::PmwService, which runs a query's two
  /// halves as separate tasks. The snapshot-less overload reads the live
  /// hypothesis and is NOT safe concurrently with AnswerPrepared; neither
  /// is any concurrent call to AnswerPrepared itself (single writer).
  PreparedQuery Prepare(const convex::CmQuery& query) const;
  PreparedQuery Prepare(const convex::CmQuery& query,
                        const HypothesisSnapshot& snapshot,
                        const PreparedQuery* earlier = nullptr) const;

  /// The hypothesis half of Prepare: theta_hat_t solved on `snapshot`
  /// and l_D(theta_hat_t), tagged with the snapshot's version.
  HypothesisSide PrepareHypothesisSide(
      const convex::CmQuery& query, const HypothesisSnapshot& snapshot) const;

  /// The data half of Prepare: min_theta l_D(theta). It depends only on
  /// the query and the dataset, never on the hypothesis.
  double PrepareDataSide(const convex::CmQuery& query) const;

  /// Joins the two halves into a plan: q_j(D) = err_l(D, D_hat_t) =
  /// max(l_D(theta_hat_t) - min l_D, 0), in ErrorOracle::AnswerError's
  /// operation order. The one place a plan's query value is formed.
  static PreparedQuery CombinePlan(HypothesisSide side, double data_min);

  /// Answers using a precomputed PreparedQuery. If `prepared` was computed
  /// at an older hypothesis_version() it is ignored and recomputed in
  /// full (its data_min is not borrowed either), so a stale or mismatched
  /// plan costs time, never correctness. A non-null
  /// `current_snapshot` at the live version serves that recompute without
  /// a fresh compaction pass (the serving layer always has one in hand);
  /// a stale or null one falls back to snapshotting internally.
  Result<PmwAnswer> AnswerPrepared(const convex::CmQuery& query,
                                   const PreparedQuery& prepared,
                                   const HypothesisSnapshot* current_snapshot =
                                       nullptr);

  /// True when the next AnswerQuery call would be rejected (halted sparse
  /// vector or exhausted k-query budget); lets callers skip Prepare work
  /// for queries that cannot be served.
  bool WillReject() const {
    return halted() || queries_answered_ >= options_.max_queries;
  }

  /// Queries left in the k-query budget (0 when exhausted); lets batch
  /// callers cap how many plans are worth preparing.
  long long queries_remaining() const {
    return std::max(options_.max_queries - queries_answered_, 0LL);
  }

  /// Increments exactly when the hypothesis histogram changes (one MW
  /// update per kTop answer) and never otherwise, so equal versions mean
  /// equal hypotheses: the one key of serve::PlanCache and of epoch
  /// snapshot reuse.
  int hypothesis_version() const { return update_count_; }

  /// Rebuilds the (still uniform) hypothesis with its serving layout:
  /// `shards` domain shards (rounded down to a power of two, clamped to
  /// the universe size), the per-shard executor for the MW update's
  /// parallel phases (null keeps them inline), the storage backend, and
  /// optionally a remote executor of those phases (the cluster combiner;
  /// requires kDense; must outlive the mechanism). Must be called before
  /// any query is answered. The layout never changes answers
  /// (core/sharded_hypothesis.h explains why), except sparse approx mode,
  /// which non-default SparseHypothesisOptions opt into. Returns the
  /// actual count.
  int ConfigureSharding(int shards, ShardRunner runner,
                        HypothesisBackend backend,
                        const SparseHypothesisOptions& sparse = {},
                        HypothesisDelegate* delegate = nullptr);

  HypothesisBackend hypothesis_backend() const {
    return hypothesis_.backend();
  }
  /// Hypothesis entries held in this process (|X| under local kDense,
  /// 0 with a delegate) — the sparse backend's memory observable.
  long long materialized_entries() const {
    return hypothesis_.materialized_entries();
  }

  int num_shards() const { return hypothesis_.num_shards(); }

  /// Solve/MW breakdown of the last AnswerPrepared call (zeros on bottom
  /// answers and rejections).
  const AnswerTiming& last_answer_timing() const {
    return last_answer_timing_;
  }

  /// A dense copy of the public hypothesis histogram (also a synthetic
  /// dataset release; see the paper's Section 4.3 remark).
  data::Histogram hypothesis() const { return hypothesis_.ToHistogram(); }

  const PmwSchedule& schedule() const { return schedule_; }
  int update_count() const { return update_count_; }
  long long queries_answered() const { return queries_answered_; }
  bool halted() const { return sparse_vector_->halted(); }

  /// Audit trail of every differentially private access.
  const dp::PrivacyLedger& ledger() const { return ledger_; }

 private:
  const data::Dataset* dataset_;
  erm::Oracle* oracle_;
  PmwOptions options_;
  PmwSchedule schedule_;
  ErrorOracle error_oracle_;
  /// Compacted once at construction; the data histogram never changes, so
  /// only its support is kept.
  data::HistogramSupport data_support_;
  ShardedHypothesis hypothesis_;
  std::unique_ptr<dp::SparseVector> sparse_vector_;
  dp::PrivacyLedger ledger_;
  Rng rng_;
  AnswerTiming last_answer_timing_;
  int update_count_ = 0;
  long long queries_answered_ = 0;
};

}  // namespace core
}  // namespace pmw

#endif  // PMWCM_CORE_PMW_CM_H_
