#include "cluster/slice_host.h"

#include <cmath>
#include <string>
#include <utility>

#include "api/error.h"

namespace pmw {
namespace cluster {
namespace {

Status WorkerError(const std::string& detail) {
  return Status(api::ErrorCode::kMalformedRequest, "worker: " + detail);
}

}  // namespace

std::vector<double> EncodeIndexPairs(const data::HistogramSupport& support) {
  std::vector<double> pairs;
  pairs.reserve(support.size() * 2);
  for (const auto& [index, value] : support) {
    pairs.push_back(static_cast<double>(index));
    pairs.push_back(value);
  }
  return pairs;
}

Result<data::HistogramSupport> DecodeIndexPairs(
    const std::vector<double>& pairs, int lo, int hi) {
  const auto malformed = [](const std::string& detail) {
    return Status(api::ErrorCode::kMalformedRequest, "index pairs: " + detail);
  };
  if (pairs.size() % 2 != 0) {
    return malformed("odd payload length " + std::to_string(pairs.size()));
  }
  data::HistogramSupport support;
  support.reserve(pairs.size() / 2);
  for (size_t k = 0; k < pairs.size(); k += 2) {
    const double raw = pairs[k];
    const double value = pairs[k + 1];
    // Compare as doubles first: NaN fails both tests, and only values
    // inside [lo, hi) — hence inside int — are ever converted.
    if (!(raw >= lo && raw < hi)) {
      return malformed("index " + std::to_string(raw) + " outside [" +
                       std::to_string(lo) + ", " + std::to_string(hi) + ")");
    }
    const int index = static_cast<int>(raw);
    if (static_cast<double>(index) != raw) {
      return malformed("index " + std::to_string(raw) + " is not an integer");
    }
    if (!support.empty() && index <= support.back().first) {
      return malformed("index " + std::to_string(index) +
                       " does not increase past " +
                       std::to_string(support.back().first));
    }
    if (!(value > 0.0) || !std::isfinite(value)) {
      return malformed("value " + std::to_string(value) + " at index " +
                       std::to_string(index) + " is not a positive mass");
    }
    support.emplace_back(index, value);
  }
  return support;
}

Status SliceHost::Configure(int domain_size, int num_shards, int group_lo,
                            int group_hi) {
  if (domain_size < 1) {
    return WorkerError("configure: domain size " +
                       std::to_string(domain_size) + " < 1");
  }
  std::vector<core::HypothesisShard> partition =
      core::PartitionDomain(domain_size, num_shards);
  if (static_cast<int>(partition.size()) != num_shards) {
    // The combiner must send the ALREADY-clamped power-of-two count its
    // own ShardedHypothesis settled on; a disagreement here means the
    // two processes would disagree on every shard boundary.
    return WorkerError("configure: num_shards " +
                       std::to_string(num_shards) + " is not the " +
                       std::to_string(partition.size()) +
                       "-shard partition PartitionDomain produces");
  }
  if (group_lo < 0 || group_hi <= group_lo ||
      group_hi > static_cast<int>(partition.size())) {
    return WorkerError("configure: shard group [" +
                       std::to_string(group_lo) + ", " +
                       std::to_string(group_hi) + ") out of bounds for " +
                       std::to_string(partition.size()) + " shards");
  }
  std::vector<core::HypothesisShard> group(partition.begin() + group_lo,
                                           partition.begin() + group_hi);
  slice_.emplace(domain_size, std::move(group));
  updates_applied_ = 0;
  phase_ = Phase::kIdle;
  return Status::Ok();
}

Status SliceHost::Reweigh(uint64_t update_seq,
                          const std::vector<double>& payoff, double eta,
                          std::vector<double>* local_max) {
  if (!configured()) return WorkerError("reweigh before configure");
  if (update_seq != updates_applied_) {
    // A stale or future sequence number: this worker's slice is not at
    // the state the combiner thinks it is (typically: the worker
    // restarted and lost everything past configure). The typed rejection
    // is what triggers the combiner's replay.
    return WorkerError("reweigh: update seq " + std::to_string(update_seq) +
                       " does not match applied count " +
                       std::to_string(updates_applied_));
  }
  if (payoff.size() != static_cast<size_t>(end() - base())) {
    return WorkerError("reweigh: payoff slice has " +
                       std::to_string(payoff.size()) + " entries, owned " +
                       "range has " + std::to_string(end() - base()));
  }
  phase_ = Phase::kReweighed;
  return slice_->Reweigh(payoff, eta, local_max);
}

Status SliceHost::Partials(uint64_t update_seq, double global_max,
                           std::vector<double>* local_sum) {
  if (!configured()) return WorkerError("partials before configure");
  if (update_seq != updates_applied_ || phase_ == Phase::kIdle) {
    return WorkerError(
        "partials: update seq " + std::to_string(update_seq) +
        " is not the reweighed update (applied count " +
        std::to_string(updates_applied_) + ")");
  }
  phase_ = Phase::kSummed;
  return slice_->PartialSums(global_max, local_sum);
}

Status SliceHost::Normalize(uint64_t update_seq, double total) {
  if (!configured()) return WorkerError("normalize before configure");
  if (update_seq != updates_applied_ || phase_ != Phase::kSummed) {
    return WorkerError(
        "normalize: update seq " + std::to_string(update_seq) +
        " is not the summed update (applied count " +
        std::to_string(updates_applied_) + ")");
  }
  ++updates_applied_;
  phase_ = Phase::kIdle;
  return slice_->Normalize(total);
}

Status SliceHost::Restore(uint64_t update_seq,
                          const std::vector<double>& pairs) {
  if (!configured()) return WorkerError("restore before configure");
  // Decode in full before touching the slice: a half-applied restore
  // would leave it in a state no replay can fix.
  Result<data::HistogramSupport> entries =
      DecodeIndexPairs(pairs, base(), end());
  if (!entries.ok()) {
    return WorkerError("restore: " + entries.status().message());
  }
  slice_->Restore(entries.value());
  updates_applied_ = update_seq;
  phase_ = Phase::kIdle;
  return Status::Ok();
}

Result<data::HistogramSupport> SliceHost::Snapshot(int lo, int hi) {
  if (!configured()) return WorkerError("snapshot before configure");
  if (lo < base() || hi > end() || lo > hi) {
    return WorkerError("snapshot: range [" + std::to_string(lo) + ", " +
                       std::to_string(hi) + ") outside owned [" +
                       std::to_string(base()) + ", " +
                       std::to_string(end()) + ")");
  }
  return slice_->Snapshot(lo, hi);
}

}  // namespace cluster
}  // namespace pmw
