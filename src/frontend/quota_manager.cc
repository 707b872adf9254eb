#include "frontend/quota_manager.h"

namespace pmw {
namespace frontend {

QuotaManager::QuotaManager(const serve::PmwService* service,
                           const QuotaOptions& options)
    : options_(options),
      oracle_view_(&service->mechanism().ledger(), "oracle:",
                   service->mechanism().schedule().T) {}

Status QuotaManager::Admit(const std::string& analyst_id) {
  // Hard-round budget first: once the schedule's T oracle calls are in
  // the ledger the sparse vector is halted and every downstream answer
  // would be kHalted — reject at the door instead, before queue slots or
  // dispatcher time are spent. Read outside our lock: the ledger has its
  // own, and this check is monotone (once exhausted, always exhausted).
  if (oracle_view_.exhausted()) {
    // kHalted, not kQuotaExceeded: the door is predicting the mechanism's
    // own halt from the ledger, so remote callers see the same code a
    // served query would have produced — just earlier and for free.
    return Status(StatusCode::kHalted,
                  "quota: hard-round budget exhausted (all " +
                      std::to_string(oracle_view_.max_events()) +
                      " oracle calls spent)");
  }

  std::lock_guard<std::mutex> lock(mutex_);
  if (options_.global_queries > 0 &&
      total_admitted_ >= options_.global_queries) {
    return Status(StatusCode::kQuotaExceeded,
                  "quota: global budget of " +
                      std::to_string(options_.global_queries) +
                      " queries exhausted");
  }
  long long& count = admitted_[analyst_id];
  if (options_.per_analyst_queries > 0 &&
      count >= options_.per_analyst_queries) {
    return Status(StatusCode::kQuotaExceeded,
                  "quota: analyst '" + analyst_id + "' exhausted its " +
                      std::to_string(options_.per_analyst_queries) +
                      "-query quota");
  }
  ++count;
  ++total_admitted_;
  return Status::Ok();
}

void QuotaManager::Refund(const std::string& analyst_id) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = admitted_.find(analyst_id);
  if (it == admitted_.end() || it->second <= 0) return;
  --it->second;
  --total_admitted_;
}

long long QuotaManager::admitted(const std::string& analyst_id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = admitted_.find(analyst_id);
  return it != admitted_.end() ? it->second : 0;
}

long long QuotaManager::total_admitted() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return total_admitted_;
}

}  // namespace frontend
}  // namespace pmw
