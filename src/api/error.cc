#include "api/error.h"

#include <utility>

namespace pmw {
namespace api {

const char* ErrorCodeName(ErrorCode code) {
  switch (code) {
    case ErrorCode::kOk:
      return "kOk";
    case ErrorCode::kQuotaExceeded:
      return "kQuotaExceeded";
    case ErrorCode::kBudgetExhausted:
      return "kBudgetExhausted";
    case ErrorCode::kHalted:
      return "kHalted";
    case ErrorCode::kDeadlineExpired:
      return "kDeadlineExpired";
    case ErrorCode::kMalformedRequest:
      return "kMalformedRequest";
    case ErrorCode::kVersionMismatch:
      return "kVersionMismatch";
    case ErrorCode::kUnknownQuery:
      return "kUnknownQuery";
    case ErrorCode::kShutdown:
      return "kShutdown";
    case ErrorCode::kNotConverged:
      return "kNotConverged";
    case ErrorCode::kTransportError:
      return "kTransportError";
    case ErrorCode::kInternal:
      return "kInternal";
    case ErrorCode::kShardUnavailable:
      return "kShardUnavailable";
    case ErrorCode::kAuthRequired:
      return "kAuthRequired";
  }
  return "kInternal";
}

StatusCode LegacyCode(ErrorCode code) {
  switch (code) {
    case ErrorCode::kOk:
      return StatusCode::kOk;
    case ErrorCode::kQuotaExceeded:
    case ErrorCode::kBudgetExhausted:
      return StatusCode::kResourceExhausted;
    case ErrorCode::kHalted:
      return StatusCode::kHalted;
    case ErrorCode::kDeadlineExpired:
      return StatusCode::kDeadlineExceeded;
    case ErrorCode::kMalformedRequest:
    case ErrorCode::kUnknownQuery:
      return StatusCode::kInvalidArgument;
    case ErrorCode::kVersionMismatch:
    case ErrorCode::kShutdown:
      return StatusCode::kFailedPrecondition;
    case ErrorCode::kNotConverged:
      return StatusCode::kNotConverged;
    case ErrorCode::kTransportError:
    case ErrorCode::kInternal:
    case ErrorCode::kShardUnavailable:
      return StatusCode::kInternal;
    case ErrorCode::kAuthRequired:
      return StatusCode::kFailedPrecondition;
  }
  return StatusCode::kInternal;
}

Status MakeStatus(ErrorCode code, const std::string& detail) {
  if (code == ErrorCode::kOk) return Status::Ok();
  // Appends, not `"[" + ...`: GCC 12 Release builds flag the temporaries'
  // concatenation with a false-positive -Wrestrict.
  std::string message = "[";
  message += ErrorCodeName(code);
  message += "] ";
  message += detail;
  return Status(LegacyCode(code), message);
}

namespace {

/// Parses the canonical "[kCodeName] " tag, if present.
bool ParseTag(const std::string& message, ErrorCode* code) {
  if (message.empty() || message.front() != '[') return false;
  const size_t close = message.find("] ");
  if (close == std::string::npos) return false;
  const std::string name = message.substr(1, close - 1);
  for (uint16_t raw = 0; raw <= static_cast<uint16_t>(kMaxErrorCode);
       ++raw) {
    const ErrorCode candidate = static_cast<ErrorCode>(raw);
    if (name == ErrorCodeName(candidate)) {
      *code = candidate;
      return true;
    }
  }
  return false;
}

}  // namespace

ErrorCode ClassifyStatus(const Status& status) {
  if (status.ok()) return ErrorCode::kOk;
  ErrorCode tagged;
  if (ParseTag(status.message(), &tagged)) return tagged;
  // Untagged legacy statuses: a total classification of what the lower
  // layers emit today.
  switch (status.code()) {
    case StatusCode::kOk:
      return ErrorCode::kOk;
    case StatusCode::kHalted:
      // core::PmwCm / dp::SparseVector: "sparse vector exhausted its T
      // updates".
      return ErrorCode::kHalted;
    case StatusCode::kResourceExhausted:
      // Pre-taxonomy QuotaManager used a "quota:" message prefix to
      // distinguish front-door rejections from the mechanism's own
      // "k queries already answered".
      return status.message().find("quota") != std::string::npos
                 ? ErrorCode::kQuotaExceeded
                 : ErrorCode::kBudgetExhausted;
    case StatusCode::kDeadlineExceeded:
      return ErrorCode::kDeadlineExpired;
    case StatusCode::kInvalidArgument:
      // Oracles/solvers reject ill-formed queries (wrong loss family,
      // delta <= 0): the request was malformed as far as the protocol is
      // concerned.
      return ErrorCode::kMalformedRequest;
    case StatusCode::kFailedPrecondition:
      // frontend::Dispatcher: "dispatcher is shut down".
      return status.message().find("shut down") != std::string::npos
                 ? ErrorCode::kShutdown
                 : ErrorCode::kInternal;
    case StatusCode::kNotConverged:
      return ErrorCode::kNotConverged;
    case StatusCode::kInternal:
      return ErrorCode::kInternal;
  }
  return ErrorCode::kInternal;
}

Status ToStatus(ErrorCode code, std::string message) {
  if (code == ErrorCode::kOk) return Status::Ok();
  return Status(LegacyCode(code), std::move(message));
}

}  // namespace api
}  // namespace pmw
