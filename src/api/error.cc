#include "api/error.h"

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

}  // namespace api
}  // namespace pmw
