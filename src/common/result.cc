#include "common/result.h"

#include <ostream>

namespace pmw {

const char* StatusCodeName(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "kOk";
    case StatusCode::kQuotaExceeded:
      return "kQuotaExceeded";
    case StatusCode::kBudgetExhausted:
      return "kBudgetExhausted";
    case StatusCode::kHalted:
      return "kHalted";
    case StatusCode::kDeadlineExpired:
      return "kDeadlineExpired";
    case StatusCode::kMalformedRequest:
      return "kMalformedRequest";
    case StatusCode::kVersionMismatch:
      return "kVersionMismatch";
    case StatusCode::kUnknownQuery:
      return "kUnknownQuery";
    case StatusCode::kShutdown:
      return "kShutdown";
    case StatusCode::kNotConverged:
      return "kNotConverged";
    case StatusCode::kTransportError:
      return "kTransportError";
    case StatusCode::kInternal:
      return "kInternal";
    case StatusCode::kShardUnavailable:
      return "kShardUnavailable";
    case StatusCode::kAuthRequired:
      return "kAuthRequired";
  }
  return "kInternal";
}

void PrintTo(StatusCode code, std::ostream* os) {
  *os << StatusCodeName(code);
}

}  // namespace pmw
