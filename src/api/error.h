// The error vocabulary of the pmw::api protocol.
//
// Every layer mints its recoverable errors with a common::StatusCode —
// the mechanism (core::PmwCm: kHalted, kBudgetExhausted), admission
// control (frontend::QuotaManager / Dispatcher: kQuotaExceeded, kShutdown,
// kDeadlineExpired), the solvers' argument checks (kMalformedRequest) and
// the transports and shard workers (kTransportError, kShardUnavailable).
// The wire carries that same code as a u16 in every AnswerEnvelope, so a
// remote client switches on the code a server-side Status held, never on
// its message. ErrorCode is that enum under its protocol name.

#ifndef PMWCM_API_ERROR_H_
#define PMWCM_API_ERROR_H_

#include "common/result.h"

namespace pmw {
namespace api {

using ErrorCode = StatusCode;

/// The highest assigned code — the codec degrades anything above it to
/// kInternal. Bump it when appending a code (the name switch in
/// common/result.cc warns under -Wall if the new code is forgotten there).
inline constexpr ErrorCode kMaxErrorCode = ErrorCode::kAuthRequired;

/// Stable name, e.g. "kQuotaExceeded": StatusCodeName under its protocol
/// name.
inline constexpr auto& ErrorCodeName = StatusCodeName;

}  // namespace api
}  // namespace pmw

#endif  // PMWCM_API_ERROR_H_
