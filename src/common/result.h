// Lightweight Status / Result types for recoverable errors.
//
// The library does not use exceptions (Google style). Programmer errors are
// PMW_CHECKed; conditions a caller can reasonably react to (a halted sparse
// vector, an exhausted privacy budget, a malformed request) travel through
// Status / Result<T>.

#ifndef PMWCM_COMMON_RESULT_H_
#define PMWCM_COMMON_RESULT_H_

#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>

#include "common/check.h"

namespace pmw {

/// The stack's one error vocabulary: every Status carries one of these,
/// and the api protocol puts the same u16 on the wire (api::ErrorCode is
/// an alias). Values are wire-stable: existing entries must never be
/// renumbered (append only, then bump api::kMaxErrorCode and
/// StatusCodeName).
enum class StatusCode : uint16_t {
  kOk = 0,
  /// A front-door query quota (per-analyst or global) rejected the
  /// request before it reached the mechanism. Zero privacy cost.
  kQuotaExceeded = 1,
  /// The mechanism's k-query budget is spent.
  kBudgetExhausted = 2,
  /// The sparse vector exhausted its T hard rounds (mechanism halted, or
  /// admission predicted the halt from the ledger).
  kHalted = 3,
  /// The request's deadline passed before it was served. Zero privacy
  /// cost: expiry is detected before the mechanism sees the query.
  kDeadlineExpired = 4,
  /// The request frame failed to decode (bad framing, truncated or
  /// corrupt fields) or carried invalid arguments.
  kMalformedRequest = 5,
  /// The frame's protocol version is outside the range this endpoint
  /// speaks.
  kVersionMismatch = 6,
  /// The request named a query the server's catalog does not hold.
  kUnknownQuery = 7,
  /// The endpoint (or its dispatcher) is shut down.
  kShutdown = 8,
  /// An inner solver failed to converge. Nothing mints it today; the
  /// number stays assigned because wire codes are append-only.
  kNotConverged = 9,
  /// The transport failed (broken socket, closed channel).
  kTransportError = 10,
  kInternal = 11,
  /// A shard-group worker is unreachable (connect refused, RPC timeout,
  /// or a dropped connection the combiner's bounded reconnect/replay
  /// could not recover). Zero additional privacy cost: the hypothesis is
  /// left unchanged.
  kShardUnavailable = 12,
  /// The connection has not completed the hello/auth exchange the
  /// endpoint requires, presented a bad token, or sent a request whose
  /// analyst id differs from the one bound to the connection.
  kAuthRequired = 13,
};

/// Stable name, e.g. "kQuotaExceeded" (api::ErrorCodeName is this
/// function).
const char* StatusCodeName(StatusCode code);

/// gtest's printer for StatusCode, so a failing EXPECT_EQ shows the name.
void PrintTo(StatusCode code, std::ostream* os);

/// Status of an operation: kOk or a code with a human-readable message.
class Status {
 public:
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status Ok() { return Status(); }
  static Status Halted(std::string m) {
    return Status(StatusCode::kHalted, std::move(m));
  }
  static Status Internal(std::string m) {
    return Status(StatusCode::kInternal, std::move(m));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "OK", or the code's name and the message: "kHalted: <message>".
  std::string ToString() const {
    if (ok()) return "OK";
    return std::string(StatusCodeName(code_)) + ": " + message_;
  }

 private:
  StatusCode code_;
  std::string message_;
};

/// A value or a Status. Access to the value requires ok().
template <typename T>
class Result {
 public:
  Result(T value) : status_(), value_(std::move(value)) {}  // NOLINT
  Result(Status status) : status_(std::move(status)) {      // NOLINT
    PMW_CHECK_MSG(!status_.ok(), "Result from OK status needs a value");
  }

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  const T& value() const& {
    PMW_CHECK_MSG(ok(), "value() on error Result: " << status_.ToString());
    return value_;
  }
  T& value() & {
    PMW_CHECK_MSG(ok(), "value() on error Result: " << status_.ToString());
    return value_;
  }
  T&& value() && {
    PMW_CHECK_MSG(ok(), "value() on error Result: " << status_.ToString());
    return std::move(value_);
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }

 private:
  Status status_;
  T value_{};
};

}  // namespace pmw

#endif  // PMWCM_COMMON_RESULT_H_
