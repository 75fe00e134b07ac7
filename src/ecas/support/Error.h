//===-- ecas/support/Error.h - Recoverable error propagation ---*- C++ -*-===//
//
// Part of the ecas project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Status and ErrorOr<T>: recoverable-error plumbing for the fallible
/// surfaces of the library — anything whose failure is caused by the
/// *environment* (malformed input files, an unavailable device, a
/// timed-out dispatch) rather than by a programming mistake. The split
/// mirrors support/Assert.h's contract: ECAS_CHECK still aborts on
/// invariant violations that only a bug can produce; everything a user
/// input or a flaky platform can trigger returns a Status instead.
///
//===----------------------------------------------------------------------===//

#ifndef ECAS_SUPPORT_ERROR_H
#define ECAS_SUPPORT_ERROR_H

#include "ecas/support/Assert.h"

#include <optional>
#include <string>
#include <utility>

namespace ecas {

/// Coarse classification of recoverable failures.
enum class ErrCode {
  InvalidArgument,
  ParseError,
  Truncated,
  OutOfRange,
  Incomplete,
  DeviceUnavailable,
  Timeout,
  IoError,
  Cancelled,
  VersionMismatch,
  CorruptData,
  /// The service cannot queue more work right now; retry after backoff.
  Overloaded,
  /// Queue wait plus expected service time already exceed the request's
  /// deadline — queueing it would only produce doomed work.
  DeadlineInfeasible,
};

/// Returns a stable lowercase name for \p Code ("parse error", ...).
const char *errCodeName(ErrCode Code);

/// Success or a (code, message) describing a recoverable failure.
class Status {
public:
  /// Default-constructed Status is success.
  Status() = default;

  static Status success() { return Status(); }
  static Status error(ErrCode Code, std::string Message) {
    Status S;
    S.Failed = true;
    S.Code = Code;
    S.Message = std::move(Message);
    return S;
  }

  bool ok() const { return !Failed; }
  explicit operator bool() const { return ok(); }

  /// Requires !ok().
  ErrCode code() const {
    ECAS_CHECK(Failed, "code() queried on a success Status");
    return Code;
  }
  const std::string &message() const { return Message; }

  /// "parse error: curve 3 has a non-finite coefficient" (empty for ok).
  std::string toString() const {
    if (!Failed)
      return "ok";
    return std::string(errCodeName(Code)) + ": " + Message;
  }

private:
  bool Failed = false;
  ErrCode Code = ErrCode::InvalidArgument;
  std::string Message;
};

/// Either a value of type T or the Status explaining why there is none.
template <typename T> class ErrorOr {
public:
  ErrorOr(T Value) : Value(std::move(Value)) {}
  ErrorOr(Status Error) : Err(std::move(Error)) {
    ECAS_CHECK(!Err.ok(), "ErrorOr constructed from a success Status");
  }

  bool ok() const { return Value.has_value(); }
  explicit operator bool() const { return ok(); }

  /// The failure description; success Status when a value is present.
  const Status &status() const { return Err; }

  /// Requires ok().
  T &value() {
    ECAS_CHECK(ok(), "value() on an errored ErrorOr");
    return *Value;
  }
  const T &value() const {
    ECAS_CHECK(ok(), "value() on an errored ErrorOr");
    return *Value;
  }
  T &operator*() { return value(); }
  const T &operator*() const { return value(); }
  T *operator->() { return &value(); }
  const T *operator->() const { return &value(); }

private:
  Status Err;
  std::optional<T> Value;
};

} // namespace ecas

#endif // ECAS_SUPPORT_ERROR_H
