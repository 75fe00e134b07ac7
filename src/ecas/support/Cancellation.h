//===-- ecas/support/Cancellation.h - Cooperative cancellation -*- C++ -*-===//
//
// Part of the ecas project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A shared cancellation token with an optional deadline, threaded
/// through the runtime's blocking surfaces (ThreadPool, ParallelFor,
/// EasScheduler) so a caller can bound any invocation.
///
/// The token is clock-agnostic: setDeadline() records a value on
/// whatever clock the polling site reads — host steady seconds in the
/// ThreadPool and ParallelFor, virtual SimProcessor seconds in the
/// scheduler — and shouldStop(Now) compares against it. Cancellation is
/// cooperative and sticky: once cancel() is called or a deadline is
/// observed expired, every copy of the token reports cancelled forever.
///
//===----------------------------------------------------------------------===//

#ifndef ECAS_SUPPORT_CANCELLATION_H
#define ECAS_SUPPORT_CANCELLATION_H

#include <atomic>
#include <limits>
#include <memory>

namespace ecas {

/// Copyable handle to shared cancellation state; all copies observe the
/// same flag and deadline. Thread-safe without locks: the shared state
/// is two atomics with release/acquire publication, so there is no
/// capability to annotate (DESIGN.md §9) and polling a token can never
/// participate in a lock cycle — tokens are safe to touch from any
/// cancellation point, whatever locks the caller holds.
class CancellationToken {
public:
  CancellationToken() : Shared(std::make_shared<State>()) {}

  /// Token pre-armed with a deadline (same clock the poll sites use).
  static CancellationToken withDeadline(double DeadlineSec) {
    CancellationToken Token;
    Token.setDeadline(DeadlineSec);
    return Token;
  }

  /// Requests cancellation; observed by every copy of this token.
  void cancel() { Shared->Cancelled.store(true, std::memory_order_release); }

  bool cancelled() const {
    return Shared->Cancelled.load(std::memory_order_acquire);
  }

  /// Arms (or moves) the deadline. \p DeadlineSec is an absolute value
  /// on the clock the polling sites pass to shouldStop().
  void setDeadline(double DeadlineSec) {
    Shared->Deadline.store(DeadlineSec, std::memory_order_release);
  }

  bool hasDeadline() const {
    return Shared->Deadline.load(std::memory_order_acquire) <
           std::numeric_limits<double>::infinity();
  }
  double deadline() const {
    return Shared->Deadline.load(std::memory_order_acquire);
  }

  /// True once cancel() was called or \p NowSec reached the deadline.
  /// A deadline hit latches the cancelled flag so later polls (and polls
  /// on other clocks) stay stopped.
  bool shouldStop(double NowSec) const {
    if (Shared->Cancelled.load(std::memory_order_acquire))
      return true;
    if (NowSec >= Shared->Deadline.load(std::memory_order_acquire)) {
      Shared->Cancelled.store(true, std::memory_order_release);
      return true;
    }
    return false;
  }

private:
  struct State {
    std::atomic<bool> Cancelled{false};
    std::atomic<double> Deadline{std::numeric_limits<double>::infinity()};
  };
  std::shared_ptr<State> Shared;
};

} // namespace ecas

#endif // ECAS_SUPPORT_CANCELLATION_H
