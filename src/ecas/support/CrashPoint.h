//===-- ecas/support/CrashPoint.h - Crash-point injection ------*- C++ -*-===//
//
// Part of the ecas project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Named crash points inside the durability-critical write/rename/replay
/// sequence (DESIGN.md §13). A crash point is a place where a real
/// power cut or kill -9 could land; the fork-based crash harness arms
/// one point at a time and verifies that recovery holds its invariants
/// no matter which point the process died at.
///
/// Unarmed, a crash point is one relaxed atomic load — cheap enough to
/// leave compiled into release builds, so the tested binary is the
/// shipped binary. Armed (programmatically after fork, or via the
/// ECAS_CRASHPOINT / ECAS_CRASHPOINT_HIT environment variables before
/// the first hit), the matching point _exit()s the process with
/// CrashPointExitCode on its Nth execution: no atexit handlers, no
/// flushes — the closest a test can get to yanking the power cord.
///
//===----------------------------------------------------------------------===//

#ifndef ECAS_SUPPORT_CRASHPOINT_H
#define ECAS_SUPPORT_CRASHPOINT_H

#include <cstddef>

namespace ecas {

/// _exit() status of a fired crash point, distinct from every normal
/// CLI exit code so the harness can tell "died at the armed point" from
/// "died some other way".
inline constexpr int CrashPointExitCode = 42;

/// Executes the crash point \p Name: when armed for \p Name and the hit
/// count is reached, _exit(CrashPointExitCode); otherwise returns.
void crashPointHit(const char *Name);

/// Arms \p Name to fire on its \p Hit-th execution (1 = first). Replaces
/// any previous arming. \p Name must outlive the arming (string
/// literals do).
void armCrashPoint(const char *Name, unsigned Hit = 1);

/// All declared crash-point names, for "the harness kills at every
/// declared point" sweeps. Terminated by nullptr.
const char *const *declaredCrashPoints(size_t &Count);

} // namespace ecas

/// Marks a crash point in durability-critical code. A macro so grep for
/// ECAS_CRASHPOINT finds every declared point, mirroring the list in
/// CrashPoint.cpp.
#define ECAS_CRASHPOINT(NAME) ::ecas::crashPointHit(NAME)

#endif // ECAS_SUPPORT_CRASHPOINT_H
