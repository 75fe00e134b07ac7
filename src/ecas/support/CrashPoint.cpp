//===-- ecas/support/CrashPoint.cpp - Crash-point injection ---------------===//
//
// Part of the ecas project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "ecas/support/CrashPoint.h"

#include <atomic>
#include <cstdlib>
#include <cstring>

#include <unistd.h>

using namespace ecas;

namespace {

/// Every crash point compiled into the tree. Kept in one place so the
/// harness's "kill at every declared point" sweep and DESIGN.md §13's
/// list cannot drift from the code; a new ECAS_CRASHPOINT() must be
/// added here (CrashRecoveryTest's sweep executes each name, so a
/// declared-but-unreachable point fails the suite).
constexpr const char *DeclaredPoints[] = {
    "journal.flush.before-write",  // batch swapped out, nothing on disk
    "journal.flush.after-write",   // bytes written, not yet fsynced
    "journal.flush.after-sync",    // batch durable, before ack
    "atomicfile.after-temp-write", // temp durable, destination untouched
    "atomicfile.after-rename",     // renamed, parent dir not yet fsynced
    "recovery.after-replay",       // table rebuilt, compaction not begun
    "recovery.after-compact",      // new base image durable, before reporting
};

struct Arming {
  const char *Name = nullptr;
  std::atomic<unsigned> Remaining{0};
};

Arming Armed;
/// Fast-path gate: crash points are free until something arms one.
std::atomic<bool> AnyArmed{false};
std::atomic<bool> EnvChecked{false};

/// One-time environment arming, so a CLI run (or the CI kill loop) can
/// inject a crash without recompiling: ECAS_CRASHPOINT=<name> and
/// optionally ECAS_CRASHPOINT_HIT=<n>.
void armFromEnvOnce() {
  if (EnvChecked.exchange(true, std::memory_order_acq_rel))
    return;
  const char *Name = std::getenv("ECAS_CRASHPOINT");
  if (!Name || !*Name)
    return;
  unsigned Hit = 1;
  if (const char *HitText = std::getenv("ECAS_CRASHPOINT_HIT"))
    if (long Parsed = std::atol(HitText); Parsed > 0)
      Hit = static_cast<unsigned>(Parsed);
  for (const char *Declared : DeclaredPoints)
    if (std::strcmp(Declared, Name) == 0) {
      armCrashPoint(Declared, Hit);
      return;
    }
  // An undeclared name arms nothing: a typo degrades to "never fires",
  // which the harness notices as a clean exit instead of a wedge.
}

} // namespace

void ecas::crashPointHit(const char *Name) {
  armFromEnvOnce();
  if (!AnyArmed.load(std::memory_order_acquire))
    return;
  const char *Target = Armed.Name;
  if (!Target || std::strcmp(Target, Name) != 0)
    return;
  if (Armed.Remaining.fetch_sub(1, std::memory_order_acq_rel) != 1)
    return;
  // _exit, not exit: no atexit handlers, no stream flushes, no
  // destructors — the simulated power cut leaves whatever the kernel
  // already has and nothing else.
  _exit(CrashPointExitCode);
}

void ecas::armCrashPoint(const char *Name, unsigned Hit) {
  Armed.Name = Name;
  Armed.Remaining.store(Hit == 0 ? 1 : Hit, std::memory_order_release);
  AnyArmed.store(true, std::memory_order_release);
}

const char *const *ecas::declaredCrashPoints(size_t &Count) {
  Count = sizeof(DeclaredPoints) / sizeof(DeclaredPoints[0]);
  return DeclaredPoints;
}
