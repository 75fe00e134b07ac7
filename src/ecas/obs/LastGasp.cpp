//===-- ecas/obs/LastGasp.cpp - Crash-time forensic write -----------------===//
//
// Part of the ecas project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "ecas/obs/LastGasp.h"

#include "ecas/support/SignalSafety.h"
#include "ecas/support/ThreadAnnotations.h"

#include <algorithm>
#include <atomic>
#include <csignal>
#include <cstring>
#include <exception>

#include <fcntl.h>
#include <unistd.h>

using namespace ecas;
using namespace ecas::obs;

namespace {

// Everything the handlers touch is static storage published with
// acquire/release atomics: no allocation at crash time, no lock shared
// with a thread the signal may have interrupted mid-critical-section.
constexpr size_t kBufferBytes = 256 * 1024;
constexpr size_t kPathBytes = 512;

char Buffers[2][kBufferBytes];
std::atomic<size_t> BufferLens[2] = {{0}, {0}};
/// Index of the buffer holding the current complete document, -1 before
/// the first refresh. The release store here is what publishes the
/// buffer contents to the (acquire-loading) handler.
std::atomic<int> ActiveIndex{-1};

char GaspPath[kPathBytes];
std::atomic<bool> Armed{false};
std::atomic_flag WroteOnce = ATOMIC_FLAG_INIT;

/// Serializes refresh/arm against each other (never taken by handlers).
AnnotatedMutex StateMutex{"Obs.LastGasp"};

/// The crash write itself: open(2) + write(2) of the pre-serialized
/// active buffer. Every call below is on the async-signal-safe list;
/// the ECAS_SIGNAL_SAFE marker puts the body under ecas-lint's
/// signal-unsafe-in-handler rule so it stays that way.
ECAS_SIGNAL_SAFE void writeSnapshotToFile() {
  if (!Armed.load(std::memory_order_acquire))
    return;
  int Index = ActiveIndex.load(std::memory_order_acquire);
  if (Index < 0)
    return;
  size_t Len = BufferLens[Index].load(std::memory_order_relaxed);
  int Fd = ::open(GaspPath, O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (Fd < 0)
    return;
  size_t Off = 0;
  while (Off < Len) {
    ssize_t N = ::write(Fd, Buffers[Index] + Off, Len - Off);
    if (N <= 0)
      break;
    Off += static_cast<size_t>(N);
  }
  ::close(Fd);
}

ECAS_SIGNAL_SAFE void fatalSignalHandler(int Sig) {
  if (!WroteOnce.test_and_set())
    writeSnapshotToFile();
  // SA_RESETHAND restored the default disposition on entry; the
  // re-raise is delivered when this handler returns, so the process
  // still dies with the original signal's exit status.
  ::raise(Sig);
}

ECAS_SIGNAL_SAFE void terminateOnCrash() {
  if (!WroteOnce.test_and_set())
    writeSnapshotToFile();
  ::raise(SIGABRT);
  ::_exit(134);
}

constexpr int kFatalSignals[] = {SIGSEGV, SIGBUS, SIGILL, SIGFPE, SIGABRT};

} // namespace

LastGasp &LastGasp::instance() {
  static LastGasp Singleton;
  return Singleton;
}

Status LastGasp::arm(const std::string &Path) {
  if (Path.empty() || Path.size() + 1 > kPathBytes)
    return Status::error(
        ErrCode::InvalidArgument,
        "last-gasp path must be non-empty and under 512 bytes");
  LockGuard Lock(StateMutex);
  std::memcpy(GaspPath, Path.c_str(), Path.size() + 1);
  if (!Armed.exchange(true, std::memory_order_acq_rel)) {
    struct sigaction Action;
    std::memset(&Action, 0, sizeof(Action));
    Action.sa_handler = fatalSignalHandler;
    Action.sa_flags = SA_RESETHAND;
    sigemptyset(&Action.sa_mask);
    for (int Sig : kFatalSignals)
      (void)::sigaction(Sig, &Action, nullptr);
    std::set_terminate(terminateOnCrash);
  }
  return Status::success();
}

void LastGasp::refresh(const std::string &Snapshot) {
  LockGuard Lock(StateMutex);
  int Current = ActiveIndex.load(std::memory_order_relaxed);
  int Standby = Current == 0 ? 1 : 0;
  size_t Len = std::min(Snapshot.size(), kBufferBytes);
  std::memcpy(Buffers[Standby], Snapshot.data(), Len);
  BufferLens[Standby].store(Len, std::memory_order_relaxed);
  ActiveIndex.store(Standby, std::memory_order_release);
}
