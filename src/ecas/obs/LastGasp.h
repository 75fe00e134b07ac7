//===-- ecas/obs/LastGasp.h - Crash-time forensic write --------*- C++ -*-===//
//
// Part of the ecas project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The forensics layer's crash half (DESIGN.md §16). A process dying on
/// SIGSEGV/SIGABRT/std::terminate cannot run the incident writer — no
/// malloc, no locks, no stdio are legal in a signal handler — so the
/// work is split across time: the serve loop's poll thread periodically
/// renders the last-gasp document (obs/Incident.h's renderLastGasp) and
/// hands it to refresh(), which copies it into one of two static
/// buffers and publishes the index with a release store. The installed
/// fatal-signal and terminate handlers then do the only thing they
/// legally can: open(2) + write(2) of the pre-serialized active buffer,
/// then re-raise so the exit status still reflects the crash.
///
/// Signal dispositions are process-global state, so LastGasp is a
/// process singleton. arm() is idempotent; refresh() is cheap enough
/// for a 50 ms poll tick (one bounded memcpy under a leaf mutex).
///
/// SIGKILL is uncatchable by design — the poll loop additionally
/// mirrors each refreshed document to disk (writeFileAtomic), so even a
/// kill -9 leaves the last tick's forensics behind. The handlers exist
/// for the crashes where a fresher write is possible.
///
//===----------------------------------------------------------------------===//

#ifndef ECAS_OBS_LASTGASP_H
#define ECAS_OBS_LASTGASP_H

#include "ecas/support/Error.h"

#include <string>

namespace ecas::obs {

/// Facade over the process-global crash-write machinery.
class LastGasp {
public:
  /// The process singleton (signal handlers are global; so is this).
  static LastGasp &instance();

  /// Installs the fatal-signal handlers (SIGSEGV, SIGBUS, SIGILL,
  /// SIGFPE, SIGABRT) and the std::terminate hook, and records \p Path
  /// as the crash-write destination. Idempotent; re-arming just swaps
  /// the path. Fails InvalidArgument on an empty or over-long path.
  /// There is no disarm: a serving process stays armed for life.
  Status arm(const std::string &Path);

  /// Publishes \p Snapshot as the document a crash would write. Bounded
  /// copy into a static double buffer; truncates past the buffer size.
  void refresh(const std::string &Snapshot);

private:
  LastGasp() = default;
};

} // namespace ecas::obs

#endif // ECAS_OBS_LASTGASP_H
