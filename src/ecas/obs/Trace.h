//===-- ecas/obs/Trace.h - Spans, counters, per-thread buffers -*- C++ -*-===//
//
// Part of the ecas project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The observability layer's capture half: a TraceRecorder collects
/// spans (nested begin/end), instant events, and monotonic counters into
/// per-thread lock-free buffers, stamped with both the host steady clock
/// and (where the call site has one) the simulator's virtual clock.
///
/// Recording is designed so that *instrumented code paths make exactly
/// the same decisions whether or not a recorder is attached*: the
/// recorder only reads clocks and appends to its own buffers — it never
/// feeds anything back into scheduling state, virtual time, or the
/// random streams. A null recorder pointer is the null sink; every
/// record helper no-ops on it, so un-traced runs stay bit-identical to
/// the pre-observability code (enforced by ObsTest's regression).
///
/// Writer path: each thread owns a chunked buffer registered with the
/// recorder; appends touch no lock (the chunk's element count publishes
/// with a release store, chunk links with release pointers). The only
/// mutex, "Obs.Registry", guards the buffer registry and is a leaf: it
/// is taken once per (thread, recorder) pair at registration and at
/// drain, and nothing else is ever acquired while holding it.
///
/// Drain half: drain() snapshots every buffer into one TraceLog (events
/// merged in host-clock order, counter deltas summed into totals) which
/// pluggable TraceSinks (obs/Sinks.h, obs/ChromeTrace.h) render.
///
//===----------------------------------------------------------------------===//

#ifndef ECAS_OBS_TRACE_H
#define ECAS_OBS_TRACE_H

#include "ecas/support/Error.h"
#include "ecas/support/ThreadAnnotations.h"

#include <atomic>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <vector>

namespace ecas::obs {

/// What one recorded event is.
enum class EventKind {
  /// Opens a span on the recording thread; pairs with the next SpanEnd
  /// of the same name on that thread (spans nest per thread).
  SpanBegin,
  SpanEnd,
  /// A complete span recorded after the fact with an explicit start and
  /// duration (Value) — how the online profiler publishes each profiling
  /// repetition once it has been measured.
  SpanComplete,
  /// A point event.
  Instant,
  /// A monotonic counter increment of Value.
  Counter,
};

/// Returns "span-begin", "span-end", "span-complete", "instant", or
/// "counter".
const char *eventKindName(EventKind Kind);

/// One recorded event. Name and Category must be string literals (or
/// otherwise outlive the recorder): events store the pointers, not
/// copies, so the hot path never allocates for them.
struct TraceEvent {
  EventKind Kind = EventKind::Instant;
  const char *Category = "";
  const char *Name = "";
  /// Host steady-clock seconds (SpanComplete: the span's start).
  double HostSeconds = 0.0;
  /// Virtual SimProcessor seconds, or NaN when the site has no
  /// simulated clock (host-side runtime layers).
  double VirtualSeconds = std::numeric_limits<double>::quiet_NaN();
  /// Counter delta, or SpanComplete duration in host seconds.
  double Value = 0.0;
  /// Dense per-recorder id of the recording thread.
  uint32_t ThreadId = 0;
  /// Global record order, the tie-break for equal timestamps.
  uint64_t Seq = 0;
  /// Optional free-form payload ("alpha=0.40 evals=11").
  std::string Detail;

  bool hasVirtualTime() const { return VirtualSeconds == VirtualSeconds; }
};

/// Final value of one counter across the whole recording.
struct CounterTotal {
  std::string Name;
  double Total = 0.0;
  uint64_t Samples = 0;
};

/// Everything a recorder captured, in sink-ready form.
struct TraceLog {
  /// All events, sorted by (HostSeconds, Seq).
  std::vector<TraceEvent> Events;
  /// Counter totals, sorted by name.
  std::vector<CounterTotal> Counters;
  /// Host steady-clock seconds at recorder construction; sinks render
  /// timestamps relative to this epoch.
  double EpochHostSeconds = 0.0;

  /// The total for \p Name, or 0 when the counter never fired.
  double counterTotal(const std::string &Name) const;
  /// Number of events with \p Name (any kind).
  size_t countNamed(const std::string &Name) const;
};

/// Destination for a drained TraceLog. Sinks are passive renderers: the
/// contract is one consume() call per drain, receiving events already
/// merged and time-ordered; a sink must not assume it is the only
/// consumer of a log (drainTo can feed several).
class TraceSink {
public:
  virtual ~TraceSink() = default;
  virtual Status consume(const TraceLog &Log) = 0;
};

/// Collects events from any number of threads. Construction is cheap;
/// attach one per run (ExecutionSession::RunOptions::Recorder) or per
/// service (EasConfig::Trace). All record methods are thread-safe and
/// lock-free after a thread's first event.
class TraceRecorder {
public:
  TraceRecorder();
  ~TraceRecorder();

  TraceRecorder(const TraceRecorder &) = delete;
  TraceRecorder &operator=(const TraceRecorder &) = delete;

  /// Opens a span named \p Name on the calling thread.
  void beginSpan(const char *Category, const char *Name,
                 double VirtualSec = std::numeric_limits<double>::quiet_NaN(),
                 std::string Detail = {});

  /// Closes the calling thread's innermost span named \p Name.
  void endSpan(const char *Category, const char *Name,
               double VirtualSec = std::numeric_limits<double>::quiet_NaN(),
               std::string Detail = {});

  /// Records a complete span after the fact from explicit host
  /// timestamps (the online profiler's "profile-rep" spans).
  void completeSpan(const char *Category, const char *Name,
                    double StartHostSec, double DurationSec,
                    double VirtualSec =
                        std::numeric_limits<double>::quiet_NaN(),
                    std::string Detail = {});

  /// Records a point event.
  void instant(const char *Category, const char *Name,
               double VirtualSec = std::numeric_limits<double>::quiet_NaN(),
               std::string Detail = {});

  /// Adds \p Delta to the monotonic counter \p Name (the record is the
  /// delta; totals are folded at drain).
  void count(const char *Name, double Delta = 1.0);

  /// Events recorded so far (approximate under concurrent writers).
  uint64_t eventsRecorded() const;

  /// Snapshots everything recorded so far into one time-ordered log.
  /// Safe to call while other threads are still recording: each buffer
  /// contributes the prefix its writer has published. Does not reset.
  TraceLog drain() const;

  /// drain() piped into \p Sink.
  Status drainTo(TraceSink &Sink) const;

  /// Host steady-clock seconds now — the clock every event is stamped
  /// with, exposed so tests and sinks can correlate.
  static double hostSeconds();

private:
  struct ThreadBuffer;

  /// The calling thread's buffer, registering one on first use.
  ThreadBuffer &localBuffer();
  void record(TraceEvent Event);

  /// Never-reused recorder identity; thread-local caches key on it so a
  /// stale cache entry for a destroyed recorder can never alias a new
  /// one at the same address.
  const uint64_t RecorderId;
  const double Epoch;

  /// Leaf lock (DESIGN.md §10): guards the registry only; no other lock
  /// is ever acquired while it is held.
  mutable AnnotatedMutex RegistryMutex{"Obs.Registry"};
  std::vector<std::unique_ptr<ThreadBuffer>> Buffers
      ECAS_GUARDED_BY(RegistryMutex);

  std::atomic<uint64_t> NextSeq{0};
};

/// RAII span: begins on construction, ends on destruction — safe across
/// the scheduler's early returns. A null recorder makes it a no-op. The
/// optional \p VirtualNow callback is re-read at both edges so the end
/// event carries the advanced virtual clock.
class ScopedSpan {
public:
  ScopedSpan(TraceRecorder *Recorder, const char *Category, const char *Name,
             std::function<double()> VirtualNow = {},
             std::string BeginDetail = {});
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

  /// Attaches a payload to the end event ("alpha=0.40").
  void setEndDetail(std::string Detail) { EndDetail = std::move(Detail); }

private:
  TraceRecorder *Recorder;
  const char *Category;
  const char *Name;
  std::function<double()> VirtualNow;
  std::string EndDetail;
};

} // namespace ecas::obs

#endif // ECAS_OBS_TRACE_H
