//===-- ecas/obs/FlightRecorder.h - The one event recorder -----*- C++ -*-===//
//
// Part of the ecas project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The observability layer's one event recorder (DESIGN.md §10, §16). A
/// FlightRecorder collects spans (nested begin/end, or complete after
/// the fact), instant events, and monotonic counters from any number of
/// threads into per-thread rings, plus one shared ring of
/// DecisionRecords. The per-thread capacity picks its mode:
///
///   - bounded (flight; the default 4096 events per thread): a ring
///     keeps only the recent past, overwriting its oldest slot once
///     full — right for a service that runs for weeks. Drain it at any
///     moment (an anomaly trigger, a `dump` control command, a crash
///     handler's pre-serialized tail) and you get the last few thousand
///     things the scheduler did, in time order.
///   - unbounded (capture; EventsPerThread = Unbounded): rings grow
///     until drained and keep each event's Detail text — right for a
///     bounded experiment (`ecas-cli --trace-out`, ExecutionSession's
///     RunOptions::Recorder).
///
/// Recording never feeds anything back into scheduling state, virtual
/// time, or the random streams. A null recorder pointer no-ops every
/// hook (EasConfig::Trace / ::Flight, RunOptions::Recorder, ScopedSpan),
/// so unobserved runs stay bit-identical (ObsTest's and MetricsTest's
/// regressions).
///
/// Hot path: a ring slot is strictly POD, a bounded ring's storage is
/// reserved once at a thread's first event, and a steady-state record is
/// a leaf-mutex lock plus a slot copy — zero heap traffic, proven by
/// HotPathTest's armed-recorder regression. Detail text never enters a
/// slot: it lives in a per-thread side store, referenced by index, that
/// only a capture recorder fills. bench/micro_obs fails if arming a
/// bounded recorder costs more than 15% of a disarmed table hit.
///
/// Locking: "Obs.FlightRegistry" guards the ring list (taken once per
/// (thread, recorder) pair and at drain); each ring has its own leaf
/// "Obs.FlightRing" mutex, uncontended except while a drain copies the
/// ring out. The decision ring is the process's one home for
/// DecisionRecords (`ecas-cli --decision-log` drains it too), guarded by
/// the leaf "Obs.FlightDecisions" mutex.
///
//===----------------------------------------------------------------------===//

#ifndef ECAS_OBS_FLIGHTRECORDER_H
#define ECAS_OBS_FLIGHTRECORDER_H

#include "ecas/obs/DecisionLog.h"
#include "ecas/obs/Trace.h"
#include "ecas/support/ThreadAnnotations.h"

#include <atomic>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace ecas::obs {

/// A simulator timestamp for an event. A distinct type so that an
/// event's virtual time and an instant's numeric payload, both doubles,
/// can never be passed for each other.
struct VirtualTime {
  constexpr VirtualTime() = default;
  constexpr explicit VirtualTime(double SecondsIn) : Seconds(SecondsIn) {}
  /// NaN when the site has no simulated clock.
  double Seconds = std::numeric_limits<double>::quiet_NaN();
};

/// Everything the recorder still holds: the event tail as a TraceLog
/// plus the decision-record tail, with drop counters quantifying how
/// much history the bounded rings have already overwritten.
struct FlightSnapshot {
  TraceLog Trace;
  std::vector<DecisionRecord> Decisions;
  uint64_t EventsRecorded = 0;
  uint64_t EventsDropped = 0;
  uint64_t DecisionsRecorded = 0;
  uint64_t DecisionsDropped = 0;
};

/// The event recorder. Construction is cheap; arm a bounded one per
/// service via EasConfig::Flight (and ServiceConfig::Flight for the
/// front end's shed/miss events), and a capture one per experiment via
/// EasConfig::Trace or RunOptions::Recorder. All record methods are
/// thread-safe. Category and Name must be string literals (or otherwise
/// outlive the recorder): slots store the pointers, not copies.
class FlightRecorder {
public:
  /// The EventsPerThread value of a capture recorder: its rings never
  /// wrap, and it keeps every event's Detail text.
  static constexpr size_t Unbounded = std::numeric_limits<size_t>::max();

  /// \p EventsPerThread is each thread's ring capacity (or Unbounded);
  /// \p DecisionCapacity bounds the shared decision ring. Both are
  /// clamped to at least 1.
  explicit FlightRecorder(size_t EventsPerThread = 4096,
                          size_t DecisionCapacity = 512);
  ~FlightRecorder();

  FlightRecorder(const FlightRecorder &) = delete;
  FlightRecorder &operator=(const FlightRecorder &) = delete;

  /// Opens a span named \p Name on the calling thread.
  void beginSpan(const char *Category, const char *Name, VirtualTime At = {},
                 std::string_view Detail = {});

  /// Closes the calling thread's innermost span named \p Name.
  void endSpan(const char *Category, const char *Name, VirtualTime At = {},
               std::string_view Detail = {});

  /// Records a complete span after the fact from explicit host
  /// timestamps (the online profiler's "profile-rep" spans).
  void completeSpan(const char *Category, const char *Name,
                    double StartHostSec, double DurationSec,
                    VirtualTime At = {}, std::string_view Detail = {});

  /// Records a point event with an optional numeric payload \p Value
  /// (rendered as args.value when nonzero).
  void instant(const char *Category, const char *Name, VirtualTime At = {},
               std::string_view Detail = {}, double Value = 0.0);

  /// Adds \p Delta to the monotonic counter \p Name (the record is the
  /// delta; totals are folded at drain).
  void count(const char *Name, double Delta = 1.0);

  /// Appends one decision record to the shared ring, stamping its
  /// Sequence. POD copy under a leaf mutex; no allocation.
  void recordDecision(const DecisionRecord &Record);

  /// Snapshots what the rings hold: events merged across threads in
  /// (HostSeconds, Seq) order with counter deltas folded into totals,
  /// decisions oldest-first. Safe while other threads record; each ring
  /// contributes what its writer has pushed. Does not reset.
  FlightSnapshot drain() const;

  /// Events recorded over the recorder's lifetime (not just resident).
  uint64_t eventsRecorded() const {
    return NextSeq.load(std::memory_order_relaxed);
  }

  /// Host steady-clock seconds now — the clock every event is stamped
  /// with, exposed so callers can stamp complete spans and correlate.
  static double hostSeconds();

private:
  struct ThreadRing;

  /// The calling thread's ring, registering one on first use (the only
  /// allocation a bounded recorder's thread ever performs).
  ThreadRing &localRing();
  void record(EventKind Kind, const char *Category, const char *Name,
              double HostSec, VirtualTime At, double Value,
              std::string_view Detail);

  /// Never-reused identity; thread-local caches key on it so a stale
  /// entry for a destroyed recorder cannot alias a new one at the same
  /// address.
  const uint64_t RecorderId;
  const double Epoch;
  const size_t EventCap;
  const size_t DecisionCap;

  /// Leaf-ish lock: guards the ring list; the only lock ever taken
  /// while holding it is a ring's own "Obs.FlightRing" during drain.
  mutable AnnotatedMutex RegistryMutex{"Obs.FlightRegistry"};
  std::vector<std::unique_ptr<ThreadRing>> Rings
      ECAS_GUARDED_BY(RegistryMutex);

  std::atomic<uint64_t> NextSeq{0};

  mutable AnnotatedMutex DecisionMutex{"Obs.FlightDecisions"};
  std::vector<DecisionRecord> DecisionRing ECAS_GUARDED_BY(DecisionMutex);
  uint64_t NextDecision ECAS_GUARDED_BY(DecisionMutex) = 0;
};

/// RAII span: begins on construction, ends on destruction — safe across
/// the scheduler's early returns. A null recorder makes it a no-op. The
/// optional \p VirtualNow callback is re-read at both edges so the end
/// event carries the advanced virtual clock.
class ScopedSpan {
public:
  ScopedSpan(FlightRecorder *Recorder, const char *Category, const char *Name,
             std::function<double()> VirtualNow = {},
             std::string BeginDetail = {});
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

  /// Attaches a payload to the end event ("alpha=0.40").
  void setEndDetail(std::string Detail) { EndDetail = std::move(Detail); }

private:
  VirtualTime now() const {
    return VirtualNow ? VirtualTime(VirtualNow()) : VirtualTime();
  }

  FlightRecorder *Recorder;
  const char *Category;
  const char *Name;
  std::function<double()> VirtualNow;
  std::string EndDetail;
};

} // namespace ecas::obs

#endif // ECAS_OBS_FLIGHTRECORDER_H
