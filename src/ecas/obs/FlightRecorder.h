//===-- ecas/obs/FlightRecorder.h - Always-on black-box ring ---*- C++ -*-===//
//
// Part of the ecas project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The forensics layer's always-on half (DESIGN.md §16). Where a
/// TraceRecorder keeps *everything* and grows until drained — right for
/// a bounded experiment, wrong for a service that runs for weeks — the
/// FlightRecorder keeps only the recent past: a fixed-capacity
/// per-thread ring of trace events plus one shared ring of
/// DecisionRecords, both overwriting their oldest entries once full.
/// Drain it at any moment (an anomaly trigger, a `dump` control
/// command, a crash handler's pre-serialized tail) and you get the last
/// few thousand things the scheduler did, in time order, however long
/// the process has been up.
///
/// The recording contract matches Trace/Metrics: a null
/// FlightRecorder pointer in EasConfig no-ops every hook and scheduling
/// is bit-identical. The hot-path contract is stricter than the
/// TraceRecorder's: FlightEvent is strictly POD (no Detail string), the
/// per-thread ring storage is allocated once at a thread's first event,
/// and a steady-state record is a leaf-mutex lock plus a slot copy —
/// zero heap traffic, proven by HotPathTest's armed-recorder regression.
/// bench/micro_obs fails if arming costs more than 15% of a disarmed
/// table hit.
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
#include <memory>
#include <vector>

namespace ecas::obs {

/// One black-box event. Strictly POD: Category and Name must be string
/// literals (the ring stores the pointers), and unlike TraceEvent there
/// is no Detail payload — a free-form string would put an allocation on
/// the armed hot path.
struct FlightEvent {
  EventKind Kind = EventKind::Instant;
  const char *Category = "";
  const char *Name = "";
  /// Host steady-clock seconds (TraceRecorder::hostSeconds).
  double HostSeconds = 0.0;
  /// Counter delta, or free-form numeric payload for instants.
  double Value = 0.0;
  /// Dense per-recorder id of the recording thread.
  uint32_t ThreadId = 0;
  /// Global record order; gaps in a drained snapshot reveal overwritten
  /// history, exactly like DecisionRecord::Sequence.
  uint64_t Seq = 0;
};

/// Everything the recorder still holds, in sink-ready form: the event
/// tail as a TraceLog (renderable by ChromeTrace like any full trace)
/// plus the decision-record tail, with drop counters quantifying how
/// much history the rings have already overwritten.
struct FlightSnapshot {
  TraceLog Trace;
  std::vector<DecisionRecord> Decisions;
  uint64_t EventsRecorded = 0;
  uint64_t EventsDropped = 0;
  uint64_t DecisionsRecorded = 0;
  uint64_t DecisionsDropped = 0;
};

/// The always-on flight recorder. Construction is cheap; arm one per
/// service via EasConfig::Flight (and ServiceConfig::Flight for the
/// front end's shed/miss events). All record methods are thread-safe.
class FlightRecorder {
public:
  /// \p EventsPerThread is each thread's ring capacity; \p
  /// DecisionCapacity bounds the shared decision ring. Both are clamped
  /// to at least 1.
  explicit FlightRecorder(size_t EventsPerThread = 4096,
                          size_t DecisionCapacity = 512);
  ~FlightRecorder();

  FlightRecorder(const FlightRecorder &) = delete;
  FlightRecorder &operator=(const FlightRecorder &) = delete;

  /// Records a point event with an optional numeric payload.
  void instant(const char *Category, const char *Name, double Value = 0.0);

  /// Adds \p Delta to the monotonic counter \p Name (folded into
  /// TraceLog::Counters at drain, like the TraceRecorder's).
  void count(const char *Name, double Delta = 1.0);

  /// Appends one decision record to the shared ring, stamping its
  /// Sequence. POD copy under a leaf mutex; no allocation.
  void recordDecision(const DecisionRecord &Record);

  /// Snapshots the surviving tail: events merged across threads in
  /// (HostSeconds, Seq) order with counter deltas folded into totals,
  /// decisions oldest-first. Safe while other threads record; each ring
  /// contributes what its writer has published.
  FlightSnapshot drain() const;

  /// Events recorded over the recorder's lifetime (not just resident).
  uint64_t eventsRecorded() const {
    return NextSeq.load(std::memory_order_relaxed);
  }

  size_t eventCapacityPerThread() const { return EventCap; }
  size_t decisionCapacity() const { return DecisionCap; }

private:
  struct ThreadRing;

  /// The calling thread's ring, registering one on first use (the only
  /// allocation a recording thread ever performs).
  ThreadRing &localRing();
  void record(EventKind Kind, const char *Category, const char *Name,
              double Value);

  /// Never-reused identity; thread-local caches key on it so a stale
  /// entry for a destroyed recorder cannot alias a new one at the same
  /// address (the TraceRecorder idiom).
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

} // namespace ecas::obs

#endif // ECAS_OBS_FLIGHTRECORDER_H
