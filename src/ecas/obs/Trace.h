//===-- ecas/obs/Trace.h - Drained event logs and their summary -*- C++ -*-===//
//
// Part of the ecas project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The observability layer's drained form: a TraceLog is what
/// FlightRecorder::drain() (obs/FlightRecorder.h) returns — spans
/// (nested begin/end or complete), instant events, and monotonic
/// counters from every recording thread, merged in host-clock order,
/// each stamped with the host steady clock and, where the call site had
/// one, the simulator's virtual clock.
///
/// Rendering is plain functions over one drained log: renderChromeTrace
/// (obs/ChromeTrace.h) for Perfetto, renderTraceSummary (below) for
/// terminals. A caller that wants both drains once and renders twice.
///
//===----------------------------------------------------------------------===//

#ifndef ECAS_OBS_TRACE_H
#define ECAS_OBS_TRACE_H

#include <cstdint>
#include <limits>
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
  /// A point event, with an optional numeric payload (Value).
  Instant,
  /// A monotonic counter increment of Value.
  Counter,
};

/// One drained event. Name and Category are the pointers the recorder
/// was handed (string literals, or otherwise outliving the recorder):
/// the hot path never copies them.
struct TraceEvent {
  EventKind Kind = EventKind::Instant;
  const char *Category = "";
  const char *Name = "";
  /// Host steady-clock seconds (SpanComplete: the span's start).
  double HostSeconds = 0.0;
  /// Virtual SimProcessor seconds, or NaN when the site has no
  /// simulated clock (host-side runtime layers).
  double VirtualSeconds = std::numeric_limits<double>::quiet_NaN();
  /// Counter delta, SpanComplete duration in host seconds, or an
  /// instant's numeric payload (0 when it has none).
  double Value = 0.0;
  /// Dense per-recorder id of the recording thread.
  uint32_t ThreadId = 0;
  /// Global record order, the tie-break for equal timestamps; gaps in a
  /// bounded recorder's drain reveal overwritten history.
  uint64_t Seq = 0;
  /// Optional free-form payload ("alpha=0.40 evals=11"); only a capture
  /// recorder keeps it.
  std::string Detail;

  bool hasVirtualTime() const { return VirtualSeconds == VirtualSeconds; }
};

/// Final value of one counter across the drained events.
struct CounterTotal {
  std::string Name;
  double Total = 0.0;
  uint64_t Samples = 0;
};

/// Everything a recorder held at drain, in render-ready form.
struct TraceLog {
  /// All events, sorted by (HostSeconds, Seq).
  std::vector<TraceEvent> Events;
  /// Counter totals, sorted by name.
  std::vector<CounterTotal> Counters;
  /// Host steady-clock seconds at recorder construction; renderers
  /// print timestamps relative to this epoch.
  double EpochHostSeconds = 0.0;
};

/// Per-span-name durations (count, total host seconds), instant tallies,
/// and counter totals of \p Log as a fixed-width text table.
std::string renderTraceSummary(const TraceLog &Log);

} // namespace ecas::obs

#endif // ECAS_OBS_TRACE_H
