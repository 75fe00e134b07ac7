//===-- ecas/obs/ChromeTrace.h - Chrome trace-event exporter ---*- C++ -*-===//
//
// Part of the ecas project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Chrome trace-event JSON export (the format Perfetto and
/// chrome://tracing load) plus the minimal parser the round-trip tests
/// and CI artifact check use to prove an exported file is well-formed.
///
/// The export lays the log out on two clock tracks:
///   - pid 1 "host clock": every event, at its host steady-clock
///     timestamp (microseconds from the recorder's epoch).
///   - pid 2 "virtual clock": the subset of events that carry a
///     SimProcessor timestamp, re-plotted at virtual microseconds — the
///     track operators read to see *where simulated time went*, aligned
///     with the scheduler's own decisions.
/// Counters render as cumulative "C" events on the host track, so each
/// counter becomes a ramp whose final height equals its TraceLog total.
/// An event's Detail text renders as args.detail, and an instant's
/// nonzero Value (a shed request's wait, a profile's seconds) as
/// args.value.
///
//===----------------------------------------------------------------------===//

#ifndef ECAS_OBS_CHROMETRACE_H
#define ECAS_OBS_CHROMETRACE_H

#include "ecas/obs/Trace.h"
#include "ecas/support/Error.h"

namespace ecas::obs {

/// Renders \p Log as a Chrome trace-event JSON document.
std::string renderChromeTrace(const TraceLog &Log);

/// One parsed trace-event record (the fields the project emits).
struct ChromeTraceEvent {
  std::string Name;
  std::string Category;
  /// Phase: "B", "E", "X", "i", "C", or "M".
  std::string Phase;
  double TimestampUs = 0.0;
  double DurationUs = 0.0;
  long long Pid = 0;
  long long Tid = 0;
  /// args.value: an instant's payload, or a counter's running total.
  double Value = 0.0;
};

/// Parsed form of a Chrome trace document.
struct ChromeTraceData {
  std::vector<ChromeTraceEvent> Events;
};

/// Parses a Chrome trace-event JSON document produced by
/// renderChromeTrace (accepts both the object form with "traceEvents"
/// and a bare array). Strict enough to catch truncation and escaping
/// bugs: any malformed JSON is a ParseError.
ErrorOr<ChromeTraceData> parseChromeTrace(const std::string &Json);

} // namespace ecas::obs

#endif // ECAS_OBS_CHROMETRACE_H
