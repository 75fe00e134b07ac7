//===-- tests/TestSupport.h - Shared test fixtures --------------*- C++ -*-===//
//
// Part of the ecas project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Fixtures several test binaries share: the desktop characterization
/// (measured once per binary), the desktop with a 4-state DVFS ladder
/// and its coarse per-state characterization, a fault-injected desktop
/// spec, a named kernel with a stable id, a device advance that drops
/// its slice record, and the stepped profiling repetition that replayed
/// ones are checked against. Also the queries only tests make of
/// library types, written over their public API: table-G, trace and
/// metrics lookups.
///
//===----------------------------------------------------------------------===//

#ifndef ECAS_TESTS_TESTSUPPORT_H
#define ECAS_TESTS_TESTSUPPORT_H

#include "ecas/core/KernelHistory.h"
#include "ecas/device/KernelDesc.h"
#include "ecas/fault/FaultPlan.h"
#include "ecas/hw/Presets.h"
#include "ecas/obs/ChromeTrace.h"
#include "ecas/obs/Metrics.h"
#include "ecas/obs/Trace.h"
#include "ecas/power/Characterizer.h"
#include "ecas/power/PowerCurve.h"
#include "ecas/profile/OnlineProfiler.h"
#include "ecas/sim/SimProcessor.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>

namespace ecas {

/// The healthy desktop's characterization. Characterization happens on
/// the healthy platform, before deployment, so fault-plan tests share it.
inline const PowerCurveSet &desktopCurves() {
  static PowerCurveSet Curves = Characterizer(haswellDesktop()).characterize();
  return Curves;
}

/// desktopCurves() as the single-state family EasScheduler takes.
inline const PowerCurveFamily &desktopFamily() {
  static PowerCurveFamily Family =
      PowerCurveFamily::fromSingle(desktopCurves());
  return Family;
}

/// The desktop with a 4-state DVFS ladder, for joint (alpha, P-state)
/// tests.
inline const PlatformSpec &ladderSpec() {
  static PlatformSpec Spec = [] {
    PlatformSpec S = haswellDesktop();
    S.synthesizePStates(4);
    return S;
  }();
  return Spec;
}

/// ladderSpec() characterized per state, coarsely: the tests using it
/// compare decision paths or count allocations, not curve quality.
inline const PowerCurveFamily &ladderFamily() {
  static PowerCurveFamily Family = [] {
    CharacterizerConfig Config;
    Config.AlphaStep = 0.25;
    Config.PolyDegree = 3;
    return characterizeFamily(ladderSpec(), Config);
  }();
  return Family;
}

/// The desktop with the built-in fault scenario \p Scenario attached.
inline PlatformSpec faultySpec(const std::string &Scenario) {
  PlatformSpec Spec = haswellDesktop();
  ErrorOr<FaultPlan> Plan = FaultPlan::scenario(Scenario);
  EXPECT_TRUE(Plan.ok()) << Scenario;
  Spec.Faults = *Plan;
  return Spec;
}

/// A kernel whose id is derived from \p Name.
inline KernelDesc namedKernel(const std::string &Name) {
  KernelDesc Kernel;
  Kernel.Name = Name;
  return Kernel.withAutoId();
}

/// SimDevice::advance() with the slice record dropped.
inline double advanceFor(SimDevice &Device, double Dt, double FreqGHz,
                         double BandwidthShareGBs) {
  DeviceSlice Unused;
  return Device.advance(Dt, FreqGHz, BandwidthShareGBs, Unused);
}

/// The fault-free profileOnce body before repetitions were replayed:
/// enqueue both shares, wait for the GPU, cancel the CPU's rest, and read
/// the counters' deltas.
inline ProfileSample steppedRepetition(SimProcessor &Proc,
                                       const KernelDesc &Kernel,
                                       double ProfileSize, double &Nrem) {
  ProfileSample Sample;
  if (Nrem <= 0.0)
    return Sample;
  double GpuChunk = std::min(ProfileSize, Nrem);
  double CpuShare = Nrem - GpuChunk;
  PerfCounters CpuBefore = Proc.cpu().counters();
  PerfCounters GpuBefore = Proc.gpu().counters();
  double Start = Proc.now();
  Proc.gpu().enqueue(Kernel, GpuChunk);
  if (CpuShare > 0.0)
    Proc.cpu().enqueue(Kernel, CpuShare);
  Proc.runUntilGpuIdle();
  double Unprocessed = Proc.cpu().cancelRemaining();
  PerfCounters CpuDelta = Proc.cpu().counters() - CpuBefore;
  PerfCounters GpuDelta = Proc.gpu().counters() - GpuBefore;
  Sample.GpuIterations = GpuChunk;
  Sample.CpuIterations = CpuShare - Unprocessed;
  Sample.ElapsedSeconds = Proc.now() - Start;
  Sample.CpuBusySeconds = CpuDelta.BusySeconds;
  Sample.GpuBusySeconds = GpuDelta.BusySeconds;
  if (CpuDelta.BusySeconds > 0.0)
    Sample.CpuThroughput = Sample.CpuIterations / CpuDelta.BusySeconds;
  if (GpuDelta.BusySeconds > 0.0)
    Sample.GpuThroughput = Sample.GpuIterations / GpuDelta.BusySeconds;
  Sample.MissPerLoadStore = CpuDelta.missPerLoadStore();
  Sample.InstructionsRetired = CpuDelta.InstructionsRetired;
  Nrem -= Sample.GpuIterations + Sample.CpuIterations;
  Nrem = std::max(Nrem, 0.0);
  return Sample;
}

/// Table G's record for \p KernelId, or nullopt when never seen.
inline std::optional<KernelRecord> findRecord(const KernelHistory &History,
                                              uint64_t KernelId) {
  KernelRecord Rec;
  if (!History.lookup(KernelId, Rec))
    return std::nullopt;
  return Rec;
}

/// Number of events in \p Log named \p Name (any kind).
inline size_t countNamed(const obs::TraceLog &Log, const std::string &Name) {
  return std::count_if(
      Log.Events.begin(), Log.Events.end(),
      [&](const obs::TraceEvent &E) { return Name == E.Name; });
}

/// The total of counter \p Name in \p Log, or 0 when it never fired.
inline double counterTotal(const obs::TraceLog &Log, const std::string &Name) {
  for (const obs::CounterTotal &C : Log.Counters)
    if (C.Name == Name)
      return C.Total;
  return 0.0;
}

/// Number of events in \p Trace with phase \p Phase ("B", "X", ...).
inline size_t countPhase(const obs::ChromeTraceData &Trace,
                         const std::string &Phase) {
  return std::count_if(
      Trace.Events.begin(), Trace.Events.end(),
      [&](const obs::ChromeTraceEvent &E) { return E.Phase == Phase; });
}

/// True when an event of \p Trace other than metadata is named \p Name.
inline bool hasEventNamed(const obs::ChromeTraceData &Trace,
                          const std::string &Name) {
  return std::any_of(Trace.Events.begin(), Trace.Events.end(),
                     [&](const obs::ChromeTraceEvent &E) {
                       return E.Phase != "M" && E.Name == Name;
                     });
}

/// The sample of \p Snap with \p Name and exactly \p Labels, or nullptr.
inline const obs::MetricSample *findSample(const obs::MetricsSnapshot &Snap,
                                           const std::string &Name,
                                           const obs::MetricLabels &Labels) {
  for (const obs::MetricSample &S : Snap.Samples)
    if (S.Name == Name && S.Labels == Labels)
      return &S;
  return nullptr;
}

/// Instruments registered in \p Registry (a snapshot has one sample per
/// instrument).
inline size_t instrumentCount(const obs::MetricsRegistry &Registry) {
  return Registry.snapshot().Samples.size();
}

} // namespace ecas

#endif // ECAS_TESTS_TESTSUPPORT_H
