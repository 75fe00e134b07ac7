//===-- ecas/fault/FaultPlan.h - Fault-injection scenarios -----*- C++ -*-===//
//
// Part of the ecas project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The fault taxonomy and the declarative plan that drives injection.
/// The paper treats the platform as a black box; this module models the
/// ways a real black box misbehaves — driver launch failures, GPU hangs,
/// thermal-throttle throughput collapses, RAPL counter glitches, and
/// noisy performance counters — as timed events on the simulator's
/// virtual clock. A FaultPlan is pure data: seedable, serializable, and
/// replayable, so every degradation scenario is reproducible. An empty
/// plan means injection is disabled and the simulator behaves
/// bit-identically to a build without this subsystem.
///
/// Wiring: PlatformSpec carries a FaultPlan (empty by default);
/// SimProcessor instantiates a FaultInjector from it and threads the
/// injected effects through SimGpuDevice (throughput derating),
/// EnergyMeter (dropped samples, counter jumps), and OnlineProfiler
/// (counter noise).
///
//===----------------------------------------------------------------------===//

#ifndef ECAS_FAULT_FAULTPLAN_H
#define ECAS_FAULT_FAULTPLAN_H

#include "ecas/support/Error.h"

#include <cstdint>
#include <string>
#include <vector>

namespace ecas {

/// The injectable fault classes.
enum class FaultKind {
  /// Enqueue onto the GPU fails (driver returns an error) while active.
  GpuLaunchFail,
  /// The GPU stops making progress entirely while active (TDR-style
  /// hang); queued work sits in the queue until cancelled.
  GpuHang,
  /// Transient throughput collapse: GPU rate scaled by Magnitude
  /// (thermal-throttle style) while active.
  GpuThrottle,
  /// The package energy meter drops deposits while active (RAPL sample
  /// dropout: energy flows that the counter never records).
  RaplDropout,
  /// One-shot at StartSec: the RAPL counter jumps forward by
  /// Magnitude * 2^32 units (fractional magnitudes allowed), modeling a
  /// read interval that spans multiple 32-bit wraparounds.
  RaplWrapJump,
  /// Multiplicative noise on profiled performance-counter readings while
  /// active; Magnitude is the half-width of the uniform scale band.
  CounterNoise,
};

/// Returns the serialization tag for \p Kind ("gpu-hang", ...).
const char *faultKindName(FaultKind Kind);

/// One timed fault: active on [StartSec, EndSec) of the virtual clock.
struct FaultEvent {
  FaultKind Kind = FaultKind::GpuLaunchFail;
  double StartSec = 0.0;
  double EndSec = 1e30;
  /// Kind-specific strength: throttle scale in (0,1], wrap count for
  /// RaplWrapJump, noise half-width for CounterNoise. Unused otherwise.
  double Magnitude = 0.0;
  /// Per-query injection probability in (0,1] for stochastic kinds
  /// (GpuLaunchFail, RaplDropout); deterministic kinds ignore it.
  double Probability = 1.0;

  bool activeAt(double NowSec) const {
    return NowSec >= StartSec && NowSec < EndSec;
  }
};

/// A named, seedable set of fault events.
class FaultPlan {
public:
  const std::string &name() const { return Name; }
  void setName(std::string N) { Name = std::move(N); }

  uint64_t seed() const { return Seed; }
  void setSeed(uint64_t S) { Seed = S; }

  const std::vector<FaultEvent> &events() const { return Events; }
  void addEvent(FaultEvent Event) { Events.push_back(Event); }

  /// An empty plan injects nothing; the simulator takes its exact
  /// fault-free paths.
  bool enabled() const { return !Events.empty(); }

  /// Text round-trip:
  ///   name = <scenario>
  ///   seed = <n>
  ///   fault <kind> start=<s> end=<s> mag=<x> prob=<p>
  /// (mag/prob optional; '#' comments ignored).
  std::string serialize() const;
  static ErrorOr<FaultPlan> load(const std::string &Text);

  /// Built-in reproducible scenarios for the CLI and tests; returns a
  /// failed ErrorOr for unknown names. See scenarioNames().
  static ErrorOr<FaultPlan> scenario(const std::string &Name);
  static std::vector<std::string> scenarioNames();

private:
  std::string Name = "unnamed";
  uint64_t Seed = 0x5eed5eedULL;
  std::vector<FaultEvent> Events;
};

} // namespace ecas

#endif // ECAS_FAULT_FAULTPLAN_H
