//===-- ecas/sim/Pcu.h - Package power-control-unit model ------*- C++ -*-===//
//
// Part of the ecas project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Model of the package control unit the paper treats as a black box:
/// a governor that re-samples device activity on a fixed epoch, picks
/// frequency targets (single-device turbo vs. reduced co-run frequency),
/// ramps upward slowly but drops instantly, clamps the CPU to an
/// efficiency frequency when the GPU wakes up (the Fig. 4 dips), and
/// enforces the package power budget — either by throttling the CPU
/// (GpuPriority, the Haswell-like policy) or by scaling both devices
/// (the Bay Trail-like policy).
///
//===----------------------------------------------------------------------===//

#ifndef ECAS_SIM_PCU_H
#define ECAS_SIM_PCU_H

#include "ecas/hw/PlatformSpec.h"

namespace ecas {

/// Per-epoch snapshot of device state the governor reacts to.
struct PcuObservation {
  bool CpuActive = false;
  bool GpuActive = false;
  /// Power-model activity factors observed over the last epoch.
  double CpuActivity = 0.0;
  double GpuActivity = 0.0;
  /// Combined DRAM traffic over the last epoch, GB/s.
  double TrafficGBs = 0.0;
};

/// The governor. Deterministic: identical observation sequences yield
/// identical frequency sequences.
///
/// Thread-safety contract: externally synchronized (DESIGN.md §9). A
/// Pcu is owned by exactly one SimProcessor, and a SimProcessor serves
/// one client thread; nothing here may be touched concurrently, so the
/// class carries no capability. Concurrent EAS clients each bring their
/// own SimProcessor (and therefore their own Pcu).
class Pcu {
public:
  explicit Pcu(const PlatformSpec &Spec);

  /// Advances the governor given the observed device state.
  /// \p ElapsedSec is the wall time since the previous call; upward
  /// frequency ramping is budgeted against it (a full
  /// SamplingIntervalSec buys one RampUpGHzPerEpoch step), so
  /// event-triggered invocations cannot ramp faster than time allows.
  void stepEpoch(const PcuObservation &Obs,
                 double ElapsedSec = -1.0);

  /// Lightweight reaction to a device busy-state flip between epochs:
  /// hardware clock gating switches the waking device's clock
  /// immediately, but policy (co-run caps, the efficiency reset, budget
  /// enforcement) waits for the next periodic epoch — bursts shorter
  /// than the sampling interval are invisible to the governor proper,
  /// which is why the paper's graph workloads co-run at full speed while
  /// Fig. 4's long bursts get throttled.
  void noteActivityTransition(bool CpuActive, bool GpuActive);

  /// Extension (the paper's stated future work: "incorporate feedback
  /// from our user-level runtime in power management techniques"). The
  /// runtime announces the split it is about to execute; the governor
  /// jumps straight to the matching steady-state operating point instead
  /// of discovering it through wake resets and ramping. \p Alpha is the
  /// GPU offload ratio of the upcoming phase.
  void hintUpcomingSplit(double Alpha);

  /// Pins externally requested frequency ceilings (the DVFS actuation
  /// behind OperatingPoint::PState — the sysfs max-freq analogue). The
  /// governor keeps full authority *below* the cap: ramping, co-run
  /// policy, and budget enforcement run unchanged and the cap is
  /// re-applied after every governor move. Caps survive reset() and
  /// stay until clearFrequencyCap(). Values below a device's floor
  /// clamp to the floor.
  void setFrequencyCap(double CpuGHz, double GpuGHz);

  /// Removes the pinned ceilings; the envelope is the spec's again.
  void clearFrequencyCap();

  double cpuFreqGHz() const { return CpuFreq; }
  double gpuFreqGHz() const { return GpuFreq; }
  double cpuFreqCapGHz() const { return CpuCapGHz; }

  /// Restores power-on frequencies and forgets activity history.
  void reset();

private:
  void enforceBudget(const PcuObservation &Obs);
  void applyCaps();

  const PlatformSpec &Spec;
  double CpuFreq;
  double GpuFreq;
  /// 1e30 = uncapped; keeps every legacy frequency sequence
  /// bit-identical when no cap has been requested.
  double CpuCapGHz = 1e30;
  double GpuCapGHz = 1e30;
  bool GpuWasActive = false;
};

} // namespace ecas

#endif // ECAS_SIM_PCU_H
