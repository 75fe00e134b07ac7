//===-- ecas/sim/SimProcessor.h - Integrated-processor simulator *- C++ -*===//
//
// Part of the ecas project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Couples the two simulated devices, the PCU governor, the RAPL-style
/// energy meter, and the optional power trace into one steppable
/// processor. Virtual time advances in slices bounded by governor epochs
/// and device-drain events, so kernel completion times are exact under
/// the throughput model while power management still happens on the
/// governor's discrete schedule.
///
//===----------------------------------------------------------------------===//

#ifndef ECAS_SIM_SIMPROCESSOR_H
#define ECAS_SIM_SIMPROCESSOR_H

#include "ecas/device/SimCpuDevice.h"
#include "ecas/device/SimGpuDevice.h"
#include "ecas/fault/FaultInjector.h"
#include "ecas/hw/PlatformSpec.h"
#include "ecas/sim/EnergyMeter.h"
#include "ecas/sim/Pcu.h"
#include "ecas/sim/PowerModel.h"
#include "ecas/sim/PowerTrace.h"

#include <cstdint>
#include <memory>
#include <optional>
#include <utility>

namespace ecas {

/// What one slice adds to the three meters (each deposit with its
/// quotient by the energy unit) and the combined DRAM traffic the
/// governor reads at its next epoch.
struct SliceDeposit {
  double TrafficGBs = 0.0;
  double PkgJoules = 0.0, PkgUnits = 0.0;
  double Pp0Joules = 0.0, Pp0Units = 0.0;
  double Pp1Joules = 0.0, Pp1Units = 0.0;
};

/// One slice as the simulator charged it: its length, each device's
/// part, and what it added to the meters. Enough to charge the same
/// slice again without the rate or power models.
struct SliceRecord {
  double Dt = 0.0;
  DeviceSlice Cpu;
  DeviceSlice Gpu;
  SliceDeposit Deposit;
};

/// One simulated integrated CPU-GPU processor with virtual time.
class SimProcessor {
public:
  /// The slices of the last stepped profiling repetition, kept by
  /// runRepetition() so that later repetitions can charge the same
  /// slices again instead of stepping through them: one at a time
  /// through runRepetition(), or in a batch that checks canReplay() once
  /// and then checkReplay() and replay() per repetition. Fixed size and
  /// inline: keeping or replaying a plan never allocates.
  class RepetitionPlan {
  public:
    /// A repetition that takes more slices than this keeps no plan.
    static constexpr unsigned MaxSlices = 8;

  private:
    friend class SimProcessor;
    /// The inputs every slice depended on beyond the CPU share.
    KernelCost Kernel;
    double GpuChunk = 0.0;
    double GpuDerate = 0.0;
    double CpuFreq = 0.0;
    double GpuFreq = 0.0;
    /// The CPU shares that run at the rate the plan's share ran at.
    double MinCpuShare = 0.0;
    double MaxCpuShare = 0.0;
    /// 0: no plan.
    unsigned NumSlices = 0;
    SliceRecord Slices[MaxSlices];
  };

  explicit SimProcessor(const PlatformSpec &Spec);

  const PlatformSpec &spec() const { return Spec; }
  SimCpuDevice &cpu() { return Cpu; }
  SimGpuDevice &gpu() { return Gpu; }
  const SimCpuDevice &cpu() const { return Cpu; }
  const SimGpuDevice &gpu() const { return Gpu; }
  EnergyMeter &meter() { return Meter; }
  const EnergyMeter &meter() const { return Meter; }
  /// Per-domain RAPL counters, as real silicon exposes them:
  /// MSR_PP0_ENERGY_STATUS (CPU cores) and MSR_PP1_ENERGY_STATUS
  /// (graphics). Package = PP0 + PP1 + uncore.
  EnergyMeter &pp0Meter() { return Pp0Meter; }
  const EnergyMeter &pp0Meter() const { return Pp0Meter; }
  EnergyMeter &pp1Meter() { return Pp1Meter; }
  const EnergyMeter &pp1Meter() const { return Pp1Meter; }
  const Pcu &pcu() const { return Governor; }
  Pcu &pcu() { return Governor; }

  /// Virtual time in seconds since construction.
  double now() const { return Now; }

  /// Attaches a power trace sampling every \p SampleIntervalSec; replaces
  /// any prior trace.
  void enableTrace(double SampleIntervalSec);
  PowerTrace *trace() { return Trace.get(); }

  /// The fault injector realizing spec().Faults, or nullptr when the plan
  /// is empty (the default). With no injector every code path below is
  /// the exact pre-fault-subsystem behaviour.
  FaultInjector *faults() { return Faults.get(); }
  const FaultInjector *faults() const { return Faults.get(); }

  /// Runs until both devices are idle or \p DeadlineSec of virtual time
  /// elapses. \returns the virtual seconds consumed by this call.
  double runUntilIdle(double DeadlineSec = 1e30);

  /// Runs until the GPU queue drains (CPU may keep work); used by the
  /// profiling phase's GPU proxy. \returns virtual seconds consumed.
  double runUntilGpuIdle(double DeadlineSec = 1e30);

  /// Advances exactly \p Seconds of virtual time, accruing idle power if
  /// there is no work.
  void runFor(double Seconds);

  /// One fault-free profiling repetition (Fig. 7 steps 31-33): enqueues
  /// \p GpuChunk iterations of \p Kernel on the GPU and \p CpuShare on
  /// the CPU, runs until the GPU is idle, and cancels the CPU's rest.
  /// \returns the CPU iterations cancelled. When \p Plan holds the
  /// slices of an earlier repetition and this one would take the same
  /// slices, they are charged again from the plan with the same
  /// additions to the counters, meters and now() that stepping makes;
  /// otherwise the repetition is stepped and its slices become the plan.
  double runRepetition(const KernelCost &Kernel, double GpuChunk,
                       double CpuShare, RepetitionPlan &Plan);

  /// The half of the replay guard that no replay can change: true when
  /// \p Plan holds slices that a repetition of \p Kernel with \p GpuChunk
  /// would take from the state the processor is in, up to its CPU share
  /// and the time it starts at. That needs no fault injector or power
  /// trace, idle devices whose busy flags are already set (no transition
  /// at the first slice), the plan's kernel, GPU chunk and GPU derate,
  /// and the plan's clocks after caps and hints.
  bool canReplay(const RepetitionPlan &Plan, const KernelCost &Kernel,
                 double GpuChunk) const;

  /// The other half, checked per repetition: when a repetition with
  /// \p CpuShare starting now runs at the plan's CPU rate, meets no
  /// governor epoch and no CPU drain in any slice, and moves now() on,
  /// \returns the CPU iterations it leaves for the profiler to cancel;
  /// otherwise nothing. canReplay() must hold for the plan's kernel and
  /// chunk, and nothing may have stepped since it was checked.
  std::optional<double> checkReplay(const RepetitionPlan &Plan,
                                    double CpuShare) const;

  /// Charges \p Plan's slices with the same additions to the counters,
  /// meters and now() that stepping the repetition makes. checkReplay()
  /// must have just held; canReplay() still holds afterwards.
  void replay(const RepetitionPlan &Plan);

  /// Repetitions charged from a plan instead of stepping.
  uint64_t repetitionsReplayed() const { return Replayed; }

  /// Slices the drivers above charged by repeating the slice before
  /// instead of stepping (see repeatSlices()).
  uint64_t slicesRepeated() const { return Repeated; }

private:
  /// What a slice feeds the meters and the trace once both devices have
  /// advanced.
  struct SliceEnergy {
    PowerBreakdown Power;
    SliceDeposit Deposit;
  };

  /// Advances one slice of at most \p MaxDt seconds and records it as
  /// Last. Returns the slice length (always positive).
  double step(double MaxDt);

  /// Charges the slices that follow the one step() just charged from
  /// its record, in a tight loop, while stepping would repeat it bit for
  /// bit: no fault injector, power trace or plan recording; a full
  /// MaxSliceSec slice; a budget DeadlineSec - (now() - \p Start) of at
  /// least that; no governor epoch due at or within the next slice; and
  /// each device SimDevice::canRepeat() it. runUntilIdle(),
  /// runUntilGpuIdle() and runFor() call it after every step(). A
  /// repeated slice keeps their loop conditions as it found them: the
  /// device they wait on stays busy, and the budget keeps now() short of
  /// their deadline. The slices every guard certainly allows (the
  /// fewest of repeatsWithin() over the budget and the epoch distance
  /// and of SimDevice::certainRepeats()) go first, unchecked; the
  /// guarded loop charges the rest. Each guard only tightens as slices
  /// repeat, so a count below the exact one changes nothing.
  void repeatSlices(double Start, double DeadlineSec);

  /// A count of MaxSliceSec slices that certainly fit in \p Span seconds
  /// with two to spare, whatever the rounding of the sums that reach
  /// them (for a now() below 2^30 s); 0 when fewer fit. At most 1024.
  static uint64_t repeatsWithin(double Span);

  /// The governor's CPU and GPU clocks clamped by each device's
  /// frequency hint: the clocks a slice runs at.
  std::pair<double, double> effectiveClocks() const;

  /// True when a slice starting at virtual time \p T first runs a
  /// governor epoch.
  bool epochDueAt(double T) const { return T >= NextEpoch - 1e-12; }

  /// True when a slice of \p Dt seconds starting at virtual time \p T
  /// meets no governor epoch: none falls due at its start or ends it
  /// early.
  bool epochClearOf(double T, double Dt) const {
    return !epochDueAt(T) && NextEpoch - T >= Dt;
  }

  /// The tail of a slice once both devices have advanced: the meter
  /// deposits (with the RAPL fault hooks), the traffic the governor
  /// reads next, and now() moving on by \p Dt.
  void depositAndAdvance(double Dt, const SliceDeposit &Deposit);

  /// Appends Last to the plan being recorded when a replay can
  /// reproduce it: the plan has room, no governor move (\p Governed)
  /// started it unless it is the first, it ran \p Whole (neither the
  /// epoch nor the CPU ended it and both devices ran all of it), and each
  /// device ran one phase throughout, the CPU without draining.
  /// Otherwise ends the recording and leaves its plan empty.
  void keepSlice(bool Governed, bool Whole);

  /// The power and deposits of a slice of \p Dt seconds at \p CpuFreq
  /// and \p GpuFreq in which the devices, just advanced, were busy for
  /// \p CpuBusySec and \p GpuBusySec.
  SliceEnergy sliceEnergy(double Dt, double CpuBusySec, double GpuBusySec,
                          double CpuFreq, double GpuFreq) const;

  PlatformSpec Spec;
  SimCpuDevice Cpu;
  SimGpuDevice Gpu;
  Pcu Governor;
  EnergyMeter Meter;
  EnergyMeter Pp0Meter;
  EnergyMeter Pp1Meter;
  std::unique_ptr<FaultInjector> Faults;
  std::unique_ptr<PowerTrace> Trace;
  double Now = 0.0;
  double NextEpoch = 0.0;
  /// Upper bound on a single integration slice.
  static constexpr double MaxSliceSec = 1e-3;
  double LastTrafficGBs = 0.0;
  bool LastCpuBusy = false;
  bool LastGpuBusy = false;
  double LastGovernorTime = 0.0;
  /// The slice step() charged last.
  SliceRecord Last;
  /// The plan runRepetition() is recording into, while it steps.
  RepetitionPlan *Recording = nullptr;
  uint64_t Replayed = 0;
  uint64_t Repeated = 0;
};

} // namespace ecas

#endif // ECAS_SIM_SIMPROCESSOR_H
