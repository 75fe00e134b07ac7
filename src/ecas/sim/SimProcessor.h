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

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <type_traits>
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

/// One simulated integrated CPU-GPU processor with virtual time.
class SimProcessor {
public:
  /// The slices of the last stepped profiling repetition, kept by
  /// runRepetition() so that later repetitions can charge the same
  /// slices again instead of stepping through them. Fixed size and
  /// inline: keeping or replaying a plan never allocates.
  class RepetitionPlan {
  public:
    /// A repetition that takes more slices than this keeps no plan.
    static constexpr unsigned MaxSlices = 8;

  private:
    friend class SimProcessor;
    struct Slice {
      double Dt = 0.0;
      DeviceSlice Cpu;
      DeviceSlice Gpu;
      SliceDeposit Deposit;
    };
    /// The inputs every slice depended on beyond the CPU share.
    KernelCost Kernel;
    double GpuChunk = 0.0;
    double GpuDerate = 0.0;
    double CpuFreq = 0.0;
    double GpuFreq = 0.0;
    RatePoint CpuRate;
    /// 0: no plan.
    unsigned NumSlices = 0;
    Slice Slices[MaxSlices];
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

  /// Repetitions runRepetition() charged from a plan instead of stepping.
  uint64_t repetitionsReplayed() const { return Replayed; }

private:
  /// What a slice feeds the meters and the trace once both devices have
  /// advanced. It is a pure function of nine doubles (see
  /// sliceEnergy()), which often repeat bit for bit: profiling
  /// repetitions alternate a launch slice and an execution slice, and a
  /// long dispatch repeats one slice between governor epochs.
  struct SliceEnergy {
    /// Bit patterns of the inputs: Dt, CPU and GPU busy seconds, CPU and
    /// GPU lastActivity(), CPU and GPU lastTrafficGBs(), CPU and GPU
    /// clock. Dt is at least 1e-9, so the all-zero key of an entry never
    /// filled cannot match.
    std::array<uint64_t, 9> Key{};
    PowerBreakdown Power;
    SliceDeposit Deposit;
  };

  /// Advances one slice of at most \p MaxDt seconds. Returns the slice
  /// length (always positive).
  double step(double MaxDt);

  /// step() while runRepetition() records a plan, or not: the
  /// unrecorded slice, which every dispatch runs, carries no recording
  /// code.
  template <bool Recorded>
  double stepSlice(double MaxDt, std::bool_constant<Recorded>);

  /// The governor's CPU and GPU clocks clamped by each device's
  /// frequency hint: the clocks a slice runs at.
  std::pair<double, double> effectiveClocks() const;

  /// True when a slice starting at virtual time \p T first runs a
  /// governor epoch.
  bool epochDueAt(double T) const { return T >= NextEpoch - 1e-12; }

  /// The tail of a slice once both devices have advanced: the meter
  /// deposits (with the RAPL fault hooks), the traffic the governor
  /// reads next, and now() moving on by \p Dt.
  void depositAndAdvance(double Dt, const SliceDeposit &Deposit);

  /// The plan slot the slice step() is about to run is recorded into,
  /// or nullptr, with the recording ended and no plan kept, when the
  /// plan is full or a governor move (\p Governed) starts any slice but
  /// the first.
  RepetitionPlan::Slice *recordingSlot(bool Governed);

  /// Keeps the slice of \p Dt seconds that advance() charged into
  /// \p Slot, with its \p Deposit, when a replay can reproduce it: it
  /// ran \p Whole (neither the epoch nor the CPU ended it and both
  /// devices ran all of it) and each device ran one phase throughout,
  /// the CPU without draining. Otherwise ends the recording with no plan.
  void keepSlice(RepetitionPlan::Slice &Slot, double Dt, bool Whole,
                 const SliceDeposit &Deposit);

  /// Ends the recording and leaves its plan empty.
  void dropRecording();

  /// Charges \p Plan's slices for a repetition of \p Kernel with
  /// \p GpuChunk and \p CpuShare when every guard holds. \returns the
  /// CPU iterations a stepped repetition would cancel, or nothing, with
  /// no state changed, when a guard fails.
  std::optional<double> replayRepetition(const RepetitionPlan &Plan,
                                         const KernelCost &Kernel,
                                         double GpuChunk, double CpuShare);

  /// The slice result for \p Inputs (ordered as SliceEnergy::Key), from
  /// the two most recent distinct inputs when either matches bit for
  /// bit, else computed and kept in place of the older one.
  const SliceEnergy &sliceEnergy(const std::array<double, 9> &Inputs);

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
  SliceEnergy Memo[2];
  /// Index of the most recently used Memo entry.
  unsigned MemoNewest = 0;
  /// The plan runRepetition() is recording into, while it steps.
  RepetitionPlan *Recording = nullptr;
  uint64_t Replayed = 0;
};

} // namespace ecas

#endif // ECAS_SIM_SIMPROCESSOR_H
