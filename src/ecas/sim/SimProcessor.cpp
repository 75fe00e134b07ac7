//===-- ecas/sim/SimProcessor.cpp - Integrated-processor simulator --------===//
//
// Part of the ecas project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "ecas/sim/SimProcessor.h"

#include "ecas/sim/PowerModel.h"
#include "ecas/support/Assert.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <tuple>

using namespace ecas;

SimProcessor::SimProcessor(const PlatformSpec &SpecIn)
    : Spec(SpecIn), Cpu(Spec), Gpu(Spec), Governor(Spec),
      Meter(Spec.Pcu.EnergyUnitJoules), Pp0Meter(Spec.Pcu.EnergyUnitJoules),
      Pp1Meter(Spec.Pcu.EnergyUnitJoules) {
  std::string Error;
  ECAS_CHECK(Spec.validate(Error), "SimProcessor given an invalid spec");
  NextEpoch = Spec.Pcu.SamplingIntervalSec;
  if (Spec.Faults.enabled())
    Faults = std::make_unique<FaultInjector>(Spec.Faults);
}

void SimProcessor::enableTrace(double SampleIntervalSec) {
  Trace = std::make_unique<PowerTrace>(SampleIntervalSec);
}

// Both helpers below sit on every step; inline keeps them in it.
inline std::pair<double, double> SimProcessor::effectiveClocks() const {
  double CpuFreq = Governor.cpuFreqGHz();
  double GpuFreq = Governor.gpuFreqGHz();
  // Device-level frequency hints clamp the governor's pick for the
  // slice (hints below the hardware floor clamp to the floor; 0 = no
  // hint). The governor itself is not consulted — hints are the
  // runtime's black-box feedback channel, not a policy input.
  if (Cpu.frequencyHintGHz() > 0.0)
    CpuFreq = std::min(
        CpuFreq, std::max(Cpu.frequencyHintGHz(), Spec.Cpu.MinFreqGHz));
  if (Gpu.frequencyHintGHz() > 0.0)
    GpuFreq = std::min(
        GpuFreq, std::max(Gpu.frequencyHintGHz(), Spec.Gpu.MinFreqGHz));
  return {CpuFreq, GpuFreq};
}

inline void SimProcessor::depositAndAdvance(double Dt,
                                            const SliceDeposit &Deposit) {
  // RAPL faults hit only the package meter the characterization reads;
  // PP0/PP1 stay truthful so tests can still see the ground truth. A
  // dropped sample is energy that flowed but was never counted; a
  // counter jump is the reverse.
  bool DropSample = Faults && Faults->dropRaplSample(Now);
  if (!DropSample)
    Meter.deposit(Deposit.PkgJoules, Deposit.PkgUnits);
  if (Faults) {
    if (uint64_t Jump = Faults->pendingRaplJumpUnits(Now))
      Meter.injectCounterJump(Jump);
  }
  Pp0Meter.deposit(Deposit.Pp0Joules, Deposit.Pp0Units);
  Pp1Meter.deposit(Deposit.Pp1Joules, Deposit.Pp1Units);
  LastTrafficGBs = Deposit.TrafficGBs;
  Now += Dt;
}

double SimProcessor::step(double MaxDt) {
  ECAS_CHECK(MaxDt > 0.0, "step requires positive time budget");

  // Fault injection: the GPU's throughput derate is re-sampled each
  // slice (0 while a hang is active, throttle scale otherwise), so the
  // scheduler only ever observes its *effects* — work that stops
  // retiring — never the injector itself.
  if (Faults)
    Gpu.setThroughputDerate(Faults->gpuThroughputScale(Now));

  // Full governor policy runs on the periodic sampling epoch; busy-state
  // flips between epochs only gate device clocks (bursts shorter than
  // the sampling interval are invisible to the governor proper).
  bool CpuBusyNow = Cpu.busy();
  bool GpuBusyNow = Gpu.busy();
  bool Governed = true;
  if (epochDueAt(NextEpoch, Now)) {
    PcuObservation Obs;
    Obs.CpuActive = CpuBusyNow;
    Obs.GpuActive = GpuBusyNow;
    Obs.CpuActivity = Cpu.lastActivity();
    Obs.GpuActivity = Gpu.lastActivity();
    Obs.TrafficGBs = LastTrafficGBs;
    Governor.stepEpoch(Obs, Now - LastGovernorTime);
    LastGovernorTime = Now;
    NextEpoch = Now + Spec.Pcu.SamplingIntervalSec;
    LastCpuBusy = CpuBusyNow;
    LastGpuBusy = GpuBusyNow;
  } else if (CpuBusyNow != LastCpuBusy || GpuBusyNow != LastGpuBusy) {
    Governor.noteActivityTransition(CpuBusyNow, GpuBusyNow);
    LastCpuBusy = CpuBusyNow;
    LastGpuBusy = GpuBusyNow;
  } else {
    Governed = false;
  }

  auto [CpuFreq, GpuFreq] = effectiveClocks();

  // DRAM bandwidth arbitration: max-min fairness, like a round-robin
  // memory controller — each device is guaranteed half the bandwidth,
  // and capacity a device doesn't demand flows to the other.
  RatePoint CpuRate = Cpu.currentRate(CpuFreq);
  RatePoint GpuRate = Gpu.currentRate(GpuFreq);
  double CpuShare = CpuRate.BandwidthDemandGBs;
  double GpuShare = GpuRate.BandwidthDemandGBs;
  double Capacity = Spec.Memory.BandwidthGBs;
  if (CpuShare + GpuShare > Capacity) {
    double Half = Capacity * 0.5;
    if (CpuShare <= Half)
      GpuShare = Capacity - CpuShare;
    else if (GpuShare <= Half)
      CpuShare = Capacity - GpuShare;
    else
      CpuShare = GpuShare = Half;
  }

  // The slice ends at the earliest of: caller budget, next epoch, either
  // device draining its head work item.
  double EpochLeft = NextEpoch - Now;
  double CpuDrain =
      CpuBusyNow ? Cpu.timeToHeadDrain(CpuFreq, CpuShare) : 1e30;
  double Dt = std::min(MaxDt, MaxSliceSec);
  Dt = std::min(Dt, EpochLeft);
  Dt = std::min(Dt, CpuDrain);
  if (GpuBusyNow)
    Dt = std::min(Dt, Gpu.timeToHeadDrain(GpuFreq, GpuShare));
  Dt = std::max(Dt, 1e-9); // Guarantee progress against rounding.

  double CpuBusySec = Cpu.advance(Dt, CpuFreq, CpuShare, Last.Cpu);
  double GpuBusySec = Gpu.advance(Dt, GpuFreq, GpuShare, Last.Gpu);
  SliceEnergy Energy =
      sliceEnergy(Dt, CpuBusySec, GpuBusySec, CpuFreq, GpuFreq);
  Last.Dt = Dt;
  Last.Deposit = Energy.Deposit;
  // A repetition being recorded (runRepetition) keeps the slice in its
  // plan.
  if (Recording)
    keepSlice(Governed, EpochLeft > Dt && CpuDrain > Dt && CpuBusySec == Dt &&
                            GpuBusySec == Dt);
  if (Trace) { // power-trace capture is opt-in (enableTrace)
    // ecas-hotpath: allow(alloc)
    Trace->addSegment(Now, Dt, Energy.Power, CpuFreq, GpuFreq);
  }
  depositAndAdvance(Dt, Energy.Deposit);
  return Dt;
}

SimProcessor::SliceEnergy
SimProcessor::sliceEnergy(double Dt, double CpuBusySec, double GpuBusySec,
                          double CpuFreq, double GpuFreq) const {
  // Time-weighted activity: a device that drained mid-slice idles for the
  // remainder.
  auto BlendActivity = [Dt](double BusySec, double BusyActivity,
                            double IdleActivity) {
    return (BusyActivity * BusySec + IdleActivity * (Dt - BusySec)) / Dt;
  };
  double CpuActivity = BlendActivity(CpuBusySec, Cpu.lastActivity(),
                                     Spec.CpuPower.IdleActivity);
  double GpuActivity = BlendActivity(GpuBusySec, Gpu.lastActivity(),
                                     Spec.GpuPower.IdleActivity);
  SliceEnergy Out;
  SliceDeposit &D = Out.Deposit;
  D.TrafficGBs = (Cpu.lastTrafficGBs() * CpuBusySec +
                  Gpu.lastTrafficGBs() * GpuBusySec) /
                 Dt;
  Out.Power = packagePower(Spec, CpuFreq, CpuActivity, GpuFreq, GpuActivity,
                           D.TrafficGBs);
  D.PkgJoules = Out.Power.packageWatts() * Dt;
  D.PkgUnits = D.PkgJoules / Meter.energyUnitJoules();
  D.Pp0Joules = Out.Power.CpuWatts * Dt;
  D.Pp0Units = D.Pp0Joules / Pp0Meter.energyUnitJoules();
  D.Pp1Joules = Out.Power.GpuWatts * Dt;
  D.Pp1Units = D.Pp1Joules / Pp1Meter.energyUnitJoules();
  return Out;
}

/// Bitwise equality: the replay guards compare the inputs a slice was
/// computed from by bit pattern, so +0/-0 and NaN never alias.
template <typename T> static bool sameBits(const T &A, const T &B) {
  return std::memcmp(&A, &B, sizeof(T)) == 0;
}

double SimProcessor::runRepetition(const KernelCost &Kernel, double GpuChunk,
                                   double CpuShare, RepetitionPlan &Plan) {
  if (canReplay(Plan, Kernel, GpuChunk)) {
    ReplayBatch Batch(*this, Plan);
    if (std::optional<double> Unprocessed = Batch.checkRepetition(CpuShare)) {
      Batch.chargeRepetition();
      Batch.writeBack();
      return *Unprocessed;
    }
  }
  // Step the repetition. Its slices become the new plan when it starts
  // from idle devices and neither a power trace nor a fault injector
  // needs each slice to run in full.
  Plan.NumSlices = 0;
  if (!Faults && !Trace && !Cpu.busy() && !Gpu.busy())
    Recording = &Plan;
  Gpu.enqueue(Kernel, GpuChunk);
  if (CpuShare > 0.0)
    Cpu.enqueue(Kernel, CpuShare);
  runUntilGpuIdle();
  if (Recording) {
    // Every slice was kept, so all ran at the clocks the repetition ends
    // with. The CPU's rate depends on its share only through the part of
    // its threads the share fills (SimCpuDevice::rateModel): every share
    // of at least effectiveThreads() runs at this one's rate when this
    // one is that large, and otherwise only this share does.
    Recording = nullptr;
    Plan.Kernel = Kernel;
    Plan.GpuChunk = GpuChunk;
    Plan.GpuDerate = Gpu.throughputDerate();
    std::tie(Plan.CpuFreq, Plan.GpuFreq) = effectiveClocks();
    double Threads = Cpu.effectiveThreads();
    Plan.MinCpuShare = std::min(CpuShare, Threads);
    Plan.MaxCpuShare = CpuShare >= Threads ? HUGE_VAL : CpuShare;
    for (unsigned I = 0; I != Plan.NumSlices; ++I) {
      const SliceRecord &Slice = Plan.Slices[I];
      Plan.CpuCharges[I] = SimDevice::sliceCharge(Kernel, Slice.Dt, Slice.Cpu);
      Plan.GpuCharges[I] = SimDevice::sliceCharge(Kernel, Slice.Dt, Slice.Gpu);
    }
  }
  return Cpu.cancelRemaining();
}

void SimProcessor::keepSlice(bool Governed, bool Whole) {
  RepetitionPlan &Plan = *Recording;
  // Every slice must run at the clocks of the first: only the first may
  // start with a governor move.
  if ((Governed && Plan.NumSlices != 0) ||
      Plan.NumSlices == RepetitionPlan::MaxSlices || !Whole ||
      Last.Cpu.Phases != 1 || Last.Cpu.Setup || Last.Cpu.Drained ||
      Last.Gpu.Phases != 1) {
    Plan.NumSlices = 0;
    Recording = nullptr;
    return;
  }
  Plan.Slices[Plan.NumSlices++] = Last;
}

bool SimProcessor::canReplay(const RepetitionPlan &Plan,
                             const KernelCost &Kernel, double GpuChunk) const {
  // A stepped repetition would take the plan's slices when it starts from
  // the same state: idle devices whose busy flags are already set (no
  // transition at the first slice), the same GPU work at the same derate,
  // and the same clocks (caps and hints included). A replay changes none
  // of these: it leaves the queues empty and the governor alone.
  if (Plan.NumSlices == 0 || Faults || Trace || Cpu.busy() || Gpu.busy() ||
      !LastCpuBusy || !LastGpuBusy || !sameBits(Kernel, Plan.Kernel) ||
      !sameBits(GpuChunk, Plan.GpuChunk) ||
      !sameBits(Gpu.throughputDerate(), Plan.GpuDerate))
    return false;
  auto [CpuFreq, GpuFreq] = effectiveClocks();
  return sameBits(CpuFreq, Plan.CpuFreq) && sameBits(GpuFreq, Plan.GpuFreq);
}

uint64_t SimProcessor::repeatsWithin(double Span) {
  // Below 2^30 s each addition of a slice to now() rounds by at most
  // 2^-24 s, so the starts of up to 1024 repeated slices drift by at most
  // 2^-14 s, a sixteenth of a slice: two spare slices cover that and the
  // rounding of the guard's own subtraction.
  double Slices = Span / MaxSliceSec;
  if (!(Slices >= 3.0))
    return 0;
  return static_cast<uint64_t>(std::min(Slices, 1026.0)) - 2;
}

void SimProcessor::repeatSlices(double Start, double DeadlineSec) {
  // The next slice would start from the state the last one started from,
  // apart from the head items' iterations left and now(). With no epoch
  // due and no busy flag flipped the governor neither moves nor notes a
  // transition, so the slice runs at the same clocks, rates and
  // bandwidth split; when nothing ends it before MaxSliceSec it charges
  // the same iterations, activities and deposits again.
  if (Faults || Trace || Recording || Last.Dt != MaxSliceSec)
    return;
  // Each guard below only tightens as slices repeat (now() rises, the
  // head items shrink), so every guard holds for each of the first
  // Certain slices when it holds, with room to spare, for the last.
  uint64_t Certain =
      Now < 0x1p30 ? std::min({repeatsWithin(DeadlineSec - (Now - Start)),
                               repeatsWithin(NextEpoch - Now),
                               Cpu.certainRepeats(Last.Cpu),
                               Gpu.certainRepeats(Last.Gpu)})
                   : 0;
  Repeated += Certain;
  for (; Certain != 0; --Certain) {
    Cpu.repeatSlice(MaxSliceSec, Last.Cpu);
    Gpu.repeatSlice(MaxSliceSec, Last.Gpu);
    depositAndAdvance(MaxSliceSec, Last.Deposit);
  }
  while (DeadlineSec - (Now - Start) >= MaxSliceSec &&
         epochClearOf(NextEpoch, Now, MaxSliceSec) &&
         Cpu.canRepeat(MaxSliceSec, Last.Cpu) &&
         Gpu.canRepeat(MaxSliceSec, Last.Gpu)) {
    Cpu.repeatSlice(MaxSliceSec, Last.Cpu);
    Gpu.repeatSlice(MaxSliceSec, Last.Gpu);
    depositAndAdvance(MaxSliceSec, Last.Deposit);
    ++Repeated;
  }
}

double SimProcessor::runUntilIdle(double DeadlineSec) {
  double Start = Now;
  while ((Cpu.busy() || Gpu.busy()) && Now - Start < DeadlineSec) {
    step(DeadlineSec - (Now - Start));
    repeatSlices(Start, DeadlineSec);
  }
  return Now - Start;
}

double SimProcessor::runUntilGpuIdle(double DeadlineSec) {
  double Start = Now;
  while (Gpu.busy() && Now - Start < DeadlineSec) {
    step(DeadlineSec - (Now - Start));
    repeatSlices(Start, DeadlineSec);
  }
  return Now - Start;
}

void SimProcessor::runFor(double Seconds) {
  ECAS_CHECK(Seconds >= 0.0, "runFor requires non-negative duration");
  double End = Now + Seconds;
  while (Now < End - 1e-12) {
    step(End - Now);
    // End - (Now - 0.0) is End - Now, the budget step() was given.
    repeatSlices(0.0, End);
  }
}
