//===-- ecas/sim/SimProcessor.cpp - Integrated-processor simulator --------===//
//
// Part of the ecas project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "ecas/sim/SimProcessor.h"

#include "ecas/sim/PowerModel.h"
#include "ecas/support/Assert.h"

#include <algorithm>
#include <bit>

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

void SimProcessor::setMaxSliceSec(double Seconds) {
  ECAS_CHECK(Seconds > 0.0, "slice length must be positive");
  MaxSlice = Seconds;
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
  if (Now >= NextEpoch - 1e-12) {
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
  }

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
  double Dt = std::min(MaxDt, MaxSlice);
  Dt = std::min(Dt, NextEpoch - Now);
  if (Cpu.busy())
    Dt = std::min(Dt, Cpu.timeToHeadDrain(CpuFreq, CpuShare));
  if (Gpu.busy())
    Dt = std::min(Dt, Gpu.timeToHeadDrain(GpuFreq, GpuShare));
  Dt = std::max(Dt, 1e-9); // Guarantee progress against rounding.

  double CpuBusySec = Cpu.advance(Dt, CpuFreq, CpuShare);
  double GpuBusySec = Gpu.advance(Dt, GpuFreq, GpuShare);
  const SliceEnergy &Energy = sliceEnergy(
      {Dt, CpuBusySec, GpuBusySec, Cpu.lastActivity(), Gpu.lastActivity(),
       Cpu.lastTrafficGBs(), Gpu.lastTrafficGBs(), CpuFreq, GpuFreq});

  // RAPL faults hit only the package meter the characterization reads;
  // PP0/PP1 stay truthful so tests can still see the ground truth. A
  // dropped sample is energy that flowed but was never counted; a
  // counter jump is the reverse.
  bool DropSample = Faults && Faults->dropRaplSample(Now);
  if (!DropSample)
    Meter.deposit(Energy.PkgJoules, Energy.PkgUnits);
  if (Faults) {
    if (uint64_t Jump = Faults->pendingRaplJumpUnits(Now))
      Meter.injectCounterJump(Jump);
  }
  Pp0Meter.deposit(Energy.Pp0Joules, Energy.Pp0Units);
  Pp1Meter.deposit(Energy.Pp1Joules, Energy.Pp1Units);
  if (Trace) { // power-trace capture is opt-in (enableTrace)
    // ecas-hotpath: allow(alloc)
    Trace->addSegment(Now, Dt, Energy.Power, CpuFreq, GpuFreq);
  }

  LastTrafficGBs = Energy.TrafficGBs;
  Now += Dt;
  return Dt;
}

const SimProcessor::SliceEnergy &
SimProcessor::sliceEnergy(const std::array<double, 9> &Inputs) {
  auto Key = std::bit_cast<std::array<uint64_t, 9>>(Inputs);
  if (Memo[MemoNewest].Key == Key)
    return Memo[MemoNewest];
  MemoNewest ^= 1;
  SliceEnergy &Out = Memo[MemoNewest];
  if (Out.Key == Key)
    return Out;

  double Dt = Inputs[0], CpuBusySec = Inputs[1], GpuBusySec = Inputs[2];
  // Time-weighted activity: a device that drained mid-slice idles for the
  // remainder.
  auto BlendActivity = [Dt](double BusySec, double BusyActivity,
                            double IdleActivity) {
    return (BusyActivity * BusySec + IdleActivity * (Dt - BusySec)) / Dt;
  };
  double CpuActivity =
      BlendActivity(CpuBusySec, Inputs[3], Spec.CpuPower.IdleActivity);
  double GpuActivity =
      BlendActivity(GpuBusySec, Inputs[4], Spec.GpuPower.IdleActivity);
  Out.Key = Key;
  Out.TrafficGBs = (Inputs[5] * CpuBusySec + Inputs[6] * GpuBusySec) / Dt;
  Out.Power = packagePower(Spec, Inputs[7], CpuActivity, Inputs[8],
                           GpuActivity, Out.TrafficGBs);
  Out.PkgJoules = Out.Power.packageWatts() * Dt;
  Out.PkgUnits = Out.PkgJoules / Meter.energyUnitJoules();
  Out.Pp0Joules = Out.Power.CpuWatts * Dt;
  Out.Pp0Units = Out.Pp0Joules / Pp0Meter.energyUnitJoules();
  Out.Pp1Joules = Out.Power.GpuWatts * Dt;
  Out.Pp1Units = Out.Pp1Joules / Pp1Meter.energyUnitJoules();
  return Out;
}

double SimProcessor::runUntilIdle(double DeadlineSec) {
  double Start = Now;
  while ((Cpu.busy() || Gpu.busy()) && Now - Start < DeadlineSec)
    step(DeadlineSec - (Now - Start));
  return Now - Start;
}

double SimProcessor::runUntilGpuIdle(double DeadlineSec) {
  double Start = Now;
  while (Gpu.busy() && Now - Start < DeadlineSec)
    step(DeadlineSec - (Now - Start));
  return Now - Start;
}

void SimProcessor::runFor(double Seconds) {
  ECAS_CHECK(Seconds >= 0.0, "runFor requires non-negative duration");
  double End = Now + Seconds;
  while (Now < End - 1e-12)
    step(End - Now);
}
