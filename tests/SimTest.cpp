//===-- tests/SimTest.cpp - sim/ unit tests --------------------------------===//
//
// Part of the ecas project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "ecas/fault/FaultPlan.h"
#include "ecas/hw/Presets.h"
#include "ecas/power/MicroBenchmarks.h"
#include "ecas/profile/OnlineProfiler.h"
#include "ecas/sim/EnergyMeter.h"
#include "ecas/sim/Pcu.h"
#include "ecas/sim/PowerModel.h"
#include "ecas/sim/PowerTrace.h"
#include "ecas/sim/SimProcessor.h"
#include "ecas/support/Format.h"
#include "ecas/support/Random.h"

#include "TestSupport.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <string>
#include <vector>

using namespace ecas;

TEST(EnergyMeter, AccumulatesAndConverts) {
  EnergyMeter Meter(1e-3); // 1 mJ units.
  uint32_t Before = Meter.readMsr();
  Meter.deposit(0.5);
  EXPECT_NEAR(Meter.joulesSince(Before), 0.5, 1e-3);
  EXPECT_DOUBLE_EQ(Meter.totalJoules(), 0.5);
}

TEST(EnergyMeter, FractionalUnitsCarry) {
  EnergyMeter Meter(1.0);
  for (int I = 0; I != 10; ++I)
    Meter.deposit(0.25); // 2.5 units total.
  EXPECT_EQ(Meter.readMsr(), 2u);
  EXPECT_DOUBLE_EQ(Meter.totalJoules(), 2.5);
}

TEST(EnergyMeter, WraparoundHandledBySamplingProtocol) {
  EnergyMeter Meter(1.0);
  // Drive the 32-bit counter near the top, then across it.
  Meter.deposit(4294967290.0);
  uint32_t Sample = Meter.readMsr();
  Meter.deposit(10.0);
  EXPECT_NEAR(Meter.joulesSince(Sample), 10.0, 1.0);
  EXPECT_LT(Meter.readMsr(), 10u); // Wrapped.
}

TEST(EnergyMeter, CounterPeriodIsOneFullCounterTrip) {
  // One period is 2^32 energy units: a deposit of exactly one period
  // brings the 32-bit MSR back to where it was.
  EnergyMeter Meter(61e-6); // Desktop RAPL unit.
  Meter.deposit(0.5);
  uint32_t Sample = Meter.readMsr();
  Meter.deposit(4294967296.0 * 61e-6, 4294967296.0);
  EXPECT_EQ(Meter.readMsr(), Sample);
  EXPECT_DOUBLE_EQ(Meter.joulesSince(Sample), 0.0);
}

TEST(EnergyMeter, TwoWrapIntervalAliasesByWholePeriods) {
  // Regression for the sampling-interval contract: an interval spanning
  // k >= 2 wraps under-reports by exactly k counter periods, and the
  // reader has no way to detect the loss.
  EnergyMeter Meter(1.0);
  const double PeriodJoules = 4294967296.0 * Meter.energyUnitJoules();
  uint32_t Sample = Meter.readMsr();
  double TwoWrapsAndChange = 2.0 * PeriodJoules + 10.0;
  Meter.deposit(TwoWrapsAndChange);
  EXPECT_DOUBLE_EQ(Meter.totalJoules(), TwoWrapsAndChange);
  EXPECT_NEAR(Meter.joulesSince(Sample), 10.0, 1.0);
  EXPECT_NEAR(TwoWrapsAndChange - Meter.joulesSince(Sample),
              2.0 * PeriodJoules, 1.0);
}

TEST(EnergyMeter, InjectedJumpSkewsMsrNotGroundTruth) {
  EnergyMeter Meter(1.0);
  Meter.deposit(100.0);
  uint32_t Before = Meter.readMsr();
  Meter.injectCounterJump((uint64_t(2) << 32) + 5); // Two wraps + 5 units.
  EXPECT_EQ(Meter.readMsr(), Before + 5u); // Only the low 32 bits survive.
  EXPECT_DOUBLE_EQ(Meter.totalJoules(), 100.0); // Truth untouched.
}

TEST(PowerModel, ComponentsAddUp) {
  PlatformSpec Spec = haswellDesktop();
  PowerBreakdown P = packagePower(Spec, 3.6, 1.0, 0.35, 0.02, 10.0);
  EXPECT_NEAR(P.packageWatts(), P.CpuWatts + P.GpuWatts + P.UncoreWatts,
              1e-12);
  EXPECT_GT(P.CpuWatts, Spec.CpuPower.LeakageWatts);
  EXPECT_NEAR(P.UncoreWatts,
              Spec.Uncore.BaseWatts + Spec.Uncore.WattsPerGBs * 10.0,
              1e-12);
}

TEST(PowerModel, CubicFrequencyScaling) {
  PlatformSpec Spec = haswellDesktop();
  double LowF = devicePower(Spec.CpuPower, 1.0, 1.0) -
                Spec.CpuPower.LeakageWatts;
  double HighF = devicePower(Spec.CpuPower, 2.0, 1.0) -
                 Spec.CpuPower.LeakageWatts;
  EXPECT_NEAR(HighF / LowF, 8.0, 1e-9);
}

TEST(Pcu, SingleDeviceTurboRampsUp) {
  PlatformSpec Spec = haswellDesktop();
  Pcu Governor(Spec);
  PcuObservation Obs;
  Obs.CpuActive = true;
  Obs.CpuActivity = 1.0;
  for (int Epoch = 0; Epoch != 10; ++Epoch)
    Governor.stepEpoch(Obs);
  EXPECT_DOUBLE_EQ(Governor.cpuFreqGHz(), Spec.Cpu.MaxTurboGHz);
  EXPECT_DOUBLE_EQ(Governor.gpuFreqGHz(), Spec.Gpu.MinFreqGHz);
}

TEST(Pcu, CoRunCapsCpuFrequency) {
  PlatformSpec Spec = haswellDesktop();
  Pcu Governor(Spec);
  PcuObservation Obs;
  Obs.CpuActive = true;
  Obs.GpuActive = true;
  Obs.CpuActivity = 1.0;
  Obs.GpuActivity = 1.0;
  for (int Epoch = 0; Epoch != 20; ++Epoch)
    Governor.stepEpoch(Obs);
  EXPECT_LE(Governor.cpuFreqGHz(), Spec.Cpu.CoRunMaxFreqGHz + 1e-12);
  EXPECT_DOUBLE_EQ(Governor.gpuFreqGHz(), Spec.Gpu.MaxFreqGHz);
}

TEST(Pcu, GpuWakeupResetsCpuToEfficiency) {
  PlatformSpec Spec = haswellDesktop();
  Pcu Governor(Spec);
  PcuObservation CpuOnly;
  CpuOnly.CpuActive = true;
  CpuOnly.CpuActivity = 1.0;
  for (int Epoch = 0; Epoch != 10; ++Epoch)
    Governor.stepEpoch(CpuOnly);
  ASSERT_DOUBLE_EQ(Governor.cpuFreqGHz(), Spec.Cpu.MaxTurboGHz);

  // GPU becomes active: Fig. 4's dip mechanism.
  PcuObservation Both = CpuOnly;
  Both.GpuActive = true;
  Both.GpuActivity = 0.5;
  Governor.stepEpoch(Both);
  EXPECT_LE(Governor.cpuFreqGHz(),
            Spec.Cpu.EfficiencyFreqGHz + Spec.Pcu.RampUpGHzPerEpoch + 1e-12);
  // Sustained co-running ramps back toward the co-run cap.
  for (int Epoch = 0; Epoch != 20; ++Epoch)
    Governor.stepEpoch(Both);
  EXPECT_NEAR(Governor.cpuFreqGHz(), Spec.Cpu.CoRunMaxFreqGHz, 1e-9);
}

TEST(Pcu, TabletBudgetThrottlesBothDevices) {
  PlatformSpec Spec = bayTrailTablet();
  Pcu Governor(Spec);
  PcuObservation Both;
  Both.CpuActive = true;
  Both.GpuActive = true;
  Both.CpuActivity = 1.0;
  Both.GpuActivity = 1.0;
  for (int Epoch = 0; Epoch != 30; ++Epoch)
    Governor.stepEpoch(Both);
  PowerBreakdown P =
      packagePower(Spec, Governor.cpuFreqGHz(), 1.0, Governor.gpuFreqGHz(),
                   1.0, Both.TrafficGBs);
  EXPECT_LE(P.packageWatts(), Spec.Pcu.TdpWatts + 0.05);
  // Proportional policy: the GPU also backed off its ceiling.
  EXPECT_LT(Governor.gpuFreqGHz(), Spec.Gpu.MaxFreqGHz);
  EXPECT_LT(Governor.cpuFreqGHz(), Spec.Cpu.CoRunMaxFreqGHz);
}

TEST(PowerTrace, ResamplesOntoGrid) {
  PowerTrace Trace(0.010);
  PowerBreakdown P;
  P.CpuWatts = 30.0;
  P.UncoreWatts = 10.0;
  Trace.addSegment(0.0, 0.025, P, 3.0, 0.35);
  Trace.finish();
  ASSERT_EQ(Trace.samples().size(), 3u);
  EXPECT_NEAR(Trace.samples()[0].PackageWatts, 40.0, 1e-9);
  EXPECT_NEAR(Trace.samples()[1].PackageWatts, 40.0, 1e-9);
  EXPECT_DOUBLE_EQ(Trace.samples()[0].TimeSec, 0.0);
  EXPECT_DOUBLE_EQ(Trace.samples()[1].TimeSec, 0.010);
}

TEST(PowerTrace, TimeWeightedAveraging) {
  PowerTrace Trace(0.010);
  PowerBreakdown Low, High;
  Low.CpuWatts = 10.0;
  High.CpuWatts = 30.0;
  Trace.addSegment(0.0, 0.005, Low, 1.0, 0.35);
  Trace.addSegment(0.005, 0.005, High, 2.0, 0.35);
  Trace.finish();
  ASSERT_EQ(Trace.samples().size(), 1u);
  EXPECT_NEAR(Trace.samples()[0].PackageWatts, 20.0, 1e-9);
  EXPECT_NEAR(Trace.samples()[0].CpuFreqGHz, 1.5, 1e-9);
}

TEST(PowerTrace, CsvHeaderAndRows) {
  PowerTrace Trace(0.010);
  PowerBreakdown P;
  P.GpuWatts = 5.0;
  Trace.addSegment(0.0, 0.010, P, 1.0, 1.0);
  Trace.finish();
  std::string Csv = Trace.toCsv();
  EXPECT_NE(Csv.find("time_s,package_w"), std::string::npos);
  EXPECT_NE(Csv.find("5.000"), std::string::npos);
}

TEST(SimProcessor, IdleConsumesIdlePower) {
  PlatformSpec Spec = haswellDesktop();
  SimProcessor Proc(Spec);
  Proc.runFor(1.0);
  double Watts = Proc.meter().totalJoules() / 1.0;
  // Idle: leakages + uncore base + tiny idle dynamic power.
  EXPECT_GT(Watts, 5.0);
  EXPECT_LT(Watts, 12.0);
  EXPECT_NEAR(Proc.now(), 1.0, 1e-9);
}

TEST(SimProcessor, CpuAloneComputeHitsCalibrationTarget) {
  PlatformSpec Spec = haswellDesktop();
  SimProcessor Proc(Spec);
  Proc.cpu().enqueue(computeBoundMicroKernel(), 1e12);
  Proc.runFor(1.0);
  double Watts = Proc.meter().totalJoules() / 1.0;
  // Paper: ~45 W CPU-alone compute-bound on the desktop (allow ramp-up).
  EXPECT_NEAR(Watts, 45.0, 3.0);
}

TEST(SimProcessor, GpuAloneComputeHitsCalibrationTarget) {
  PlatformSpec Spec = haswellDesktop();
  SimProcessor Proc(Spec);
  Proc.gpu().enqueue(computeBoundMicroKernel(), 1e12);
  Proc.runFor(1.0);
  double Watts = Proc.meter().totalJoules() / 1.0;
  // Paper: ~30 W GPU-alone compute-bound on the desktop.
  EXPECT_NEAR(Watts, 30.0, 3.0);
}

TEST(SimProcessor, CoRunComputeHitsCalibrationTarget) {
  PlatformSpec Spec = haswellDesktop();
  SimProcessor Proc(Spec);
  Proc.cpu().enqueue(computeBoundMicroKernel(), 1e12);
  Proc.gpu().enqueue(computeBoundMicroKernel(), 1e12);
  Proc.runFor(1.0);
  double Watts = Proc.meter().totalJoules() / 1.0;
  // Paper: ~55 W with CPU and GPU simultaneously busy.
  EXPECT_NEAR(Watts, 55.0, 4.0);
}

TEST(SimProcessor, MemoryBoundRunsHotterThanCompute) {
  PlatformSpec Spec = haswellDesktop();
  SimProcessor Compute(Spec), Memory(Spec);
  Compute.cpu().enqueue(computeBoundMicroKernel(), 1e12);
  Compute.gpu().enqueue(computeBoundMicroKernel(), 1e12);
  Compute.runFor(1.0);
  Memory.cpu().enqueue(memoryBoundMicroKernel(), 1e12);
  Memory.gpu().enqueue(memoryBoundMicroKernel(), 1e12);
  Memory.runFor(1.0);
  // Fig. 3: memory-bound ~63 W vs compute-bound ~55 W on the desktop.
  EXPECT_GT(Memory.meter().totalJoules(), Compute.meter().totalJoules());
}

TEST(SimProcessor, TabletMemoryBoundRunsCoolerThanCompute) {
  PlatformSpec Spec = bayTrailTablet();
  SimProcessor Compute(Spec), Memory(Spec);
  Compute.cpu().enqueue(computeBoundMicroKernel(), 1e12);
  Compute.runFor(1.0);
  Memory.cpu().enqueue(memoryBoundMicroKernel(), 1e12);
  Memory.runFor(1.0);
  // Fig. 6: the tablet inverts the desktop relation.
  EXPECT_LT(Memory.meter().totalJoules(), Compute.meter().totalJoules());
}

TEST(SimProcessor, RunUntilIdleCompletesExactly) {
  PlatformSpec Spec = haswellDesktop();
  SimProcessor Proc(Spec);
  KernelDesc Kernel = computeBoundMicroKernel();
  Proc.cpu().enqueue(Kernel, 1e6);
  double Elapsed = Proc.runUntilIdle();
  EXPECT_FALSE(Proc.cpu().busy());
  EXPECT_GT(Elapsed, 0.0);
  EXPECT_NEAR(Proc.cpu().counters().IterationsDone, 1e6, 1.0);
}

TEST(SimProcessor, DeterministicAcrossRuns) {
  PlatformSpec Spec = haswellDesktop();
  auto RunOnce = [&Spec] {
    SimProcessor Proc(Spec);
    Proc.cpu().enqueue(memoryBoundMicroKernel(), 5e6);
    Proc.gpu().enqueue(memoryBoundMicroKernel(), 5e6);
    Proc.runUntilIdle();
    return std::make_pair(Proc.now(), Proc.meter().totalJoules());
  };
  auto [TimeA, EnergyA] = RunOnce();
  auto [TimeB, EnergyB] = RunOnce();
  EXPECT_DOUBLE_EQ(TimeA, TimeB);
  EXPECT_DOUBLE_EQ(EnergyA, EnergyB);
}

TEST(SimProcessor, ShortGpuBurstDipsPackagePower) {
  // Fig. 4: a memory-bound CPU phase at ~60 W dips well below when a
  // short GPU burst arrives (CPU reset to efficiency frequency).
  PlatformSpec Spec = haswellDesktop();
  SimProcessor Proc(Spec);
  Proc.enableTrace(0.005);
  KernelDesc Kernel = memoryBoundMicroKernel();

  // Long CPU phase to reach steady state.
  Proc.cpu().enqueue(Kernel, 1e12);
  Proc.runFor(0.5);
  double SteadyWatts = 0.0;
  {
    uint32_t Before = Proc.meter().readMsr();
    Proc.runFor(0.1);
    SteadyWatts = Proc.meter().joulesSince(Before) / 0.1;
  }
  // A GPU burst long enough for the governor to notice (Fig. 4's bursts
  // span several sampling intervals) while the CPU keeps running.
  uint32_t Before = Proc.meter().readMsr();
  double BurstStart = Proc.now();
  Proc.gpu().enqueue(Kernel, 1e7);
  Proc.runUntilGpuIdle();
  Proc.runFor(0.04); // The CPU is still ramping back up.
  double BurstWatts =
      Proc.meter().joulesSince(Before) / (Proc.now() - BurstStart);
  EXPECT_GT(SteadyWatts, 55.0);
  EXPECT_LT(BurstWatts, SteadyWatts - 5.0);
  // The trace minimum inside the burst shows the deep Fig. 4 dip.
  double MinWatts = 1e30;
  for (const TraceSample &Sample : Proc.trace()->samples())
    if (Sample.TimeSec >= BurstStart && Sample.PackageWatts > 0.0)
      MinWatts = std::min(MinWatts, Sample.PackageWatts);
  EXPECT_LT(MinWatts, SteadyWatts - 12.0);
}

TEST(Pcu, ResetRestoresPowerOnState) {
  PlatformSpec Spec = haswellDesktop();
  Pcu Governor(Spec);
  PcuObservation Obs;
  Obs.CpuActive = true;
  Obs.GpuActive = true;
  Obs.CpuActivity = 1.0;
  Obs.GpuActivity = 1.0;
  for (int Epoch = 0; Epoch != 5; ++Epoch)
    Governor.stepEpoch(Obs);
  Governor.reset();
  EXPECT_DOUBLE_EQ(Governor.cpuFreqGHz(), Spec.Cpu.BaseFreqGHz);
  EXPECT_DOUBLE_EQ(Governor.gpuFreqGHz(), Spec.Gpu.MinFreqGHz);
}

TEST(Pcu, DesktopBudgetThrottlesOnlyTheCpu) {
  // GpuPriority: with an artificially tight budget the CPU absorbs the
  // whole deficit while the GPU keeps its clock.
  PlatformSpec Spec = haswellDesktop();
  Spec.Pcu.TdpWatts = 40.0;
  Pcu Governor(Spec);
  PcuObservation Both;
  Both.CpuActive = true;
  Both.GpuActive = true;
  Both.CpuActivity = 1.0;
  Both.GpuActivity = 1.0;
  for (int Epoch = 0; Epoch != 30; ++Epoch)
    Governor.stepEpoch(Both);
  EXPECT_DOUBLE_EQ(Governor.gpuFreqGHz(), Spec.Gpu.MaxFreqGHz);
  EXPECT_LT(Governor.cpuFreqGHz(), Spec.Cpu.CoRunMaxFreqGHz);
  PowerBreakdown P = packagePower(Spec, Governor.cpuFreqGHz(), 1.0,
                                  Governor.gpuFreqGHz(), 1.0, 0.0);
  EXPECT_LE(P.packageWatts(), Spec.Pcu.TdpWatts + 0.05);
}

TEST(Pcu, TransitionGatesClocksWithoutPolicy) {
  PlatformSpec Spec = haswellDesktop();
  Pcu Governor(Spec);
  Governor.noteActivityTransition(/*CpuActive=*/true, /*GpuActive=*/true);
  EXPECT_DOUBLE_EQ(Governor.gpuFreqGHz(), Spec.Gpu.MaxFreqGHz);
  EXPECT_GE(Governor.cpuFreqGHz(), Spec.Cpu.BaseFreqGHz);
  Governor.noteActivityTransition(false, false);
  EXPECT_DOUBLE_EQ(Governor.gpuFreqGHz(), Spec.Gpu.MinFreqGHz);
  EXPECT_DOUBLE_EQ(Governor.cpuFreqGHz(), Spec.Cpu.MinFreqGHz);
}

TEST(SimProcessor, RunUntilGpuIdleLeavesCpuWork) {
  PlatformSpec Spec = haswellDesktop();
  SimProcessor Proc(Spec);
  KernelDesc Kernel = computeBoundMicroKernel();
  Proc.gpu().enqueue(Kernel, 1e6);
  Proc.cpu().enqueue(Kernel, 1e12);
  Proc.runUntilGpuIdle();
  EXPECT_FALSE(Proc.gpu().busy());
  EXPECT_TRUE(Proc.cpu().busy());
  EXPECT_GT(Proc.cpu().counters().IterationsDone, 0.0);
}

TEST(SimProcessor, EnergyMatchesTraceIntegral) {
  PlatformSpec Spec = haswellDesktop();
  SimProcessor Proc(Spec);
  Proc.enableTrace(0.01);
  Proc.cpu().enqueue(computeBoundMicroKernel(), 3e8);
  Proc.runUntilIdle();
  Proc.trace()->finish();
  double TraceJoules = 0.0;
  for (const TraceSample &Sample : Proc.trace()->samples())
    TraceJoules += Sample.PackageWatts * 0.01;
  // The last cell is partial, so allow one cell of slack.
  EXPECT_NEAR(TraceJoules, Proc.meter().totalJoules(),
              0.01 * 80.0 + 0.02 * Proc.meter().totalJoules());
}

TEST(SimProcessor, FractionalIterationsSupported) {
  PlatformSpec Spec = haswellDesktop();
  SimProcessor Proc(Spec);
  Proc.cpu().enqueue(computeBoundMicroKernel(), 1234.5);
  Proc.runUntilIdle();
  EXPECT_NEAR(Proc.cpu().counters().IterationsDone, 1234.5, 1e-6);
}

TEST(SimProcessor, ZeroByteKernelUsesNoBandwidth) {
  PlatformSpec Spec = haswellDesktop();
  SimProcessor Proc(Spec);
  KernelDesc Kernel = computeBoundMicroKernel(); // BytesPerIter == 0.
  Proc.cpu().enqueue(Kernel, 1e6);
  Proc.runUntilIdle();
  EXPECT_DOUBLE_EQ(Proc.cpu().counters().BytesTransferred, 0.0);
}

/// Property sweep: random deposit sequences keep the MSR protocol and
/// the ground-truth accumulator in agreement.
class EnergyMeterProperty : public ::testing::TestWithParam<unsigned> {};

TEST_P(EnergyMeterProperty, MsrProtocolTracksGroundTruth) {
  Xoshiro256 Rng(90 + GetParam());
  double Unit = Rng.nextDouble(1e-6, 1e-3);
  EnergyMeter Meter(Unit);
  uint32_t Sample = Meter.readMsr();
  double SinceSample = 0.0;
  for (int Step = 0; Step != 200; ++Step) {
    double Joules = Rng.nextDouble(0.0, 5.0);
    Meter.deposit(Joules);
    SinceSample += Joules;
    if (Step % 17 == 0) {
      EXPECT_NEAR(Meter.joulesSince(Sample), SinceSample,
                  Unit * (Step + 2));
      Sample = Meter.readMsr();
      SinceSample = 0.0;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomDeposits, EnergyMeterProperty,
                         ::testing::Range(0u, 10u));

TEST(Pcu, HintJumpsToSteadyState) {
  PlatformSpec Spec = haswellDesktop();
  Pcu Governor(Spec);
  Governor.hintUpcomingSplit(0.5);
  EXPECT_DOUBLE_EQ(Governor.cpuFreqGHz(), Spec.Cpu.CoRunMaxFreqGHz);
  EXPECT_DOUBLE_EQ(Governor.gpuFreqGHz(), Spec.Gpu.MaxFreqGHz);
  // A hinted co-run does not fire the wake reset at the next epoch.
  PcuObservation Both;
  Both.CpuActive = true;
  Both.GpuActive = true;
  Both.CpuActivity = 1.0;
  Both.GpuActivity = 1.0;
  Governor.stepEpoch(Both);
  EXPECT_GE(Governor.cpuFreqGHz(), Spec.Cpu.CoRunMaxFreqGHz - 1e-9);

  Governor.hintUpcomingSplit(0.0);
  EXPECT_DOUBLE_EQ(Governor.cpuFreqGHz(), Spec.Cpu.MaxTurboGHz);
  EXPECT_DOUBLE_EQ(Governor.gpuFreqGHz(), Spec.Gpu.MinFreqGHz);
  Governor.hintUpcomingSplit(1.0);
  EXPECT_DOUBLE_EQ(Governor.cpuFreqGHz(), Spec.Cpu.MinFreqGHz);
}

TEST(Pcu, HintRespectsTabletBudget) {
  PlatformSpec Spec = bayTrailTablet();
  Pcu Governor(Spec);
  Governor.hintUpcomingSplit(0.5);
  PowerBreakdown P =
      packagePower(Spec, Governor.cpuFreqGHz(), 1.0, Governor.gpuFreqGHz(),
                   1.0, 0.0);
  EXPECT_LE(P.packageWatts(), Spec.Pcu.TdpWatts + 0.05);
}

TEST(SimProcessor, DomainMetersSumBelowPackage) {
  PlatformSpec Spec = haswellDesktop();
  SimProcessor Proc(Spec);
  Proc.cpu().enqueue(computeBoundMicroKernel(), 1e8);
  Proc.gpu().enqueue(computeBoundMicroKernel(), 1e8);
  Proc.runUntilIdle();
  double Pp0 = Proc.pp0Meter().totalJoules();
  double Pp1 = Proc.pp1Meter().totalJoules();
  double Pkg = Proc.meter().totalJoules();
  EXPECT_GT(Pp0, 0.0);
  EXPECT_GT(Pp1, 0.0);
  // Package = PP0 + PP1 + uncore, so the domains sum strictly below it.
  EXPECT_LT(Pp0 + Pp1, Pkg);
  EXPECT_GT(Pp0 + Pp1, 0.5 * Pkg);
}

TEST(SimProcessor, CpuOnlyRunKeepsGraphicsDomainCold) {
  PlatformSpec Spec = haswellDesktop();
  SimProcessor Proc(Spec);
  Proc.cpu().enqueue(computeBoundMicroKernel(), 1e8);
  double Elapsed = Proc.runUntilIdle();
  // PP1 sees only GPU leakage + idle clocking.
  EXPECT_LT(Proc.pp1Meter().totalJoules(),
            1.5 * Spec.GpuPower.LeakageWatts * Elapsed);
}

TEST(SimProcessor, RaplDropoutStarvesPackageMeterOnly) {
  PlatformSpec Spec = haswellDesktop();
  FaultEvent Drop;
  Drop.Kind = FaultKind::RaplDropout;
  Drop.Probability = 1.0;
  Spec.Faults.addEvent(Drop);
  SimProcessor Proc(Spec);
  uint32_t Pkg = Proc.meter().readMsr();
  uint32_t Pp0 = Proc.pp0Meter().readMsr();
  Proc.runFor(0.05);
  // Every package deposit was dropped, but the per-domain counters the
  // characterization never reads stay truthful.
  EXPECT_DOUBLE_EQ(Proc.meter().joulesSince(Pkg), 0.0);
  EXPECT_GT(Proc.pp0Meter().joulesSince(Pp0), 0.0);
  ASSERT_NE(Proc.faults(), nullptr);
  EXPECT_GT(Proc.faults()->stats().RaplSamplesDropped, 0u);
}

TEST(SimProcessor, RaplWrapJumpAliasesMeasurementNotTruth) {
  PlatformSpec Faulty = haswellDesktop();
  FaultEvent Jump;
  Jump.Kind = FaultKind::RaplWrapJump;
  Jump.StartSec = 0.01;
  Jump.Magnitude = 2.25;
  Faulty.Faults.addEvent(Jump);
  SimProcessor Faulted(Faulty);
  SimProcessor Clean(haswellDesktop());
  uint32_t FaultedBefore = Faulted.meter().readMsr();
  uint32_t CleanBefore = Clean.meter().readMsr();
  Faulted.runFor(0.05);
  Clean.runFor(0.05);
  // The jump advances the counter by 2.25 periods, of which only the
  // fractional 0.25 survives the modular read -- exactly the aliasing
  // case the EnergyMeter contract documents.
  double Skew = Faulted.meter().joulesSince(FaultedBefore) -
                Clean.meter().joulesSince(CleanBefore);
  double PeriodJoules = 4294967296.0 * Faulted.meter().energyUnitJoules();
  EXPECT_NEAR(Skew, 0.25 * PeriodJoules, 1e-6);
  EXPECT_DOUBLE_EQ(Faulted.meter().totalJoules(),
                   Clean.meter().totalJoules());
  EXPECT_EQ(Faulted.faults()->stats().RaplCounterJumps, 1u);
}

TEST(Pcu, FrequencyCapPinsTheCeiling) {
  // The DVFS actuation behind OperatingPoint::PState: a cap is an
  // external ceiling the governor must never exceed, however hard the
  // workload pushes for turbo.
  PlatformSpec Spec = haswellDesktop();
  Pcu Governor(Spec);
  double CpuCap = 0.5 * (Spec.Cpu.MinFreqGHz + Spec.Cpu.MaxTurboGHz);
  double GpuCap = 0.5 * (Spec.Gpu.MinFreqGHz + Spec.Gpu.MaxFreqGHz);
  Governor.setFrequencyCap(CpuCap, GpuCap);
  PcuObservation Both;
  Both.CpuActive = true;
  Both.GpuActive = true;
  Both.CpuActivity = 1.0;
  Both.GpuActivity = 1.0;
  for (int Epoch = 0; Epoch != 30; ++Epoch) {
    Governor.stepEpoch(Both);
    EXPECT_LE(Governor.cpuFreqGHz(), CpuCap + 1e-12);
    EXPECT_LE(Governor.gpuFreqGHz(), GpuCap + 1e-12);
  }

  // Caps survive reset(): they model a pinned sysfs ceiling, not
  // governor state.
  Governor.reset();
  EXPECT_DOUBLE_EQ(Governor.cpuFreqCapGHz(), CpuCap);
  for (int Epoch = 0; Epoch != 30; ++Epoch)
    Governor.stepEpoch(Both);
  EXPECT_LE(Governor.cpuFreqGHz(), CpuCap + 1e-12);

  // Clearing restores the spec envelope: turbo is reachable again.
  Governor.clearFrequencyCap();
  PcuObservation CpuOnly;
  CpuOnly.CpuActive = true;
  CpuOnly.CpuActivity = 1.0;
  for (int Epoch = 0; Epoch != 30; ++Epoch)
    Governor.stepEpoch(CpuOnly);
  EXPECT_DOUBLE_EQ(Governor.cpuFreqGHz(), Spec.Cpu.MaxTurboGHz);
}

TEST(Pcu, FrequencyCapBelowFloorClampsToFloor) {
  PlatformSpec Spec = haswellDesktop();
  Pcu Governor(Spec);
  Governor.setFrequencyCap(0.01, 0.01);
  PcuObservation Both;
  Both.CpuActive = true;
  Both.GpuActive = true;
  Both.CpuActivity = 1.0;
  Both.GpuActivity = 1.0;
  for (int Epoch = 0; Epoch != 10; ++Epoch)
    Governor.stepEpoch(Both);
  EXPECT_GE(Governor.cpuFreqGHz(), Spec.Cpu.MinFreqGHz - 1e-12);
  EXPECT_GE(Governor.gpuFreqGHz(), Spec.Gpu.MinFreqGHz - 1e-12);
}

TEST(SimProcessor, CappedClocksDrawLessPowerAndRunLonger) {
  // End-to-end DVFS effect: the same kernel at a capped P-state must
  // finish slower and draw less average power than at full speed —
  // the trade the joint (alpha, f) search exploits.
  PlatformSpec Spec = haswellDesktop();
  Spec.synthesizePStates(4);
  KernelDesc Kernel = computeBoundMicroKernel();
  double FullSeconds = 0.0, FullWatts = 0.0;
  {
    SimProcessor Proc(Spec);
    Proc.cpu().enqueue(Kernel, 2e7);
    Proc.gpu().enqueue(Kernel, 2e7);
    Proc.runUntilIdle();
    FullSeconds = Proc.now();
    FullWatts = Proc.meter().totalJoules() / FullSeconds;
  }
  PStateSpec Slow = Spec.pstateAt(3);
  SimProcessor Proc(Spec);
  Proc.pcu().setFrequencyCap(Slow.CpuFreqGHz, Slow.GpuFreqGHz);
  Proc.cpu().enqueue(Kernel, 2e7);
  Proc.gpu().enqueue(Kernel, 2e7);
  Proc.runUntilIdle();
  double SlowSeconds = Proc.now();
  double SlowWatts = Proc.meter().totalJoules() / SlowSeconds;
  EXPECT_GT(SlowSeconds, FullSeconds * 1.2);
  EXPECT_LT(SlowWatts, FullWatts * 0.8);
}

//===----------------------------------------------------------------------===//
// Slice bit identity: what every kind of slice writes, pinned to the bit.
// The scenarios reach each kind of slice step() takes: runs of profiling
// repetitions (launch and execution slices in turn), a long co-run
// dispatch across governor epochs, GPU dispatches below the lane count,
// a frequency cap with a frequency hint, a hint that moves one clock in
// mid-dispatch, idle time, and the GPU-throttle and RAPL-dropout faults.
// The "long" cases add multi-epoch dispatches, idle gaps and deadlines
// that end mid-slice, where most slices are repeated instead of stepped.
// The "edge" cases end runs of repeated slices where a guard holds with
// nothing to spare: budgets of whole slices, a CPU share that drains at a
// slice edge, and runFor() ends that land on a governor epoch.
// The expected values are hexfloat literals printed by the simulator as
// it was before step() reused its last two slice results (the long
// cases: before slices were repeated; the edge cases: before repeated
// slices were counted ahead); a mismatch prints the case's actual line.
//===----------------------------------------------------------------------===//

namespace {

/// now(); each meter's totalJoules() and readMsr() (package, PP0, PP1);
/// then each device's PerfCounters, CPU first.
constexpr size_t NumSliceObservables = 1 + 3 * 2 + 2 * 7;
using SliceObservables = std::array<double, NumSliceObservables>;

SliceObservables sliceObservables(const SimProcessor &Proc) {
  SliceObservables Out{};
  size_t I = 0;
  Out[I++] = Proc.now();
  for (const EnergyMeter *Meter :
       {&Proc.meter(), &Proc.pp0Meter(), &Proc.pp1Meter()}) {
    Out[I++] = Meter->totalJoules();
    Out[I++] = static_cast<double>(Meter->readMsr());
  }
  for (const SimDevice *Device :
       {static_cast<const SimDevice *>(&Proc.cpu()),
        static_cast<const SimDevice *>(&Proc.gpu())}) {
    const PerfCounters &C = Device->counters();
    for (double Value : {C.InstructionsRetired, C.LoadStores, C.LlcMisses,
                         C.IterationsDone, C.BytesTransferred, C.BusySeconds,
                         C.SetupSeconds})
      Out[I++] = Value;
  }
  return Out;
}

/// Drives a processor of \p Spec through every kind of slice with
/// \p Micro's kernel.
SliceObservables runSliceScenario(const PlatformSpec &Spec,
                                  const MicroBenchmark &Micro) {
  SimProcessor Proc(Spec);
  const KernelDesc &Kernel = Micro.Kernel;
  // A run of profiling repetitions, as Fig. 7 steps 11-22 issue them.
  OnlineProfiler Profiler(Proc, Spec.defaultGpuProfileSize());
  double Nrem = Micro.Iterations;
  for (int Rep = 0; Rep != 24 && Nrem > 0.5 * Micro.Iterations; ++Rep)
    Profiler.profileOnce(Kernel, Nrem);
  // The remainder as one long co-run dispatch across governor epochs.
  Proc.cpu().enqueue(Kernel, 0.5 * Nrem);
  Proc.gpu().enqueue(Kernel, 0.5 * Nrem);
  Proc.runUntilIdle();
  // GPU dispatches below the lane count, each behind its launch slice.
  double Lanes = static_cast<double>(Spec.Gpu.ExecutionUnits) *
                 Spec.Gpu.ThreadsPerEU * Spec.Gpu.SimdWidth;
  for (double Size : {0.1 * Lanes, 0.5 * Lanes, Lanes - 1.0}) {
    Proc.gpu().enqueue(Kernel, Size);
    Proc.runUntilGpuIdle();
  }
  // A cap on both clocks and a CPU hint below the cap.
  Proc.pcu().setFrequencyCap(0.8 * Spec.Cpu.MaxTurboGHz,
                             0.8 * Spec.Gpu.MaxFreqGHz);
  Proc.cpu().setFrequencyHintGHz(0.6 * Spec.Cpu.MaxTurboGHz);
  Proc.cpu().enqueue(Kernel, 0.25 * Micro.Iterations);
  Proc.gpu().enqueue(Kernel, 0.25 * Micro.Iterations);
  Proc.runUntilIdle();
  Proc.pcu().clearFrequencyCap();
  Proc.cpu().setFrequencyHintGHz(0.0);
  // A hint that changes one device's clock in mid-dispatch and nothing
  // else: the slices on either side differ only in that clock.
  for (SimDevice *Device : {static_cast<SimDevice *>(&Proc.gpu()),
                            static_cast<SimDevice *>(&Proc.cpu())}) {
    Device->enqueue(Kernel, 0.25 * Micro.Iterations);
    Proc.runFor(0.004);
    Device->setFrequencyHintGHz(Device == &Proc.gpu()
                                    ? 0.5 * Spec.Gpu.MaxFreqGHz
                                    : 0.5 * Spec.Cpu.MaxTurboGHz);
    Proc.runFor(0.004);
    Device->setFrequencyHintGHz(0.0);
    Proc.runUntilIdle();
  }
  Proc.runFor(0.0123);
  return sliceObservables(Proc);
}

/// Drives a processor of \p Spec through long dispatches of \p Micro's
/// kernel, each lasting several governor epochs, and through the events
/// that end a run of steady 1 ms slices: a co-run whose CPU share drains
/// mid-epoch, GPU-only and CPU-only dispatches, a co-run under a cap and
/// a hint, a dispatch polled by runUntilIdle() with a deadline that ends
/// mid-slice (the watchdog poll of the partitioned schedulers), and
/// runFor() gaps across epochs, idle and with a dispatch ending inside.
/// With the memory-bound kernel every co-run saturates DRAM bandwidth.
/// Sets \p RepeatedShare to the share of virtual time charged by
/// repeated 1 ms slices instead of stepped ones.
SliceObservables runLongDispatchScenario(const PlatformSpec &Spec,
                                         const MicroBenchmark &Micro,
                                         double &RepeatedShare) {
  SimProcessor Proc(Spec);
  const KernelDesc &Kernel = Micro.Kernel;
  double Epoch = Spec.Pcu.SamplingIntervalSec;
  // Cpu(E) and Gpu(E): iterations that keep the device busy for about E
  // governor epochs at its top clock with all of DRAM bandwidth to
  // itself.
  double BandwidthRate = Spec.Memory.BandwidthGBs * 1e9 / Kernel.BytesPerIter;
  double CpuRate = std::min(
      Proc.cpu().rateFor(Kernel, Spec.Cpu.MaxTurboGHz, Micro.Iterations)
          .ComputeRate,
      BandwidthRate);
  double GpuRate = std::min(
      Proc.gpu().rateFor(Kernel, Spec.Gpu.MaxFreqGHz, Micro.Iterations)
          .ComputeRate,
      BandwidthRate);
  auto Cpu = [&](double Epochs) { return CpuRate * Epochs * Epoch; };
  auto Gpu = [&](double Epochs) { return GpuRate * Epochs * Epoch; };

  Proc.cpu().enqueue(Kernel, Cpu(1.37));
  Proc.gpu().enqueue(Kernel, Gpu(4.6));
  Proc.runUntilIdle();
  Proc.gpu().enqueue(Kernel, Gpu(3.3));
  Proc.runUntilIdle();
  Proc.cpu().enqueue(Kernel, Cpu(3.1));
  Proc.runUntilIdle();
  Proc.pcu().setFrequencyCap(0.8 * Spec.Cpu.MaxTurboGHz,
                             0.8 * Spec.Gpu.MaxFreqGHz);
  Proc.gpu().setFrequencyHintGHz(0.6 * Spec.Gpu.MaxFreqGHz);
  Proc.cpu().enqueue(Kernel, Cpu(2.4));
  Proc.gpu().enqueue(Kernel, Gpu(2.9));
  Proc.runUntilIdle();
  Proc.pcu().clearFrequencyCap();
  Proc.gpu().setFrequencyHintGHz(0.0);
  Proc.cpu().enqueue(Kernel, Cpu(2.2));
  Proc.gpu().enqueue(Kernel, Gpu(3.5));
  while (Proc.cpu().busy() || Proc.gpu().busy())
    Proc.runUntilIdle(0.685 * Epoch);
  Proc.runFor(2.71 * Epoch);
  Proc.gpu().enqueue(Kernel, Gpu(1.45));
  Proc.runFor(3.03 * Epoch);
  RepeatedShare =
      static_cast<double>(Proc.slicesRepeated()) * 1e-3 / Proc.now();
  return sliceObservables(Proc);
}

/// The boundary a run of repeated slices meets in sliceEdgeScenario().
enum class SliceEdge { Budget, Drain, EpochEnd };

const char *sliceEdgeName(SliceEdge Edge) {
  switch (Edge) {
  case SliceEdge::Budget:
    return "budget";
  case SliceEdge::Drain:
    return "drain";
  case SliceEdge::EpochEnd:
    return "epoch-end";
  }
  return "?";
}

/// Drives a processor of \p Spec with \p Micro's kernel to one \p Edge
/// of a run of repeated 1 ms slices, where a guard holds with nothing to
/// spare: a long co-run polled by runUntilIdle() with budgets of whole
/// slices (Budget); the CPU alone given shares that drain at a slice
/// edge, just after a governor epoch set its clock (Drain); and runFor()
/// spans whose end lands on the next governor epoch (EpochEnd).
SliceObservables runSliceEdgeScenario(const PlatformSpec &Spec,
                                      const MicroBenchmark &Micro,
                                      SliceEdge Edge) {
  SimProcessor Proc(Spec);
  const KernelDesc &Kernel = Micro.Kernel;
  double Epoch = Spec.Pcu.SamplingIntervalSec;
  double BandwidthRate = Spec.Memory.BandwidthGBs * 1e9 / Kernel.BytesPerIter;
  double CpuRate = std::min(
      Proc.cpu().rateFor(Kernel, Spec.Cpu.MaxTurboGHz, Micro.Iterations)
          .ComputeRate,
      BandwidthRate);
  double GpuRate = std::min(
      Proc.gpu().rateFor(Kernel, Spec.Gpu.MaxFreqGHz, Micro.Iterations)
          .ComputeRate,
      BandwidthRate);
  switch (Edge) {
  case SliceEdge::Budget: {
    Proc.cpu().enqueue(Kernel, CpuRate * 2.6 * Epoch);
    Proc.gpu().enqueue(Kernel, GpuRate * 3.4 * Epoch);
    const double Budgets[] = {7e-3, 1e-3, 2e-3, Epoch, 5e-3};
    for (unsigned Poll = 0; Proc.cpu().busy() || Proc.gpu().busy(); ++Poll)
      Proc.runUntilIdle(Budgets[Poll % std::size(Budgets)]);
    break;
  }
  case SliceEdge::Drain: {
    for (double Slices : {3.0, 4.0, 7.0, 12.0}) {
      // Keep the CPU busy into the slice that runs the next epoch, so the
      // governor sets its clock for a busy CPU; then swap the item for
      // one that drains after a whole number of slices at that clock.
      Proc.cpu().enqueue(Kernel, CpuRate * 2.0 * Epoch);
      Proc.runFor(Epoch);
      Proc.runFor(0.5e-3);
      Proc.cpu().cancelRemaining();
      double Freq = Proc.pcu().cpuFreqGHz();
      RatePoint Rate = Proc.cpu().rateFor(Kernel, Freq, 1e9);
      double EffRate = Rate.ComputeRate;
      if (Kernel.BytesPerIter > 0.0 &&
          Rate.BandwidthDemandGBs > Spec.Memory.BandwidthGBs)
        EffRate = std::min(EffRate, Spec.Memory.BandwidthGBs * 1e9 /
                                        Kernel.BytesPerIter);
      Proc.cpu().enqueue(Kernel, Slices * (EffRate * 1e-3));
      Proc.runUntilIdle();
    }
    break;
  }
  case SliceEdge::EpochEnd:
    Proc.cpu().enqueue(Kernel, CpuRate * 3.3 * Epoch);
    Proc.gpu().enqueue(Kernel, GpuRate * 5.2 * Epoch);
    Proc.runFor(Epoch);
    Proc.runFor(Epoch);
    Proc.runFor(2.0 * Epoch);
    Proc.runFor(Epoch);
    Proc.runUntilIdle();
    Proc.runFor(Epoch);
    break;
  }
  return sliceObservables(Proc);
}

std::string sliceCaseLiteral(const std::string &Name,
                             const SliceObservables &Values) {
  std::string Line = "    {\"" + Name + "\", {";
  for (size_t I = 0; I != Values.size(); ++I)
    Line += formatString(I ? ", %a" : "%a", Values[I]);
  return Line + "}},\n";
}

struct SliceCase {
  const char *Name;
  SliceObservables Expected;
};

// clang-format off
const SliceCase ParentSliceResults[] = {
    {"haswell-desktop/compute/cpu-long/gpu-long",
     {0x1.ca7fecaf758d8p-1, 0x1.e62a79ba03073p+4, 0x1.e62a4p+18,
      0x1.539d53ca70caep+4, 0x1.539d4p+18, 0x1.64f4a1668e4d6p+2,
      0x1.64f4p+16, 0x1.620fb722bfffep+36, 0x1.9bffab3666664p+30,
      0x0p+0, 0x1.9bffab3666664p+28, 0x0p+0,
      0x1.a65e11e0877e4p-1, 0x0p+0, 0x1.6207d31400001p+36,
      0x1.9bf67c9999998p+30, 0x0p+0, 0x1.9bf67c9999998p+28,
      0x0p+0, 0x1.edab0ca4283e3p-3, 0x1.3a92a30553264p-13}},
    {"haswell-desktop/compute/cpu-long/gpu-short",
     {0x1.218bf69888746p-1, 0x1.313bdc8bea695p+4, 0x1.313bcp+18,
      0x1.f99b293a49521p+3, 0x1.f99bp+17, 0x1.03cc91bb4b879p+0,
      0x1.03ccp+14, 0x1.1b247d7355556p+33, 0x1.497996a222222p+27,
      0x0p+0, 0x1.497996a222222p+25, 0x0p+0,
      0x1.1724fc03baaacp-1, 0x0p+0, 0x1.1b6789f2aaaa9p+33,
      0x1.49c79bddddddcp+27, 0x0p+0, 0x1.49c79bddddddcp+25,
      0x0p+0, 0x1.a29b815a70bp-6, 0x1.3a92a30553264p-13}},
    {"haswell-desktop/compute/cpu-short/gpu-long",
     {0x1.254603e540e25p-2, 0x1.04e45cb4d5a53p+3, 0x1.04e4p+17,
      0x1.b0da5a6b9f963p+0, 0x1.b0d8p+14, 0x1.5440a1d5732acp+2,
      0x1.544p+16, 0x1.72bd2d9555553p+32, 0x1.af67c55555553p+26,
      0x0p+0, 0x1.af67c55555553p+24, 0x0p+0,
      0x1.de0a1c21707e1p-5, 0x0p+0, 0x1.6efb82feaaaaap+32,
      0x1.ab08bdaaaaaa7p+26, 0x0p+0, 0x1.ab08bdaaaaaa7p+24,
      0x0p+0, 0x1.0afe18f4b3a3bp-2, 0x1.3a92a30553264p-13}},
    {"haswell-desktop/compute/cpu-short/gpu-short",
     {0x1.4a1d21ff93652p-4, 0x1.28e3799b74bbep+1, 0x1.28e2p+15,
      0x1.91d0d43cdaf83p+0, 0x1.91dp+14, 0x1.b5bb59e8a696ep-2,
      0x1.b5bp+12, 0x1.a48a972bffffep+32, 0x1.e95b736666663p+26,
      0x0p+0, 0x1.e95b736666663p+24, 0x0p+0,
      0x1.edca9ab24a30ep-5, 0x0p+0, 0x1.a40c563fffffep+32,
      0x1.e8c8899999998p+26, 0x0p+0, 0x1.e8c8899999998p+24,
      0x0p+0, 0x1.255c539f8100fp-6, 0x1.3a92a30553264p-13}},
    {"haswell-desktop/memory/cpu-long/gpu-long",
     {0x1.db37f05c49019p-2, 0x1.7b39d7e68dbe2p+4, 0x1.7b39cp+18,
      0x1.a1aa5293837c7p+2, 0x1.a1aap+16, 0x1.12d7c55a457a8p+2,
      0x1.12d7p+16, 0x1.ad4493bp+30, 0x1.576a0fbffffffp+26,
      0x1.576a0fbffffffp+26, 0x1.576a0fbffffffp+26, 0x1.576a0fbffffffp+32,
      0x1.94fd7dfa56c91p-2, 0x0p+0, 0x1.ad0e5b5ffffffp+30,
      0x1.573eaf7ffffffp+26, 0x1.573eaf7ffffffp+26, 0x1.573eaf7ffffffp+26,
      0x1.573eaf7ffffffp+32, 0x1.8fe2014727dd2p-2, 0x1.3a92a30553264p-13}},
    {"haswell-desktop/memory/cpu-long/gpu-short",
     {0x1.34ea884dc3214p-2, 0x1.74e20e2e529e1p+3, 0x1.74e2p+17,
      0x1.dc97ba06518adp+2, 0x1.dc97p+16, 0x1.90e8b6e37b50ep-1,
      0x1.90e8p+13, 0x1.58c0406da2809p+28, 0x1.13cd0057b534ep+24,
      0x1.13cd0057b534ep+24, 0x1.13cd0057b534ep+24, 0x1.13cd0057b534ep+30,
      0x1.1cb6cb679e3ebp-2, 0x0p+0, 0x1.596009d25d7eep+28,
      0x1.144cd4a84acbcp+24, 0x1.144cd4a84acbcp+24, 0x1.144cd4a84acbcp+24,
      0x1.144cd4a84acbcp+30, 0x1.a16dcd65a0155p-5, 0x1.3a92a30553264p-13}},
    {"haswell-desktop/memory/cpu-short/gpu-long",
     {0x1.0197313480659p-2, 0x1.2ec9cb0dde161p+3, 0x1.2ec98p+17,
      0x1.76736ee730a76p+0, 0x1.767p+14, 0x1.22220304bbc52p+2,
      0x1.2222p+16, 0x1.80764cc000005p+28, 0x1.3391d70000004p+24,
      0x1.3391d70000004p+24, 0x1.3391d70000004p+24, 0x1.3391d70000004p+30,
      0x1.371893fed9434p-4, 0x0p+0, 0x1.7d956b8000004p+28,
      0x1.3144560000003p+24, 0x1.3144560000003p+24, 0x1.3144560000003p+24,
      0x1.3144560000003p+30, 0x1.cc65cc781337ap-3, 0x1.3a92a30553264p-13}},
    {"haswell-desktop/memory/cpu-short/gpu-short",
     {0x1.cb12f2cbe4f0ap-4, 0x1.405df3869a21dp+2, 0x1.405dp+16,
      0x1.4a53ea451913ap+0, 0x1.4a5p+14, 0x1.bb624178d2d83p-1,
      0x1.bb6p+13, 0x1.764a64cp+28, 0x1.2b6eb7p+24,
      0x1.2b6eb7p+24, 0x1.2b6eb7p+24, 0x1.2b6eb7p+30,
      0x1.6662c318c3f17p-4, 0x0p+0, 0x1.7571838p+28,
      0x1.2ac136p+24, 0x1.2ac136p+24, 0x1.2ac136p+24,
      0x1.2ac136p+30, 0x1.51f4d04c08418p-4, 0x1.3a92a30553264p-13}},
    {"haswell-desktop/gpu-throttle/compute/cpu-long/gpu-long",
     {0x1.d8766677707cfp-1, 0x1.0b4dc46adef6p+5, 0x1.0b4dcp+19,
      0x1.39c740554210ap+4, 0x1.39c74p+18, 0x1.438af7631b9d5p+3,
      0x1.438a8p+17, 0x1.620fb722bfffdp+36, 0x1.9bffab3666664p+30,
      0x0p+0, 0x1.9bffab3666664p+28, 0x0p+0,
      0x1.b4548ba8826dbp-1, 0x0p+0, 0x1.6207d313fffffp+36,
      0x1.9bf67c9999998p+30, 0x0p+0, 0x1.9bf67c9999998p+28,
      0x0p+0, 0x1.bf89bfaa24817p-2, 0x1.3a92a30553264p-13}},
    {"haswell-desktop/gpu-throttle/memory/cpu-long/gpu-long",
     {0x1.db37f05c49019p-2, 0x1.7bcaac2dce5b8p+4, 0x1.7bca8p+18,
      0x1.a1aa5293837c7p+2, 0x1.a1aap+16, 0x1.151b167747f3cp+2,
      0x1.151bp+16, 0x1.ad4493bp+30, 0x1.576a0fbffffffp+26,
      0x1.576a0fbffffffp+26, 0x1.576a0fbffffffp+26, 0x1.576a0fbffffffp+32,
      0x1.94fd7dfa56c91p-2, 0x0p+0, 0x1.ad0e5b5ffffffp+30,
      0x1.573eaf7ffffffp+26, 0x1.573eaf7ffffffp+26, 0x1.573eaf7ffffffp+26,
      0x1.573eaf7ffffffp+32, 0x1.8fe2014727dd2p-2, 0x1.3a92a30553264p-13}},
    {"haswell-desktop/rapl-dropout/compute/cpu-long/gpu-long",
     {0x1.ca7fecaf758d8p-1, 0x1.4d8eff60b65d4p+4, 0x1.4d8ecp+18,
      0x1.539d53ca70caep+4, 0x1.539d4p+18, 0x1.64f4a1668e4d6p+2,
      0x1.64f4p+16, 0x1.620fb722bfffep+36, 0x1.9bffab3666664p+30,
      0x0p+0, 0x1.9bffab3666664p+28, 0x0p+0,
      0x1.a65e11e0877e4p-1, 0x0p+0, 0x1.6207d31400001p+36,
      0x1.9bf67c9999998p+30, 0x0p+0, 0x1.9bf67c9999998p+28,
      0x0p+0, 0x1.edab0ca4283e3p-3, 0x1.3a92a30553264p-13}},
    {"haswell-desktop/rapl-dropout/memory/cpu-long/gpu-long",
     {0x1.db37f05c49019p-2, 0x1.06dae9db9b52cp+4, 0x1.06dacp+18,
      0x1.a1aa5293837c7p+2, 0x1.a1aap+16, 0x1.12d7c55a457a8p+2,
      0x1.12d7p+16, 0x1.ad4493bp+30, 0x1.576a0fbffffffp+26,
      0x1.576a0fbffffffp+26, 0x1.576a0fbffffffp+26, 0x1.576a0fbffffffp+32,
      0x1.94fd7dfa56c91p-2, 0x0p+0, 0x1.ad0e5b5ffffffp+30,
      0x1.573eaf7ffffffp+26, 0x1.573eaf7ffffffp+26, 0x1.573eaf7ffffffp+26,
      0x1.573eaf7ffffffp+32, 0x1.8fe2014727dd2p-2, 0x1.3a92a30553264p-13}},
    {"baytrail-tablet/compute/cpu-long/gpu-long",
     {0x1.a070592430f32p-1, 0x1.20cb0a2a7259p+0, 0x1.20cbp+16,
      0x1.2c61668734dedp-1, 0x1.2c6p+15, 0x1.ad7ada76ea93p-2,
      0x1.ad78p+14, 0x1.3ae795edfb858p+33, 0x1.6e6f3a199468ep+27,
      0x0p+0, 0x1.6e6f3a199468ep+25, 0x0p+0,
      0x1.7c49586b1841ap-1, 0x0p+0, 0x1.3acd51ec0478ap+33,
      0x1.6e50a9ccd201p+27, 0x0p+0, 0x1.6e50a9ccd201p+25,
      0x0p+0, 0x1.eec44afb81df5p-3, 0x1.d7dbf487fcb9p-12}},
    {"baytrail-tablet/compute/cpu-long/gpu-short",
     {0x1.ff50d1d4b5975p-2, 0x1.1d78577ceac05p-1, 0x1.1d78p+15,
      0x1.92ae3d3083471p-2, 0x1.92acp+14, 0x1.6e3fafa5a8c48p-4,
      0x1.6e3p+12, 0x1.1c38588b3822dp+30, 0x1.4aba9594097dbp+24,
      0x0p+0, 0x1.4aba9594097dbp+22, 0x0p+0,
      0x1.ea1b657dd3b4ep-2, 0x0p+0, 0x1.1c60b924c7da1p+30,
      0x1.4ae9919f29b7fp+24, 0x0p+0, 0x1.4ae9919f29b7fp+22,
      0x0p+0, 0x1.daf2956201eacp-6, 0x1.d7dbf487fcb9p-12}},
    {"baytrail-tablet/compute/cpu-short/gpu-long",
     {0x1.2cde194533dc1p-2, 0x1.fb17cf245be34p-2, 0x1.fb14p+14,
      0x1.acb56883141dcp-5, 0x1.acap+11, 0x1.985fd17ccb30ap-2,
      0x1.985cp+14, 0x1.52d87126a33b2p+29, 0x1.8a4afcaf4993ap+23,
      0x0p+0, 0x1.8a4afcaf4993ap+21, 0x0p+0,
      0x1.dd194c8ffeabdp-5, 0x0p+0, 0x1.4e7707395cc3dp+29,
      0x1.853211b71cd2cp+23, 0x0p+0, 0x1.853211b71cd2cp+21,
      0x0p+0, 0x1.11d663170493ap-2, 0x1.d7dbf487fcb9p-12}},
    {"baytrail-tablet/compute/cpu-short/gpu-short",
     {0x1.6508f377f5cccp-4, 0x1.595a13d1b2677p-4, 0x1.595p+12,
      0x1.27e18a575cd46p-5, 0x1.27ep+11, 0x1.1fb65441a4a32p-5,
      0x1.1fap+11, 0x1.8a7cb4dfb87ap+29, 0x1.cb0a2199465e6p+23,
      0x0p+0, 0x1.cb0a2199465e6p+21, 0x0p+0,
      0x1.11b00fbc03d1ap-4, 0x0p+0, 0x1.88d874c04785cp+29,
      0x1.c9211ccd2006bp+23, 0x0p+0, 0x1.c9211ccd2006bp+21,
      0x0p+0, 0x1.382d8aa81f0cp-6, 0x1.d7dbf487fcb9p-12}},
    {"baytrail-tablet/memory/cpu-long/gpu-long",
     {0x1.f4f556e31b823p-2, 0x1.3382bdcffacfdp-1, 0x1.3382p+15,
      0x1.20e9368571151p-3, 0x1.20e8p+13, 0x1.5a946fd88d2dfp-2,
      0x1.5a94p+14, 0x1.6389f7c6c0965p+29, 0x1.1c6e5fd233ac8p+25,
      0x1.1c6e5fd233ac8p+25, 0x1.1c6e5fd233ac8p+25, 0x1.1c6e5fd233ac8p+31,
      0x1.aeb36431eb58fp-2, 0x0p+0, 0x1.6335ebd93f6a4p+29,
      0x1.1c2b231432bb2p+25, 0x1.1c2b231432bb2p+25, 0x1.1c2b231432bb2p+25,
      0x1.1c2b231432bb2p+31, 0x1.8f961c2fadbb4p-2, 0x1.d7dbf487fcb9p-12}},
    {"baytrail-tablet/memory/cpu-long/gpu-short",
     {0x1.863b28fee511p-2, 0x1.927a634bcfd97p-2, 0x1.9278p+14,
      0x1.0cc818e9c0263p-2, 0x1.0cc8p+14, 0x1.0ecb994894bc7p-4,
      0x1.0ecp+12, 0x1.b25ad9f1fd74ep+26, 0x1.5b7be18e645edp+22,
      0x1.5b7be18e645edp+22, 0x1.5b7be18e645edp+22, 0x1.5b7be18e645edp+28,
      0x1.70c519db1db58p-2, 0x0p+0, 0x1.b272950e028a4p+26,
      0x1.5b8edda4ced54p+22, 0x1.5b8edda4ced54p+22, 0x1.5b8edda4ced54p+22,
      0x1.5b8edda4ced54p+28, 0x1.2c28eada20b62p-5, 0x1.d7dbf487fcb9p-12}},
    {"baytrail-tablet/memory/cpu-short/gpu-long",
     {0x1.9c120fe71cb8bp-2, 0x1.5966cb206ba88p-1, 0x1.5966p+15,
      0x1.84cfba1171093p-5, 0x1.84cp+11, 0x1.1fb3dbf186e0dp-1,
      0x1.1fb2p+15, 0x1.2570df19e6da6p+26, 0x1.d58164f63e2a1p+21,
      0x1.d58164f63e2a1p+21, 0x1.d58164f63e2a1p+21, 0x1.d58164f63e2a1p+27,
      0x1.5bc354db23e19p-5, 0x0p+0, 0x1.1efee1e619265p+26,
      0x1.cb316970283eep+21, 0x1.cb316970283eep+21, 0x1.cb316970283eep+21,
      0x1.cb316970283eep+27, 0x1.83d448365a2c9p-2, 0x1.d7dbf487fcb9p-12}},
    {"baytrail-tablet/memory/cpu-short/gpu-short",
     {0x1.8ec42faa5b153p-4, 0x1.999931e26ceb1p-4, 0x1.999p+12,
      0x1.5a0c9846f0657p-6, 0x1.5ap+10, 0x1.cc32ddc9c1779p-5,
      0x1.cc2p+11, 0x1.e406d53604b2ep+26, 0x1.8338aa919d5bcp+22,
      0x1.8338aa919d5bcp+22, 0x1.8338aa919d5bcp+22, 0x1.8338aa919d5bcp+28,
      0x1.3501b030f66a6p-4, 0x0p+0, 0x1.e16675c9fb4d9p+26,
      0x1.811ec4a195d79p+22, 0x1.811ec4a195d79p+22, 0x1.811ec4a195d79p+22,
      0x1.811ec4a195d79p+28, 0x1.0de39bd36cc62p-4, 0x1.d7dbf487fcb9p-12}},
    {"baytrail-tablet/gpu-throttle/compute/cpu-long/gpu-long",
     {0x1.b195961fea4a4p-1, 0x1.5fbafe28c7d43p+0, 0x1.5fbap+16,
      0x1.0fe4c6057b394p-1, 0x1.0fe4p+15, 0x1.6e8792fa7e0ebp-1,
      0x1.6e86p+15, 0x1.3ae795edfb867p+33, 0x1.6e6f3a1994691p+27,
      0x0p+0, 0x1.6e6f3a1994691p+25, 0x0p+0,
      0x1.8d6e9566d198cp-1, 0x0p+0, 0x1.3acd51ec04782p+33,
      0x1.6e50a9ccd2013p+27, 0x0p+0, 0x1.6e50a9ccd2013p+25,
      0x0p+0, 0x1.c1ac4e5345842p-2, 0x1.d7dbf487fcb9p-12}},
    {"baytrail-tablet/gpu-throttle/memory/cpu-long/gpu-long",
     {0x1.f4f556e31b823p-2, 0x1.3831bd2c0f95fp-1, 0x1.383p+15,
      0x1.20e9368571151p-3, 0x1.20e8p+13, 0x1.63f26e90b6b95p-2,
      0x1.63fp+14, 0x1.6389f7c6c0965p+29, 0x1.1c6e5fd233ac8p+25,
      0x1.1c6e5fd233ac8p+25, 0x1.1c6e5fd233ac8p+25, 0x1.1c6e5fd233ac8p+31,
      0x1.aeb36431eb58fp-2, 0x0p+0, 0x1.6335ebd93f6a4p+29,
      0x1.1c2b231432bb2p+25, 0x1.1c2b231432bb2p+25, 0x1.1c2b231432bb2p+25,
      0x1.1c2b231432bb2p+31, 0x1.8f961c2fadbb4p-2, 0x1.d7dbf487fcb9p-12}},
    {"baytrail-tablet/rapl-dropout/compute/cpu-long/gpu-long",
     {0x1.a070592430f32p-1, 0x1.9482c4a89ac27p-1, 0x1.9482p+15,
      0x1.2c61668734dedp-1, 0x1.2c6p+15, 0x1.ad7ada76ea93p-2,
      0x1.ad78p+14, 0x1.3ae795edfb858p+33, 0x1.6e6f3a199468ep+27,
      0x0p+0, 0x1.6e6f3a199468ep+25, 0x0p+0,
      0x1.7c49586b1841ap-1, 0x0p+0, 0x1.3acd51ec0478ap+33,
      0x1.6e50a9ccd201p+27, 0x0p+0, 0x1.6e50a9ccd201p+25,
      0x0p+0, 0x1.eec44afb81df5p-3, 0x1.d7dbf487fcb9p-12}},
    {"baytrail-tablet/rapl-dropout/memory/cpu-long/gpu-long",
     {0x1.f4f556e31b823p-2, 0x1.ab276e26e6151p-2, 0x1.ab24p+14,
      0x1.20e9368571151p-3, 0x1.20e8p+13, 0x1.5a946fd88d2dfp-2,
      0x1.5a94p+14, 0x1.6389f7c6c0965p+29, 0x1.1c6e5fd233ac8p+25,
      0x1.1c6e5fd233ac8p+25, 0x1.1c6e5fd233ac8p+25, 0x1.1c6e5fd233ac8p+31,
      0x1.aeb36431eb58fp-2, 0x0p+0, 0x1.6335ebd93f6a4p+29,
      0x1.1c2b231432bb2p+25, 0x1.1c2b231432bb2p+25, 0x1.1c2b231432bb2p+25,
      0x1.1c2b231432bb2p+31, 0x1.8f961c2fadbb4p-2, 0x1.d7dbf487fcb9p-12}},
    {"haswell-desktop/long/compute/cpu-long/gpu-long",
     {0x1.00d159e26af3bp-1, 0x1.dde67813ead75p+3, 0x1.dde6p+17,
      0x1.8225a864e8e33p+2, 0x1.8225p+16, 0x1.b93e9ad1b75e9p+2,
      0x1.b93ep+16, 0x1.86b3ab27fffffp+34, 0x1.c6a2860000004p+28,
      0x0p+0, 0x1.c6a2860000004p+26, 0x0p+0,
      0x1.ebbcc7a060572p-3, 0x0p+0, 0x1.efac16ffffffdp+36,
      0x1.20642p+31, 0x0p+0, 0x1.20642p+29,
      0x0p+0, 0x1.6a27983c131dcp-2, 0x1.a36e2eb1c432dp-16}},
    {"haswell-desktop/long/gpu-throttle/compute/cpu-long/gpu-long",
     {0x1.2f6e10de44dc5p-1, 0x1.1988b63265926p+4, 0x1.19888p+18,
      0x1.8a1e1122915e1p+2, 0x1.8a1ep+16, 0x1.2226df9bf143p+3,
      0x1.22268p+17, 0x1.86b3ab27ffffep+34, 0x1.c6a286p+28,
      0x0p+0, 0x1.c6a286p+26, 0x0p+0,
      0x1.efc1707c0a347p-3, 0x0p+0, 0x1.efac16ffffffep+36,
      0x1.20642p+31, 0x0p+0, 0x1.20642p+29,
      0x0p+0, 0x1.c6d6d9788f40ap-2, 0x1.a36e2eb1c432dp-16}},
    {"haswell-desktop/long/rapl-dropout/compute/cpu-long/gpu-long",
     {0x1.00d159e26af3bp-1, 0x1.457d4cb85bd68p+3, 0x1.457dp+17,
      0x1.8225a864e8e33p+2, 0x1.8225p+16, 0x1.b93e9ad1b75e9p+2,
      0x1.b93ep+16, 0x1.86b3ab27fffffp+34, 0x1.c6a2860000004p+28,
      0x0p+0, 0x1.c6a2860000004p+26, 0x0p+0,
      0x1.ebbcc7a060572p-3, 0x0p+0, 0x1.efac16ffffffdp+36,
      0x1.20642p+31, 0x0p+0, 0x1.20642p+29,
      0x0p+0, 0x1.6a27983c131dcp-2, 0x1.a36e2eb1c432dp-16}},
    {"haswell-desktop/long/memory/cpu-long/gpu-long",
     {0x1.2a16d6dc1a47fp-1, 0x1.9277eb19a3254p+4, 0x1.9277cp+18,
      0x1.8075003fd18a1p+2, 0x1.8075p+16, 0x1.2a0ad3f9e8cf9p+2,
      0x1.2a0ap+16, 0x1.59fe380000002p+30, 0x1.14cb600000002p+26,
      0x1.14cb600000002p+26, 0x1.14cb600000002p+26, 0x1.14cb600000002p+32,
      0x1.3a67a52ac7544p-2, 0x0p+0, 0x1.2c684c0000001p+31,
      0x1.e0a6e00000002p+26, 0x1.e0a6e00000002p+26, 0x1.e0a6e00000002p+26,
      0x1.e0a6e00000002p+32, 0x1.bccf8d716d2b2p-2, 0x1.a36e2eb1c432dp-16}},
    {"haswell-desktop/long/gpu-throttle/memory/cpu-long/gpu-long",
     {0x1.2a16d6dc1a47fp-1, 0x1.92d8a8279568fp+4, 0x1.92d88p+18,
      0x1.8075003fd18a1p+2, 0x1.8075p+16, 0x1.2b8dc831b1df2p+2,
      0x1.2b8dp+16, 0x1.59fe380000002p+30, 0x1.14cb600000002p+26,
      0x1.14cb600000002p+26, 0x1.14cb600000002p+26, 0x1.14cb600000002p+32,
      0x1.3a67a52ac7544p-2, 0x0p+0, 0x1.2c684c0000001p+31,
      0x1.e0a6e00000002p+26, 0x1.e0a6e00000002p+26, 0x1.e0a6e00000002p+26,
      0x1.e0a6e00000002p+32, 0x1.bccf8d716d2b2p-2, 0x1.a36e2eb1c432dp-16}},
    {"haswell-desktop/long/rapl-dropout/memory/cpu-long/gpu-long",
     {0x1.2a16d6dc1a47fp-1, 0x1.0ff416df35b05p+4, 0x1.0ff4p+18,
      0x1.8075003fd18a1p+2, 0x1.8075p+16, 0x1.2a0ad3f9e8cf9p+2,
      0x1.2a0ap+16, 0x1.59fe380000002p+30, 0x1.14cb600000002p+26,
      0x1.14cb600000002p+26, 0x1.14cb600000002p+26, 0x1.14cb600000002p+32,
      0x1.3a67a52ac7544p-2, 0x0p+0, 0x1.2c684c0000001p+31,
      0x1.e0a6e00000002p+26, 0x1.e0a6e00000002p+26, 0x1.e0a6e00000002p+26,
      0x1.e0a6e00000002p+32, 0x1.bccf8d716d2b2p-2, 0x1.a36e2eb1c432dp-16}},
    {"baytrail-tablet/long/compute/cpu-long/gpu-long",
     {0x1.85089c4a71f66p-1, 0x1.288a5344c8c2dp+0, 0x1.288ap+16,
      0x1.231ba590a7fc2p-2, 0x1.2318p+14, 0x1.852bef82dfa49p-1,
      0x1.852ap+15, 0x1.20e2e9e78787ap+32, 0x1.5028a07878775p+26,
      0x0p+0, 0x1.5028a07878775p+24, 0x0p+0,
      0x1.6573d68a31f67p-2, 0x0p+0, 0x1.4a9d061fffff3p+34,
      0x1.80b6b7fffffefp+28, 0x0p+0, 0x1.80b6b7fffffefp+26,
      0x0p+0, 0x1.107fcc7fd8b04p-1, 0x1.3a92a30553262p-14}},
    {"baytrail-tablet/long/gpu-throttle/compute/cpu-long/gpu-long",
     {0x1.b31d172bb9a48p-1, 0x1.56a4aff3c5596p+0, 0x1.56a4p+16,
      0x1.2c6d4ed0a7c5fp-2, 0x1.2c6cp+14, 0x1.d5ce5b6bdaee3p-1,
      0x1.d5cep+15, 0x1.20e2e9e78787ap+32, 0x1.5028a07878777p+26,
      0x0p+0, 0x1.5028a07878777p+24, 0x0p+0,
      0x1.6573d68a31f68p-2, 0x0p+0, 0x1.4a9d061fffff4p+34,
      0x1.80b6b7ffffffp+28, 0x0p+0, 0x1.80b6b7ffffffp+26,
      0x0p+0, 0x1.3e944761205e2p-1, 0x1.3a92a30553262p-14}},
    {"baytrail-tablet/long/rapl-dropout/compute/cpu-long/gpu-long",
     {0x1.85089c4a71f66p-1, 0x1.9ab738778a61dp-1, 0x1.9ab6p+15,
      0x1.231ba590a7fc2p-2, 0x1.2318p+14, 0x1.852bef82dfa49p-1,
      0x1.852ap+15, 0x1.20e2e9e78787ap+32, 0x1.5028a07878775p+26,
      0x0p+0, 0x1.5028a07878775p+24, 0x0p+0,
      0x1.6573d68a31f67p-2, 0x0p+0, 0x1.4a9d061fffff3p+34,
      0x1.80b6b7fffffefp+28, 0x0p+0, 0x1.80b6b7fffffefp+26,
      0x0p+0, 0x1.107fcc7fd8b04p-1, 0x1.3a92a30553262p-14}},
    {"baytrail-tablet/long/memory/cpu-long/gpu-long",
     {0x1.b5d5a0f2a13b2p-1, 0x1.d669b599b5f04p-1, 0x1.d668p+15,
      0x1.7ebea5f4567c7p-3, 0x1.7eb8p+13, 0x1.0f3c7af85c7f3p-1,
      0x1.0f3cp+15, 0x1.623eff8f441bcp+29, 0x1.1b65993f69b03p+25,
      0x1.1b65993f69b03p+25, 0x1.1b65993f69b03p+25, 0x1.1b65993f69b03p+31,
      0x1.9f6cadf82d97cp-2, 0x0p+0, 0x1.75298e6800004p+30,
      0x1.2a87a5200000ap+26, 0x1.2a87a5200000ap+26, 0x1.2a87a5200000ap+26,
      0x1.2a87a5200000ap+32, 0x1.3d7ccbc8122b7p-1, 0x1.3a92a30553262p-14}},
    {"baytrail-tablet/long/gpu-throttle/memory/cpu-long/gpu-long",
     {0x1.b5d5a0f2a13b2p-1, 0x1.d9c2cfb3670a1p-1, 0x1.d9c2p+15,
      0x1.7ebea5f4567c7p-3, 0x1.7eb8p+13, 0x1.129595120d98bp-1,
      0x1.1294p+15, 0x1.623eff8f441bcp+29, 0x1.1b65993f69b03p+25,
      0x1.1b65993f69b03p+25, 0x1.1b65993f69b03p+25, 0x1.1b65993f69b03p+31,
      0x1.9f6cadf82d97cp-2, 0x0p+0, 0x1.75298e6800004p+30,
      0x1.2a87a5200000ap+26, 0x1.2a87a5200000ap+26, 0x1.2a87a5200000ap+26,
      0x1.2a87a5200000ap+32, 0x1.3d7ccbc8122b7p-1, 0x1.3a92a30553262p-14}},
    {"baytrail-tablet/long/rapl-dropout/memory/cpu-long/gpu-long",
     {0x1.b5d5a0f2a13b2p-1, 0x1.48f29909f757ep-1, 0x1.48f2p+15,
      0x1.7ebea5f4567c7p-3, 0x1.7eb8p+13, 0x1.0f3c7af85c7f3p-1,
      0x1.0f3cp+15, 0x1.623eff8f441bcp+29, 0x1.1b65993f69b03p+25,
      0x1.1b65993f69b03p+25, 0x1.1b65993f69b03p+25, 0x1.1b65993f69b03p+31,
      0x1.9f6cadf82d97cp-2, 0x0p+0, 0x1.75298e6800004p+30,
      0x1.2a87a5200000ap+26, 0x1.2a87a5200000ap+26, 0x1.2a87a5200000ap+26,
      0x1.2a87a5200000ap+32, 0x1.3d7ccbc8122b7p-1, 0x1.3a92a30553262p-14}},
    {"haswell-desktop/edge/budget/compute/cpu-long/gpu-long",
     {0x1.48d351336fc91p-4, 0x1.ab261444dff0cp+1, 0x1.ab26p+15,
      0x1.5f1fe96d3382p+0, 0x1.5f1cp+14, 0x1.a4f76acfb06fp+0,
      0x1.a4f4p+14, 0x1.bffe478000002p+32, 0x1.04a69p+27,
      0x0p+0, 0x1.04a69p+25, 0x0p+0,
      0x1.48d351336fc91p-4, 0x0p+0, 0x1.ac024ffffffffp+34,
      0x1.f20cp+28, 0x0p+0, 0x1.f20cp+26,
      0x0p+0, 0x1.16872b020c49ep-4, 0x1.4f8b588e368f1p-18}},
    {"haswell-desktop/edge/budget/memory/cpu-long/gpu-long",
     {0x1.eb851eb851eb9p-4, 0x1.8992778c5b13bp+2, 0x1.8992p+16,
      0x1.38ba13cb3abd3p+0, 0x1.38b8p+14, 0x1.8210f64abbec7p+0,
      0x1.821p+14, 0x1.8cba800000001p+28, 0x1.3d62p+24,
      0x1.3d62p+24, 0x1.3d62p+24, 0x1.3d62p+30,
      0x1.b6c3760bf5d7fp-4, 0x0p+0, 0x1.03663fffffffap+29,
      0x1.9f09ffffffff5p+24, 0x1.9f09ffffffff5p+24, 0x1.9f09ffffffff5p+24,
      0x1.9f09ffffffff5p+30, 0x1.eb7fe08aefb2bp-4, 0x1.4f8b588e368f1p-18}},
    {"haswell-desktop/edge/drain/compute/cpu-long/gpu-long",
     {0x1.ba5e353f7cedap-4, 0x1.2f6e87161facdp+2, 0x1.2f6ep+16,
      0x1.0ccaf8dd0216ap+2, 0x1.0ccap+16, 0x1.bf6ab94971bffp-4,
      0x1.bf4p+10, 0x1.cc70025fffffap+33, 0x1.0be413ffffffdp+28,
      0x0p+0, 0x1.0be413ffffffdp+26, 0x0p+0,
      0x1.ba5e353f7cedap-4, 0x0p+0, 0x0p+0,
      0x0p+0, 0x0p+0, 0x0p+0,
      0x0p+0, 0x0p+0, 0x0p+0}},
    {"haswell-desktop/edge/drain/memory/cpu-long/gpu-long",
     {0x1.ba5e353f7cedap-4, 0x1.a753ab7cef33bp+2, 0x1.a753p+16,
      0x1.b6b2ee899de81p+1, 0x1.b6b2p+15, 0x1.bf6ab94971bffp-4,
      0x1.bf4p+10, 0x1.9bfcbfffffffap+29, 0x1.4996ffffffffdp+25,
      0x1.4996ffffffffdp+25, 0x1.4996ffffffffdp+25, 0x1.4996ffffffffdp+31,
      0x1.ba5e353f7cedap-4, 0x0p+0, 0x0p+0,
      0x0p+0, 0x0p+0, 0x0p+0,
      0x0p+0, 0x0p+0, 0x0p+0}},
    {"haswell-desktop/edge/epoch-end/compute/cpu-long/gpu-long",
     {0x1.03225a77f5b52p-3, 0x1.235e393614f08p+2, 0x1.235ep+16,
      0x1.871a7e253ad7cp+0, 0x1.8718p+14, 0x1.42669cbb8f097p+1,
      0x1.4266p+15, 0x1.1c4dad6p+33, 0x1.4ad368p+27,
      0x0p+0, 0x1.4ad368p+25, 0x0p+0,
      0x1.b4592fd133185p-4, 0x0p+0, 0x1.474d100000001p+35,
      0x1.7cdbfffffffffp+29, 0x0p+0, 0x1.7cdbfffffffffp+27,
      0x0p+0, 0x1.a9fbe76c8b43ep-4, 0x1.4f8b588e368f1p-18}},
    {"haswell-desktop/edge/epoch-end/memory/cpu-long/gpu-long",
     {0x1.851eb851eb852p-3, 0x1.1ce61a68e38eep+3, 0x1.1ce6p+17,
      0x1.d214335f078f8p+0, 0x1.d214p+14, 0x1.142c5e676abf2p+1,
      0x1.142cp+15, 0x1.f78a4p+28, 0x1.92d5p+24,
      0x1.92d5p+24, 0x1.92d5p+24, 0x1.92d5p+30,
      0x1.14b9cb6848beep-3, 0x0p+0, 0x1.8cba7fffffffap+29,
      0x1.3d61ffffffffbp+25, 0x1.3d61ffffffffbp+25, 0x1.3d61ffffffffbp+25,
      0x1.3d61ffffffffbp+31, 0x1.5c2656abde3fcp-3, 0x1.4f8b588e368f1p-18}},
    {"baytrail-tablet/edge/budget/compute/cpu-long/gpu-long",
     {0x1.ce94c587468e1p-4, 0x1.01c70f80dfd1cp-2, 0x1.01c4p+14,
      0x1.cb732301fd0afp-5, 0x1.cb6p+11, 0x1.6dffc770b4b0ap-3,
      0x1.6df8p+13, 0x1.4b3f75c3c3c31p+30, 0x1.8173bc3c3c3bbp+24,
      0x0p+0, 0x1.8173bc3c3c3bbp+22, 0x0p+0,
      0x1.ce94c587468e1p-4, 0x0p+0, 0x1.1d7b660000001p+32,
      0x1.4c32800000004p+26, 0x0p+0, 0x1.4c32800000004p+24,
      0x0p+0, 0x1.a3067335a777fp-4, 0x1.f75104d551d69p-17}},
    {"baytrail-tablet/edge/budget/memory/cpu-long/gpu-long",
     {0x1.549336d88b499p-3, 0x1.f4c891e732d37p-3, 0x1.f4c8p+13,
      0x1.4ec8ccebd6cdfp-5, 0x1.4ecp+11, 0x1.49e6c907e8bafp-3,
      0x1.49ep+13, 0x1.9631177c7a211p+27, 0x1.44f412c9fb4d8p+23,
      0x1.44f412c9fb4d8p+23, 0x1.44f412c9fb4d8p+23, 0x1.44f412c9fb4d8p+29,
      0x1.0b9796559da22p-3, 0x0p+0, 0x1.4239037ffffffp+28,
      0x1.01c735fffffffp+24, 0x1.01c735fffffffp+24, 0x1.01c735fffffffp+24,
      0x1.01c735fffffffp+30, 0x1.548b599477f45p-3, 0x1.f75104d551d69p-17}},
    {"baytrail-tablet/edge/drain/compute/cpu-long/gpu-long",
     {0x1.2f1a9fbe76c8cp-3, 0x1.7db28ee3f5d45p-3, 0x1.7dbp+13,
      0x1.2f7a14ae4222p-3, 0x1.2f78p+13, 0x1.060a452f757b6p-6,
      0x1.06p+10, 0x1.1d7e0d6969693p+31, 0x1.4c3596969696fp+25,
      0x0p+0, 0x1.4c3596969696fp+23, 0x0p+0,
      0x1.2f1a9fbe76c8cp-3, 0x0p+0, 0x0p+0,
      0x0p+0, 0x0p+0, 0x0p+0,
      0x0p+0, 0x0p+0, 0x0p+0}},
    {"baytrail-tablet/edge/drain/memory/cpu-long/gpu-long",
     {0x1.2f1a9fbe76c8cp-3, 0x1.029561da4b2bfp-3, 0x1.029p+13,
      0x1.389c50fc0c4cp-4, 0x1.389p+12, 0x1.060a452f757b6p-6,
      0x1.06p+10, 0x1.5e158f441c2e6p+28, 0x1.18113f69b025cp+24,
      0x1.18113f69b025cp+24, 0x1.18113f69b025cp+24, 0x1.18113f69b025cp+30,
      0x1.2f1a9fbe76c8cp-3, 0x0p+0, 0x0p+0,
      0x0p+0, 0x0p+0, 0x0p+0,
      0x0p+0, 0x0p+0, 0x0p+0}},
    {"baytrail-tablet/edge/epoch-end/compute/cpu-long/gpu-long",
     {0x1.7fb95b5844b84p-3, 0x1.85683343b09a1p-2, 0x1.8568p+14,
      0x1.4802d69e664a4p-4, 0x1.48p+12, 0x1.169ffd28ab79bp-2,
      0x1.169cp+14, 0x1.a46e15787878ap+30, 0x1.e93a47878787p+24,
      0x0p+0, 0x1.e93a47878787p+22, 0x0p+0,
      0x1.1b5878e385b85p-3, 0x0p+0, 0x1.b49e9c0000006p+32,
      0x1.fc11000000013p+26, 0x0p+0, 0x1.fc11000000013p+24,
      0x0p+0, 0x1.4240da3d27258p-3, 0x1.f75104d551d69p-17}},
    {"baytrail-tablet/edge/epoch-end/memory/cpu-long/gpu-long",
     {0x1.1207219954c7ap-2, 0x1.70a1a7968fe97p-2, 0x1.70ap+14,
      0x1.f33a6611204f5p-5, 0x1.f32p+11, 0x1.deaae8972e5d4p-3,
      0x1.dea8p+13, 0x1.01c689fb4d816p+28, 0x1.9c70dcc548ceap+23,
      0x1.9c70dcc548ceap+23, 0x1.9c70dcc548ceap+23, 0x1.9c70dcc548ceap+29,
      0x1.527d4cbc073a6p-3, 0x0p+0, 0x1.eccfab000001p+28,
      0x1.8a3fbc000000ep+24, 0x1.8a3fbc000000ep+24, 0x1.8a3fbc000000ep+24,
      0x1.8a3fbc000000ep+30, 0x1.e695c2178bfc9p-3, 0x1.f75104d551d69p-17}},
};
// clang-format on

} // namespace

TEST(SimProcessor, SliceResultsMatchParentBits) {
  std::vector<std::pair<std::string, SliceObservables>> Actual;
  for (const PlatformSpec &Healthy : {haswellDesktop(), bayTrailTablet()}) {
    std::vector<MicroBenchmark> Micros;
    for (unsigned C = 0; C != WorkloadClass::NumClasses; ++C) {
      WorkloadClass Class = WorkloadClass::fromIndex(C);
      Micros.push_back(makeMicroBenchmark(Healthy, Class));
      Actual.emplace_back(Healthy.Name + "/" + Class.name(),
                          runSliceScenario(Healthy, Micros.back()));
    }
    FaultEvent Throttle;
    Throttle.Kind = FaultKind::GpuThrottle;
    Throttle.StartSec = 0.02;
    Throttle.EndSec = 0.3;
    Throttle.Magnitude = 0.3;
    FaultEvent Dropout;
    Dropout.Kind = FaultKind::RaplDropout;
    Dropout.Probability = 0.3;
    for (const FaultEvent &Event : {Throttle, Dropout}) {
      PlatformSpec Faulty = Healthy;
      Faulty.Faults.addEvent(Event);
      // A compute-bound and a memory-bound class, both long on each
      // device.
      for (unsigned C : {0u, 4u})
        Actual.emplace_back(Healthy.Name + "/" + faultKindName(Event.Kind) +
                                "/" + WorkloadClass::fromIndex(C).name(),
                            runSliceScenario(Faulty, Micros[C]));
    }
  }
  for (const PlatformSpec &Healthy : {haswellDesktop(), bayTrailTablet()}) {
    FaultEvent Throttle;
    Throttle.Kind = FaultKind::GpuThrottle;
    Throttle.StartSec = 0.05;
    Throttle.EndSec = 0.2;
    Throttle.Magnitude = 0.4;
    FaultEvent Dropout;
    Dropout.Kind = FaultKind::RaplDropout;
    Dropout.Probability = 0.3;
    for (unsigned C : {0u, 4u}) {
      WorkloadClass Class = WorkloadClass::fromIndex(C);
      MicroBenchmark Micro = makeMicroBenchmark(Healthy, Class);
      double RepeatedShare = 0.0;
      Actual.emplace_back(Healthy.Name + "/long/" + Class.name(),
                          runLongDispatchScenario(Healthy, Micro,
                                                  RepeatedShare));
      // Most of the time is in steady slices between epochs, which repeat.
      EXPECT_GT(RepeatedShare, 0.8) << Actual.back().first;
      for (const FaultEvent &Event : {Throttle, Dropout}) {
        PlatformSpec Faulty = Healthy;
        Faulty.Faults.addEvent(Event);
        Actual.emplace_back(Healthy.Name + "/long/" +
                                faultKindName(Event.Kind) + "/" + Class.name(),
                            runLongDispatchScenario(Faulty, Micro,
                                                    RepeatedShare));
        // A fault injector re-samples every slice: none repeats.
        EXPECT_EQ(RepeatedShare, 0.0) << Actual.back().first;
      }
    }
  }
  for (const PlatformSpec &Spec : {haswellDesktop(), bayTrailTablet()})
    for (SliceEdge Edge :
         {SliceEdge::Budget, SliceEdge::Drain, SliceEdge::EpochEnd})
      for (unsigned C : {0u, 4u}) {
        WorkloadClass Class = WorkloadClass::fromIndex(C);
        Actual.emplace_back(Spec.Name + "/edge/" + sliceEdgeName(Edge) + "/" +
                                Class.name(),
                            runSliceEdgeScenario(
                                Spec, makeMicroBenchmark(Spec, Class), Edge));
      }

  std::string Mismatches;
  size_t NumExpected = std::size(ParentSliceResults);
  for (size_t I = 0; I != Actual.size(); ++I) {
    const auto &[Name, Values] = Actual[I];
    bool Same = I < NumExpected && Name == ParentSliceResults[I].Name;
    for (size_t V = 0; Same && V != NumSliceObservables; ++V)
      Same = std::bit_cast<uint64_t>(Values[V]) ==
             std::bit_cast<uint64_t>(ParentSliceResults[I].Expected[V]);
    if (!Same)
      Mismatches += sliceCaseLiteral(Name, Values);
  }
  EXPECT_EQ(Actual.size(), NumExpected);
  EXPECT_TRUE(Mismatches.empty()) << "actual results of the mismatched "
                                     "cases:\n"
                                  << Mismatches;
}

//===----------------------------------------------------------------------===//
// Repetition replay: profileOnce charges a steady repetition from the plan
// of the last stepped one. After every repetition, its sample and the
// whole observable simulator state must equal, bit for bit, a twin
// processor driven by the fault-free profileOnce body as it was before
// replay existed.
//===----------------------------------------------------------------------===//

namespace {

/// Every ProfileSample field, then the pool left, as doubles.
std::array<double, 12> sampleFields(const ProfileSample &S, double Nrem) {
  return {S.CpuThroughput,
          S.GpuThroughput,
          S.CpuIterations,
          S.GpuIterations,
          S.ElapsedSeconds,
          S.CpuBusySeconds,
          S.GpuBusySeconds,
          S.MissPerLoadStore,
          S.InstructionsRetired,
          S.GpuLaunchFailed ? 1.0 : 0.0,
          S.GpuHung ? 1.0 : 0.0,
          Nrem};
}

template <size_t N>
bool sameBits(const std::array<double, N> &A, const std::array<double, N> &B) {
  for (size_t I = 0; I != N; ++I)
    if (std::bit_cast<uint64_t>(A[I]) != std::bit_cast<uint64_t>(B[I]))
      return false;
  return true;
}

struct ReplayCase {
  std::string Name;
  PlatformSpec Spec;
  KernelDesc Kernel;
  double ProfileSize;
  /// Cap both clocks at 80% and hint the CPU to 60% of its turbo.
  bool CapAndHint = false;
};

struct ReplayCaseResult {
  unsigned Repetitions = 0;
  uint64_t Replayed = 0;
  /// Empty when every repetition matched.
  std::string Mismatch;
};

/// Runs \p Case on a processor profiled through OnlineProfiler and on a
/// twin driven by steppedRepetition(), in lockstep: steady repetitions
/// across two governor epochs, with a GPU hint switched on and off
/// between repetitions (it moves the GPU clock and nothing the CPU
/// sees); then pools that end in each tail a guard must catch: the CPU
/// share draining within a repetition, a share below the CPU's thread
/// count, and a GPU chunk smaller than the profile size.
ReplayCaseResult runReplayCase(const ReplayCase &Case) {
  ReplayCaseResult Result;
  const PlatformSpec &Spec = Case.Spec;
  SimProcessor Replaying(Spec), Stepping(Spec);
  OnlineProfiler Profiler(Replaying, Case.ProfileSize);
  for (SimProcessor *Proc : {&Replaying, &Stepping}) {
    if (!Case.CapAndHint)
      continue;
    Proc->pcu().setFrequencyCap(0.8 * Spec.Cpu.MaxTurboGHz,
                                0.8 * Spec.Gpu.MaxFreqGHz);
    Proc->cpu().setFrequencyHintGHz(0.6 * Spec.Cpu.MaxTurboGHz);
  }
  double NremA = 1e9, NremB = 1e9;
  double LastCpuIterations = 0.0;
  // One lockstep repetition; false on a mismatch.
  auto Repeat = [&] {
    ProfileSample A = Profiler.profileOnce(Case.Kernel, NremA);
    ProfileSample B =
        steppedRepetition(Stepping, Case.Kernel, Case.ProfileSize, NremB);
    ++Result.Repetitions;
    LastCpuIterations = A.CpuIterations;
    if (sameBits(sampleFields(A, NremA), sampleFields(B, NremB)) &&
        sameBits(sliceObservables(Replaying), sliceObservables(Stepping)))
      return true;
    Result.Mismatch = formatString(
        "%s: repetition %u differs (replayed %llu so far; elapsed %a vs "
        "%a, now %a vs %a)",
        Case.Name.c_str(), Result.Repetitions,
        static_cast<unsigned long long>(Replaying.repetitionsReplayed()),
        A.ElapsedSeconds, B.ElapsedSeconds, Replaying.now(),
        Stepping.now());
    return false;
  };
  auto SetPool = [&](double Pool) { NremA = NremB = Pool; };

  double Epochs = 2.5 * Spec.Pcu.SamplingIntervalSec;
  for (unsigned Rep = 0; Replaying.now() < Epochs; ++Rep) {
    if (Rep == 6 || Rep == 12)
      for (SimProcessor *Proc : {&Replaying, &Stepping})
        Proc->gpu().setFrequencyHintGHz(Rep == 6 ? 0.7 * Spec.Gpu.MaxFreqGHz
                                                 : 0.0);
    if (!Repeat())
      return Result;
  }

  double Chunk = Case.ProfileSize;
  double Threads = Replaying.cpu().effectiveThreads();
  for (double Pool : {Chunk + 2.0 * LastCpuIterations, Chunk + 3.0 * Threads,
                      Chunk + 0.5 * Threads, 0.5 * Chunk}) {
    // Two steady repetitions leave a plan for the tail to start from.
    SetPool(1e9);
    for (int I = 0; I != 2; ++I)
      if (!Repeat())
        return Result;
    SetPool(Pool);
    while (NremA > 0.0)
      if (!Repeat())
        return Result;
  }
  Result.Replayed = Replaying.repetitionsReplayed();
  return Result;
}

/// A kernel slow enough on the GPU that one chunk of \p ProfileSize
/// iterations at the GPU's top clock spans about 2.5 ms, several 1 ms
/// slices.
KernelDesc slowGpuKernel(const PlatformSpec &Spec, double ProfileSize) {
  KernelDesc Kernel = computeBoundMicroKernel();
  double Lanes =
      static_cast<double>(Spec.Gpu.ExecutionUnits) * Spec.Gpu.SimdWidth;
  Kernel.GpuCyclesPerIter = 2.5e-3 * Lanes * Kernel.GpuEfficiency *
                            Spec.Gpu.MaxFreqGHz * 1e9 / ProfileSize;
  Kernel.Name = "slow-gpu";
  return Kernel;
}

} // namespace

TEST(OnlineProfiler, ReplayedRepetitionsMatchSteppedBits) {
  std::vector<ReplayCase> Cases;
  for (const PlatformSpec &Spec : {haswellDesktop(), bayTrailTablet()}) {
    double Default = Spec.defaultGpuProfileSize();
    for (unsigned C = 0; C != WorkloadClass::NumClasses; ++C) {
      WorkloadClass Class = WorkloadClass::fromIndex(C);
      KernelDesc Kernel = makeMicroBenchmark(Spec, Class).Kernel;
      for (double Size : {64.0, Default, 32768.0})
        Cases.push_back({formatString("%s/%s/size-%.0f", Spec.Name.c_str(),
                                      Class.name().c_str(), Size),
                         Spec, Kernel, Size});
      Cases.push_back({Spec.Name + "/" + Class.name() + "/cap-and-hint", Spec,
                       Kernel, Default, /*CapAndHint=*/true});
    }
    Cases.push_back({Spec.Name + "/slow-gpu", Spec,
                     slowGpuKernel(Spec, Default), Default});
  }

  unsigned Repetitions = 0;
  uint64_t Replayed = 0;
  std::string Unreplayed;
  for (const ReplayCase &Case : Cases) {
    ReplayCaseResult Result = runReplayCase(Case);
    EXPECT_TRUE(Result.Mismatch.empty()) << Result.Mismatch;
    Repetitions += Result.Repetitions;
    Replayed += Result.Replayed;
    if (Result.Mismatch.empty() && Result.Replayed == 0)
      Unreplayed += " " + Case.Name;
  }
  // The comparison means something only if most repetitions replayed.
  EXPECT_TRUE(Unreplayed.empty()) << "cases that never replayed:"
                                  << Unreplayed;
  EXPECT_GT(Replayed, Repetitions / 2)
      << Replayed << " of " << Repetitions << " repetitions replayed";
}
