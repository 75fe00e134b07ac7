//===-- tests/FaultInjectionTest.cpp - end-to-end degradation -------------===//
//
// Part of the ecas project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// Integration coverage of the fault-injection tentpole: a GPU hang in
/// the middle of a trace must leave every comparison scheme running to
/// completion; EAS must quarantine the device, degrade to CPU-alone,
/// and re-admit it after recovery; and a platform with no fault plan
/// must behave bit-identically to the pre-fault-subsystem primitives.
///
//===----------------------------------------------------------------------===//

#include "ecas/core/EasScheduler.h"
#include "ecas/core/ExecutionSession.h"
#include "ecas/hw/Presets.h"

#include "TestSupport.h"

#include <gtest/gtest.h>

#include <cmath>

using namespace ecas;

namespace {

KernelDesc testKernel() {
  KernelDesc Kernel;
  Kernel.Name = "fault-probe";
  return Kernel.withAutoId();
}

/// A trace long enough (hundreds of virtual milliseconds) to straddle
/// the built-in gpu-hang scenario's fault window [0.02 s, 0.2 s) and the
/// quarantine backoffs that follow it.
InvocationTrace longTrace(unsigned Invocations = 60,
                          double Iterations = 2e6) {
  InvocationTrace Trace;
  for (unsigned I = 0; I != Invocations; ++I)
    Trace.push_back({testKernel(), Iterations});
  return Trace;
}

void expectCompleted(const SessionReport &Report, unsigned Invocations) {
  EXPECT_TRUE(std::isfinite(Report.Seconds));
  EXPECT_GT(Report.Seconds, 0.0);
  EXPECT_TRUE(std::isfinite(Report.Joules));
  EXPECT_GT(Report.Joules, 0.0);
  EXPECT_EQ(Report.Invocations, Invocations);
}

} // namespace

TEST(FaultInjection, EverySchemeCompletesThroughMidTraceHang) {
  PlatformSpec Spec = faultySpec("gpu-hang");
  ExecutionSession Session(Spec);
  InvocationTrace Trace = longTrace();
  RunOptions Options;
  Options.Trace = &Trace;
  Options.Curves = &desktopCurves();
  Options.Step = 0.5;
  unsigned N = static_cast<unsigned>(Trace.size());

  expectCompleted(Session.run(SchemeKind::CpuOnly, Options), N);

  SessionReport Gpu = Session.run(SchemeKind::GpuOnly, Options);
  expectCompleted(Gpu, N);
  // A GPU-alone run cannot dodge the hang: the watchdog must have fired
  // and stranded work back to the CPU.
  EXPECT_TRUE(Gpu.FaultsEnabled);
  EXPECT_GE(Gpu.Resilience.HangsDetected, 1u);
  EXPECT_TRUE(Gpu.Resilience.degraded());
  // Stranding shows up as an effective offload ratio below the requested
  // alpha = 1.
  EXPECT_LT(Gpu.MeanAlpha, 1.0);

  expectCompleted(Session.run(SchemeKind::Perf, Options), N);
  expectCompleted(Session.run(SchemeKind::Oracle, Options), N);

  SessionReport Eas = Session.run(SchemeKind::Eas, Options);
  expectCompleted(Eas, N);
  EXPECT_TRUE(Eas.FaultsEnabled);
  EXPECT_TRUE(Eas.Injected.anyInjected());
}

TEST(FaultInjection, EasQuarantinesDegradesAndReadmits) {
  PlatformSpec Spec = faultySpec("gpu-hang");
  ExecutionSession Session(Spec);
  InvocationTrace Trace = longTrace();
  RunOptions Options;
  Options.Trace = &Trace;
  Options.Curves = &desktopCurves();
  SessionReport Report = Session.run(SchemeKind::Eas, Options);

  // Cause side: the injector really fired hang queries.
  EXPECT_TRUE(Report.FaultsEnabled);
  EXPECT_GT(Report.Injected.HangQueries, 0u);

  // Reaction side: watchdog -> quarantine -> CPU-only invocations ->
  // re-probe -> recovery once the fault window closes.
  EXPECT_GE(Report.Resilience.HangsDetected, 1u);
  EXPECT_GE(Report.Resilience.Quarantines, 1u);
  EXPECT_GE(Report.Resilience.QuarantinedInvocations, 1u);
  EXPECT_GE(Report.Resilience.Recoveries, 1u);
  EXPECT_TRUE(Report.Resilience.degraded());

  // After re-admission the GPU is used again, so the run as a whole is
  // not CPU-only.
  EXPECT_GT(Report.MeanAlpha, 0.0);
}

TEST(FaultInjection, EasPerInvocationOutcomesShowTheFullArc) {
  PlatformSpec Spec = faultySpec("gpu-hang");
  SimProcessor Proc(Spec);
  EasScheduler Scheduler(desktopFamily(), Metric::edp());
  KernelDesc Kernel = testKernel();

  bool SawHang = false, SawQuarantined = false, SawReadmitted = false;
  bool SawGpuAfterReadmit = false;
  for (unsigned I = 0; I != 60; ++I) {
    EasScheduler::InvocationOutcome Outcome =
        Scheduler.execute(Proc, Kernel, 2e6);
    SawHang = SawHang || Outcome.HangDetected;
    SawQuarantined = SawQuarantined || Outcome.GpuQuarantined;
    SawReadmitted = SawReadmitted || Outcome.GpuReadmitted;
    if (SawReadmitted && Outcome.AlphaUsed > 0.0)
      SawGpuAfterReadmit = true;
  }
  EXPECT_TRUE(SawHang);
  EXPECT_TRUE(SawQuarantined);
  EXPECT_TRUE(SawReadmitted);
  EXPECT_TRUE(SawGpuAfterReadmit);
  EXPECT_GE(Scheduler.health().stats().Recoveries, 1u);

  // Quarantined runs were recorded in table G without polluting alpha.
  std::optional<KernelRecord> Record =
      findRecord(Scheduler.history(), Kernel.Id);
  ASSERT_TRUE(Record.has_value());
  EXPECT_GE(Record->QuarantinedRuns, 1u);
}

TEST(FaultInjection, FlakyLaunchesRetryAndFallBack) {
  PlatformSpec Spec = faultySpec("gpu-flaky-launch");
  ExecutionSession Session(Spec);
  InvocationTrace Trace = longTrace(20);
  RunOptions Options;
  Options.Trace = &Trace;
  Options.Curves = &desktopCurves();
  SessionReport Report = Session.run(SchemeKind::Eas, Options);
  expectCompleted(Report, 20);
  EXPECT_GT(Report.Injected.LaunchFailures, 0u);
  EXPECT_GE(Report.Resilience.LaunchRetries, 1u);
}

TEST(FaultInjection, ThrottleCollapseStillCompletes) {
  PlatformSpec Spec = faultySpec("thermal-throttle");
  ExecutionSession Session(Spec);
  // Enough work to straddle the built-in throttle window [0.05 s, 0.4 s):
  // a short trace would finish before the collapse ever begins.
  InvocationTrace Trace = longTrace(60, 4e6);
  RunOptions Options;
  Options.Trace = &Trace;
  SessionReport Faulted = Session.run(SchemeKind::GpuOnly, Options);
  expectCompleted(Faulted, 60);
  EXPECT_GT(Faulted.Injected.ThrottleQueries, 0u);

  // The collapse costs wall-clock time against the healthy platform.
  ExecutionSession Healthy(haswellDesktop());
  SessionReport Clean = Healthy.run(SchemeKind::GpuOnly, Options);
  EXPECT_GT(Faulted.Seconds, Clean.Seconds);
}

TEST(FaultInjection, RaplGlitchSkewsMeasuredEnergyOnly) {
  PlatformSpec Spec = faultySpec("rapl-glitch");
  ExecutionSession Session(Spec);
  InvocationTrace Trace = longTrace(20);
  RunOptions Options;
  Options.Trace = &Trace;
  SessionReport Report = Session.run(SchemeKind::CpuOnly, Options);
  expectCompleted(Report, 20);
  // The injector hit the meter...
  EXPECT_TRUE(Report.Injected.RaplSamplesDropped > 0 ||
              Report.Injected.RaplCounterJumps > 0);
  // ...but never the schedule: a CPU-only run is time-identical to the
  // healthy platform because only the package meter is perturbed.
  ExecutionSession Healthy(haswellDesktop());
  SessionReport Clean = Healthy.run(SchemeKind::CpuOnly, Options);
  EXPECT_EQ(Report.Seconds, Clean.Seconds);
  EXPECT_NE(Report.Joules, Clean.Joules);
}

TEST(FaultInjection, DisabledInjectorIsBitIdenticalToLegacyPrimitive) {
  PlatformSpec Spec = haswellDesktop();
  ASSERT_FALSE(Spec.Faults.enabled());
  InvocationTrace Trace = longTrace(10);

  // Replay the trace through the legacy fixed-split primitive.
  SimProcessor Proc(Spec);
  EXPECT_EQ(Proc.faults(), nullptr);
  uint32_t MsrBefore = Proc.meter().readMsr();
  double Start = Proc.now();
  for (const KernelInvocation &Invocation : Trace)
    runPartitioned(Proc, Invocation.Kernel, Invocation.Iterations, 0.6);
  double LegacySeconds = Proc.now() - Start;
  double LegacyJoules = Proc.meter().joulesSince(MsrBefore);

  // The resilient session path must take its fault-free fast path and
  // reproduce the run bit for bit.
  ExecutionSession Session(Spec);
  RunOptions Options;
  Options.Trace = &Trace;
  Options.Alpha = 0.6;
  SessionReport Report = Session.run(SchemeKind::FixedAlpha, Options);
  EXPECT_EQ(Report.Seconds, LegacySeconds);
  EXPECT_EQ(Report.Joules, LegacyJoules);
  EXPECT_EQ(Report.MeanAlpha, 0.6);
  EXPECT_FALSE(Report.FaultsEnabled);
  EXPECT_FALSE(Report.Resilience.degraded());
  EXPECT_FALSE(Report.Injected.anyInjected());
}

TEST(FaultInjection, SeededScenariosAreReproducible) {
  PlatformSpec Spec = faultySpec("kitchen-sink");
  InvocationTrace Trace = longTrace(20);
  RunOptions Options;
  Options.Trace = &Trace;
  Options.Curves = &desktopCurves();

  SessionReport A = ExecutionSession(Spec).run(SchemeKind::Eas, Options);
  SessionReport B = ExecutionSession(Spec).run(SchemeKind::Eas, Options);
  EXPECT_EQ(A.Seconds, B.Seconds);
  EXPECT_EQ(A.Joules, B.Joules);
  EXPECT_EQ(A.MeanAlpha, B.MeanAlpha);
  EXPECT_EQ(A.Resilience.HangsDetected, B.Resilience.HangsDetected);
  EXPECT_EQ(A.Resilience.Quarantines, B.Resilience.Quarantines);
  EXPECT_EQ(A.Injected.LaunchFailures, B.Injected.LaunchFailures);
}
