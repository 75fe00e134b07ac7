//===-- tests/IntegrationTest.cpp - cross-module behaviour -----------------===//
//
// Part of the ecas project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// End-to-end checks of the paper's headline claims on reduced-scale
/// inputs: scheme orderings on both platforms, the CC crossover shape of
/// Fig. 1, and EAS's efficiency band relative to the Oracle.
///
//===----------------------------------------------------------------------===//

#include "ecas/core/ExecutionSession.h"
#include "ecas/hw/Presets.h"
#include "ecas/power/Characterizer.h"
#include "ecas/workloads/GraphWorkloads.h"
#include "ecas/workloads/Registry.h"

#include <gtest/gtest.h>

using namespace ecas;

namespace {

const PowerCurveSet &curvesFor(const PlatformSpec &Spec) {
  static PowerCurveSet Desktop =
      Characterizer(haswellDesktop()).characterize();
  static PowerCurveSet Tablet =
      Characterizer(bayTrailTablet()).characterize();
  return Spec.Name == "haswell-desktop" ? Desktop : Tablet;
}

WorkloadConfig testConfig() {
  WorkloadConfig Config;
  Config.Scale = 0.05; // Keep real graph algorithms quick in tests.
  return Config;
}

} // namespace

TEST(Integration, Fig1CcEnergyAndPerfCrossover) {
  // Fig. 1: CC's best-performance alpha lies strictly inside (0, 1) and
  // below the minimum-energy alpha, which sits near full GPU offload.
  PlatformSpec Spec = haswellDesktop();
  ExecutionSession Session(Spec);
  Workload Cc = makeCcWorkload(testConfig());

  RunOptions Options;
  Options.Trace = &Cc.Trace;
  Options.Objective = Metric::energy();
  double BestPerfAlpha = -1.0, BestPerfSeconds = 1e30;
  double BestEnergyAlpha = -1.0, BestEnergyJoules = 1e30;
  for (double Alpha = 0.0; Alpha <= 1.0 + 1e-9; Alpha += 0.1) {
    Options.Alpha = std::min(Alpha, 1.0);
    SessionReport R = Session.run(SchemeKind::FixedAlpha, Options);
    if (R.Seconds < BestPerfSeconds) {
      BestPerfSeconds = R.Seconds;
      BestPerfAlpha = Alpha;
    }
    if (R.Joules < BestEnergyJoules) {
      BestEnergyJoules = R.Joules;
      BestEnergyAlpha = Alpha;
    }
  }
  EXPECT_GT(BestPerfAlpha, 0.05);
  EXPECT_LT(BestPerfAlpha, 0.95);
  EXPECT_GE(BestEnergyAlpha, BestPerfAlpha);
}

TEST(Integration, DesktopEnergyGpuNearOraclePerfWorse) {
  // Fig. 10's ordering: GPU-alone close to Oracle on energy; PERF
  // clearly worse than GPU-alone.
  PlatformSpec Spec = haswellDesktop();
  ExecutionSession Session(Spec);
  Workload Mm = *findWorkload(desktopSuite(testConfig()), "MM");
  RunOptions Options;
  Options.Trace = &Mm.Trace;
  Options.Objective = Metric::energy();
  SessionReport Oracle = Session.run(SchemeKind::Oracle, Options);
  SessionReport Gpu = Session.run(SchemeKind::GpuOnly, Options);
  SessionReport Perf = Session.run(SchemeKind::Perf, Options);
  EXPECT_GT(Oracle.MetricValue / Gpu.MetricValue, 0.85);
  EXPECT_LT(Oracle.MetricValue / Perf.MetricValue,
            Oracle.MetricValue / Gpu.MetricValue + 1e-9);
}

TEST(Integration, EasBeatsSingleDeviceOnDesktopEdp) {
  PlatformSpec Spec = haswellDesktop();
  ExecutionSession Session(Spec);
  // Full-size BS invocations (64K options); profiling on invocations
  // barely above GPU_PROFILE_SIZE is legitimately noisy.
  WorkloadConfig Config;
  Config.Scale = 1.0;
  Workload Bs = *findWorkload(desktopSuite(Config), "BS");
  // Trim the trace for test speed; 2000 identical invocations add
  // nothing at unit-test granularity.
  Bs.Trace.resize(40);
  RunOptions Options;
  Options.Trace = &Bs.Trace;
  Options.Curves = &curvesFor(Spec);
  SessionReport Eas = Session.run(SchemeKind::Eas, Options);
  SessionReport Cpu = Session.run(SchemeKind::CpuOnly, Options);
  EXPECT_LT(Eas.MetricValue, Cpu.MetricValue);
}

TEST(Integration, TabletGpuAloneIsNotEnergyOptimal) {
  // Fig. 12: on the Bay Trail, GPU-alone loses to the Oracle by a clear
  // margin (its GPU burns more power than the CPU).
  PlatformSpec Spec = bayTrailTablet();
  ExecutionSession Session(Spec);
  WorkloadConfig Config = testConfig();
  Workload Mm = *findWorkload(tabletSuite(Config), "MM");
  RunOptions Options;
  Options.Trace = &Mm.Trace;
  Options.Objective = Metric::energy();
  SessionReport Oracle = Session.run(SchemeKind::Oracle, Options);
  SessionReport Gpu = Session.run(SchemeKind::GpuOnly, Options);
  EXPECT_LT(Oracle.MetricValue, Gpu.MetricValue);
}

TEST(Integration, EasWithinBandOfOracleAcrossMetrics) {
  PlatformSpec Spec = haswellDesktop();
  ExecutionSession Session(Spec);
  Workload Nb = *findWorkload(desktopSuite(testConfig()), "NB");
  Nb.Trace.resize(20);
  RunOptions Options;
  Options.Trace = &Nb.Trace;
  Options.Curves = &curvesFor(Spec);
  for (const Metric &Objective : {Metric::energy(), Metric::edp()}) {
    Options.Objective = Objective;
    SessionReport Oracle = Session.run(SchemeKind::Oracle, Options);
    SessionReport Eas = Session.run(SchemeKind::Eas, Options);
    double Efficiency = Oracle.MetricValue / Eas.MetricValue;
    EXPECT_GT(Efficiency, 0.6)
        << "metric " << Objective.name() << " efficiency " << Efficiency;
    EXPECT_LE(Efficiency, 1.0 + 1e-9);
  }
}

TEST(Integration, SessionReportsAreInternallyConsistent) {
  PlatformSpec Spec = haswellDesktop();
  ExecutionSession Session(Spec);
  Workload Sm = *findWorkload(desktopSuite(testConfig()), "SM");
  Sm.Trace.resize(10);
  RunOptions Options;
  Options.Trace = &Sm.Trace;
  Options.Curves = &curvesFor(Spec);
  SessionReport R = Session.run(SchemeKind::Eas, Options);
  EXPECT_EQ(R.Invocations, 10u);
  EXPECT_GT(R.Seconds, 0.0);
  EXPECT_GT(R.Joules, 0.0);
  EXPECT_NEAR(R.MetricValue, R.Joules * R.Seconds, 1e-6 * R.MetricValue);
  EXPECT_GE(R.MeanAlpha, 0.0);
  EXPECT_LE(R.MeanAlpha, 1.0);
  EXPECT_NEAR(R.averageWatts(), R.Joules / R.Seconds, 1e-9);
}

TEST(Integration, CustomMetricIsHonored) {
  // An ED^2-style metric pushes the best alpha at least as far toward
  // performance as plain energy does.
  PlatformSpec Spec = haswellDesktop();
  ExecutionSession Session(Spec);
  Workload Mm = *findWorkload(desktopSuite(testConfig()), "MM");
  RunOptions Options;
  Options.Trace = &Mm.Trace;
  Options.Objective = Metric::energy();
  SessionReport OracleEnergy = Session.run(SchemeKind::Oracle, Options);
  Options.Objective = Metric::ed2p();
  SessionReport OracleEd2 = Session.run(SchemeKind::Oracle, Options);
  EXPECT_LE(OracleEd2.Seconds, OracleEnergy.Seconds + 1e-9);
}

TEST(Integration, ReprofilingAdaptsToDriftingKernels) {
  // A kernel whose behaviour flips mid-run (Section 3.1: "for workloads
  // where the same kernel behaves differently over time, we repeat
  // profiling"). The kernel keeps its identity but becomes strongly
  // CPU-biased halfway through; periodic re-profiling should follow the
  // drift while the default sticks with the stale alpha.
  PlatformSpec Spec = haswellDesktop();

  KernelDesc Friendly;
  Friendly.Name = "drifting.kernel";
  Friendly.CpuCyclesPerIter = 1200.0;
  Friendly.GpuCyclesPerIter = 300.0;
  Friendly.BytesPerIter = 8.0;
  Friendly.LoadStoresPerIter = 4.0;
  Friendly.LlcMissRatio = 0.05;
  Friendly.InstrsPerIter = 1300.0;
  Friendly.GpuEfficiency = 0.9;
  Friendly.CpuVectorizable = 0.2;
  Friendly.withAutoId();
  KernelDesc Hostile = Friendly;
  Hostile.GpuEfficiency = 0.01; // Same Id, GPU suddenly terrible.

  InvocationTrace Trace;
  for (int I = 0; I != 12; ++I)
    Trace.push_back({Friendly, 1e6});
  for (int I = 0; I != 12; ++I)
    Trace.push_back({Hostile, 1e6});

  ExecutionSession Session(Spec);
  RunOptions Options;
  Options.Trace = &Trace;
  Options.Curves = &curvesFor(Spec);
  SessionReport Static = Session.run(SchemeKind::Eas, Options);
  Options.Eas.ReprofileEveryInvocations = 4;
  SessionReport Tracking = Session.run(SchemeKind::Eas, Options);
  EXPECT_LT(Tracking.MetricValue, Static.MetricValue)
      << "re-profiling should beat the stale alpha on a drifting kernel";
}

TEST(Integration, ExternalGpuBusySessionStillCompletes) {
  PlatformSpec Spec = haswellDesktop();
  SimProcessor Proc(Spec);
  EasScheduler Scheduler(PowerCurveFamily::fromSingle(curvesFor(Spec)),
                         Metric::edp());
  Scheduler.setExternalGpuBusy(true);
  KernelDesc Kernel =
      findWorkload(desktopSuite(testConfig()), "SM")->Trace.front().Kernel;
  for (int I = 0; I != 5; ++I) {
    auto Outcome = Scheduler.execute(Proc, Kernel, 1e6);
    EXPECT_DOUBLE_EQ(Outcome.AlphaUsed, 0.0);
  }
  EXPECT_DOUBLE_EQ(Proc.gpu().counters().IterationsDone, 0.0);
  EXPECT_NEAR(Proc.cpu().counters().IterationsDone, 5e6, 1.0);
}

TEST(Integration, CurveCacheRoundTripPreservesEasDecisions) {
  // The deployment flow: characterize once, serialize, reload in another
  // process — decisions must be identical.
  PlatformSpec Spec = bayTrailTablet();
  PowerCurveSet Fresh = Characterizer(Spec).characterize();
  auto Reloaded = PowerCurveSet::load(Fresh.serialize());
  ASSERT_TRUE(Reloaded.ok());

  Workload Mm = *findWorkload(tabletSuite(testConfig()), "MM");
  ExecutionSession Session(Spec);
  RunOptions Options;
  Options.Trace = &Mm.Trace;
  Options.Curves = &Fresh;
  SessionReport A = Session.run(SchemeKind::Eas, Options);
  Options.Curves = &*Reloaded;
  SessionReport B = Session.run(SchemeKind::Eas, Options);
  EXPECT_DOUBLE_EQ(A.MeanAlpha, B.MeanAlpha);
  EXPECT_DOUBLE_EQ(A.Joules, B.Joules);
  EXPECT_DOUBLE_EQ(A.Seconds, B.Seconds);
}
