//===-- tests/CoreTest.cpp - core/ unit tests ------------------------------===//
//
// Part of the ecas project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "ecas/core/EasScheduler.h"
#include "ecas/core/ExecutionSession.h"
#include "ecas/core/KernelHistory.h"
#include "ecas/core/Metric.h"
#include "ecas/core/OperatingPoint.h"
#include "ecas/core/Schedulers.h"
#include "ecas/core/TimeModel.h"
#include "ecas/hw/Presets.h"
#include "ecas/power/Characterizer.h"
#include "ecas/power/MicroBenchmarks.h"
#include "ecas/support/Cancellation.h"
#include "ecas/support/Format.h"
#include "ecas/support/Random.h"

#include "TestSupport.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <limits>
#include <optional>
#include <string>
#include <thread>
#include <vector>

using namespace ecas;

TEST(Metric, StandardMetrics) {
  EXPECT_DOUBLE_EQ(Metric::energy().evaluate(10.0, 2.0), 20.0);
  EXPECT_DOUBLE_EQ(Metric::edp().evaluate(10.0, 2.0), 40.0);
  EXPECT_DOUBLE_EQ(Metric::ed2p().evaluate(10.0, 2.0), 80.0);
  EXPECT_EQ(Metric::edp().name(), "edp");
}

TEST(Metric, CustomAndFromMeasurement) {
  Metric Sqrt = Metric::custom("sqrtE", [](double W, double T) {
    return std::sqrt(W * T);
  });
  EXPECT_DOUBLE_EQ(Sqrt.evaluate(4.0, 1.0), 2.0);
  // fromMeasurement: E=20 J over 2 s -> P=10 W.
  EXPECT_DOUBLE_EQ(Metric::edp().fromMeasurement(20.0, 2.0), 40.0);
}

TEST(TimeModel, AlphaPerfBalancesDevices) {
  TimeModel Model(100.0, 300.0);
  EXPECT_DOUBLE_EQ(Model.alphaPerf(), 0.75);
  // At alpha_PERF both sides finish together; no tail.
  double N = 1000.0;
  EXPECT_NEAR(Model.remainingIters(N, 0.75), 0.0, 1e-9);
  EXPECT_NEAR(Model.totalTime(N, 0.75), N / 400.0, 1e-12);
}

TEST(TimeModel, ExtremesMatchSingleDevice) {
  TimeModel Model(100.0, 300.0);
  double N = 1200.0;
  EXPECT_NEAR(Model.totalTime(N, 0.0), N / 100.0, 1e-9);
  EXPECT_NEAR(Model.totalTime(N, 1.0), N / 300.0, 1e-9);
}

TEST(TimeModel, Equation4TailSelection) {
  TimeModel Model(100.0, 300.0);
  double N = 1000.0;
  // Below alpha_PERF the CPU has the tail.
  double Alpha = 0.5;
  double Tcg = Model.combinedTime(N, Alpha); // GPU side: 500/300 = 1.667
  EXPECT_NEAR(Tcg, 500.0 / 300.0, 1e-9);
  double Nrem = Model.remainingIters(N, Alpha);
  EXPECT_NEAR(Nrem, N - Tcg * 400.0, 1e-9);
  EXPECT_NEAR(Model.totalTime(N, Alpha), Tcg + Nrem / 100.0, 1e-9);
  // Above alpha_PERF the GPU has the tail.
  Alpha = 0.9;
  Tcg = Model.combinedTime(N, Alpha); // CPU side: 100/100 = 1.0
  EXPECT_NEAR(Tcg, 1.0, 1e-9);
  Nrem = Model.remainingIters(N, Alpha);
  EXPECT_NEAR(Model.totalTime(N, Alpha), Tcg + Nrem / 300.0, 1e-9);
}

TEST(TimeModel, PerfAlphaMinimizesTotalTime) {
  TimeModel Model(120.0, 280.0);
  double N = 5000.0;
  double Best = Model.totalTime(N, Model.alphaPerf());
  for (double Alpha = 0.0; Alpha <= 1.0 + 1e-9; Alpha += 0.01)
    EXPECT_GE(Model.totalTime(N, std::min(Alpha, 1.0)), Best - 1e-9);
}

TEST(TimeModel, ZeroGpuRateForcesCpu) {
  TimeModel Model(100.0, 0.0);
  EXPECT_DOUBLE_EQ(Model.alphaPerf(), 0.0);
  EXPECT_NEAR(Model.totalTime(1000.0, 0.0), 10.0, 1e-9);
}

TEST(AlphaSearch, FlatPowerPicksPerfForEdp) {
  // With constant power, minimizing EDP = P*T^2 is minimizing time.
  TimeModel Model(100.0, 300.0);
  PowerCurve Flat;
  Flat.Poly = Polynomial({50.0});
  PStateView View;
  View.Curve = &Flat;
  Decision Choice =
      chooseOperatingPoint(Model, &View, 1, Metric::edp(), 1000.0);
  EXPECT_NEAR(Choice.Point.Alpha, 0.8, 0.051); // Grid point nearest 0.75.
  EXPECT_EQ(Choice.Point.PState, 0u);
  EXPECT_EQ(Choice.Evaluations, 11u);
}

TEST(AlphaSearch, CheapGpuPullsEnergyTowardOne) {
  TimeModel Model(100.0, 300.0);
  // Power falls steeply with offload: GPU much more efficient.
  PowerCurve Falling;
  Falling.Poly = Polynomial({60.0, -35.0});
  PStateView View;
  View.Curve = &Falling;
  Decision Choice =
      chooseOperatingPoint(Model, &View, 1, Metric::energy(), 1000.0);
  EXPECT_GE(Choice.Point.Alpha, 0.9);
}

TEST(AlphaSearch, RefinementImprovesObjective) {
  TimeModel Model(100.0, 310.0);
  PowerCurve Curve;
  Curve.Poly = Polynomial({55.0, -10.0, 8.0});
  PStateView View;
  View.Curve = &Curve;
  OperatingPointSearchConfig Coarse;
  OperatingPointSearchConfig Fine;
  Fine.Refine = true;
  Decision A =
      chooseOperatingPoint(Model, &View, 1, Metric::edp(), 1e6, Coarse);
  Decision B = chooseOperatingPoint(Model, &View, 1, Metric::edp(), 1e6, Fine);
  EXPECT_LE(B.PredictedMetric, A.PredictedMetric + 1e-12);
}

TEST(OperatingPoint, CubicPowerMakesInteriorStateWin) {
  // Power falls roughly cubically with the clock while the rate falls
  // at most linearly, so for an energy objective some reduced state
  // beats full speed — the interior optimum motivating the DVFS axis.
  TimeModel Model(1e8, 3e8);
  PowerCurve Curves[3];
  PStateView Views[3];
  const double Scales[3] = {1.0, 0.8, 0.6};
  for (unsigned S = 0; S != 3; ++S) {
    double F = Scales[S];
    Curves[S].Poly = Polynomial({10.0 + 50.0 * F * F * F});
    Views[S].Curve = &Curves[S];
    Views[S].CpuFreqScale = F;
    Views[S].GpuFreqScale = F;
  }
  OperatingPointSearchConfig Config;
  Config.MemBoundFraction = 0.5; // time degrades sublinearly
  Decision Choice =
      chooseOperatingPoint(Model, Views, 3, Metric::energy(), 1e7, Config);
  EXPECT_GT(Choice.Point.PState, 0u);

  // Whatever the memory-boundness, the joint search can never lose to
  // the fixed full-speed search on the same model — state 0 is always
  // one of its candidates (the frontier-bench invariant).
  Config.MemBoundFraction = 0.0;
  Decision Joint =
      chooseOperatingPoint(Model, Views, 3, Metric::energy(), 1e7, Config);
  Decision Fixed =
      chooseOperatingPoint(Model, Views, 1, Metric::energy(), 1e7, Config);
  EXPECT_LE(Joint.PredictedMetric, Fixed.PredictedMetric + 1e-12);
}

TEST(OperatingPoint, RaceToIdleDiscountsTheIdleFloor) {
  // The idle floor is paid whether the kernel runs or not, so race-to-
  // idle scores (P - P_idle) * T. A state wins only by cutting the
  // above-floor increment faster than it stretches the run — here the
  // floor hides 40 W, so halving the clock cuts active power 4x for 2x
  // time, flipping the decision plain energy makes.
  TimeModel Model(1e8, 3e8);
  PowerCurve Curves[2];
  PStateView Views[2];
  const double Scales[2] = {1.0, 0.5};
  for (unsigned S = 0; S != 2; ++S) {
    double F = Scales[S];
    Curves[S].Poly = Polynomial({40.0 + 20.0 * F * F * F});
    Views[S].Curve = &Curves[S];
    Views[S].CpuFreqScale = F;
    Views[S].GpuFreqScale = F;
  }
  OperatingPointSearchConfig Config;
  Decision Plain =
      chooseOperatingPoint(Model, Views, 2, Metric::energy(), 1e7, Config);
  EXPECT_EQ(Plain.Point.PState, 0u); // 17.5 W saved is not worth 2x time

  Config.Policy = SchedulingPolicy::RaceToIdle;
  Config.IdleWatts = 40.0;
  Decision Raced =
      chooseOperatingPoint(Model, Views, 2, Metric::energy(), 1e7, Config);
  EXPECT_EQ(Raced.Point.PState, 1u);
  // Predicted consequences stay physical: true watts, not floor-relative.
  EXPECT_NEAR(Raced.PredictedWatts, Curves[1].powerAt(Raced.Point.Alpha),
              1e-12);

  // A mischaracterized floor above every P(alpha) clamps the active
  // power to a positive epsilon: the objective degenerates to time and
  // the search must race at full speed instead of inverting the order.
  Config.IdleWatts = 1000.0;
  Decision Clamped =
      chooseOperatingPoint(Model, Views, 2, Metric::energy(), 1e7, Config);
  EXPECT_EQ(Clamped.Point.PState, 0u);
}

TEST(OperatingPoint, PaceToDeadlineMinimizesEnergyAmongFeasible) {
  TimeModel Model(1e8, 3e8);
  PowerCurve Curves[2];
  PStateView Views[2];
  const double Scales[2] = {1.0, 0.5};
  for (unsigned S = 0; S != 2; ++S) {
    double F = Scales[S];
    Curves[S].Poly = Polynomial({10.0 + 50.0 * F * F * F});
    Views[S].Curve = &Curves[S];
    Views[S].CpuFreqScale = F;
    Views[S].GpuFreqScale = F;
  }
  OperatingPointSearchConfig Config;
  Config.MemBoundFraction = 0.3;
  Config.Policy = SchedulingPolicy::PaceToDeadline;

  // Loose deadline: everything is feasible, take the cheapest joules.
  Config.DeadlineSeconds = 10.0;
  Decision Loose =
      chooseOperatingPoint(Model, Views, 2, Metric::energy(), 1e7, Config);
  EXPECT_EQ(Loose.Point.PState, 1u);

  // Tight deadline: only full speed makes it; energy preference yields.
  Metric Perf = Metric::custom("time", [](double, double T) { return T; });
  Decision Fast = chooseOperatingPoint(Model, Views, 1, Perf, 1e7);
  Config.DeadlineSeconds = Fast.PredictedSeconds * 1.05;
  Decision Tight =
      chooseOperatingPoint(Model, Views, 2, Metric::energy(), 1e7, Config);
  EXPECT_EQ(Tight.Point.PState, 0u);
  EXPECT_LE(Tight.PredictedSeconds, Config.DeadlineSeconds);

  // Impossible deadline: no point is feasible; pick the least-late one
  // rather than failing, so the scheduler still returns a valid cell.
  Config.DeadlineSeconds = Fast.PredictedSeconds * 0.01;
  Decision Late =
      chooseOperatingPoint(Model, Views, 2, Metric::energy(), 1e7, Config);
  EXPECT_EQ(Late.Point.PState, 0u);
}

TEST(OperatingPoint, PolicyNamesRoundTrip) {
  EXPECT_EQ(schedulingPolicyByName("minimize"),
            SchedulingPolicy::MinimizeMetric);
  EXPECT_EQ(schedulingPolicyByName("race-to-idle"),
            SchedulingPolicy::RaceToIdle);
  EXPECT_EQ(schedulingPolicyByName("pace-to-deadline"),
            SchedulingPolicy::PaceToDeadline);
  EXPECT_FALSE(schedulingPolicyByName("overclock-to-eleven").has_value());
}

TEST(TimeModel, ScaledToAmdahlEndpoints) {
  TimeModel Model(1e8, 3e8);
  // beta = 0: fully compute-bound, rates scale linearly with the clock.
  TimeModel Linear = Model.scaledTo(0.5, 0.25, 0.0);
  EXPECT_DOUBLE_EQ(Linear.cpuRate(), 0.5e8);
  EXPECT_DOUBLE_EQ(Linear.gpuRate(), 0.75e8);
  // beta = 1: fully memory-bound, the clock is irrelevant.
  TimeModel Pinned = Model.scaledTo(0.5, 0.25, 1.0);
  EXPECT_DOUBLE_EQ(Pinned.cpuRate(), Model.cpuRate());
  EXPECT_DOUBLE_EQ(Pinned.gpuRate(), Model.gpuRate());
  // Interior beta lands strictly between the endpoints.
  TimeModel Mixed = Model.scaledTo(0.5, 0.5, 0.5);
  EXPECT_GT(Mixed.cpuRate(), Linear.cpuRate());
  EXPECT_LT(Mixed.cpuRate(), Model.cpuRate());
}

TEST(KernelHistory, LookupAndUpdate) {
  KernelHistory History;
  EXPECT_FALSE(findRecord(History, 42).has_value());
  History.update(42, [](KernelRecord &Record) {
    Record.Alpha.addSample(0.5, 10.0);
  });
  std::optional<KernelRecord> Found = findRecord(History, 42);
  ASSERT_TRUE(Found.has_value());
  EXPECT_NEAR(Found->Alpha.value(), 0.5, 1e-12);
  EXPECT_EQ(History.size(), 1u);
  History.clear();
  EXPECT_FALSE(findRecord(History, 42).has_value());
}

TEST(EasScheduler, SmallInvocationsRunCpuOnly) {
  PlatformSpec Spec = haswellDesktop();
  SimProcessor Proc(Spec);
  EasScheduler Scheduler(desktopFamily(), Metric::edp());
  KernelDesc Kernel = computeBoundMicroKernel();
  auto Outcome = Scheduler.execute(Proc, Kernel, 100.0);
  EXPECT_TRUE(Outcome.CpuOnlyFastPath);
  EXPECT_DOUBLE_EQ(Outcome.AlphaUsed, 0.0);
  EXPECT_FALSE(Outcome.Profiled);
}

TEST(EasScheduler, FirstLargeInvocationProfiles) {
  PlatformSpec Spec = haswellDesktop();
  SimProcessor Proc(Spec);
  EasScheduler Scheduler(desktopFamily(), Metric::edp());
  KernelDesc Kernel = computeBoundMicroKernel();
  auto First = Scheduler.execute(Proc, Kernel, 2e6);
  EXPECT_TRUE(First.Profiled);
  EXPECT_GT(First.ProfileRepetitions, 0u);
  // Second invocation reuses the table-G alpha without profiling.
  auto Second = Scheduler.execute(Proc, Kernel, 2e6);
  EXPECT_FALSE(Second.Profiled);
  EXPECT_EQ(Second.ProfileRepetitions, 0u);
  EXPECT_NEAR(Second.AlphaUsed, First.AlphaUsed, 0.2);
}

TEST(EasScheduler, TinyFirstInvocationDoesNotPinKernel) {
  PlatformSpec Spec = haswellDesktop();
  SimProcessor Proc(Spec);
  EasScheduler Scheduler(desktopFamily(), Metric::edp());
  KernelDesc Kernel = computeBoundMicroKernel();
  auto Tiny = Scheduler.execute(Proc, Kernel, 64.0);
  EXPECT_TRUE(Tiny.CpuOnlyFastPath);
  auto Large = Scheduler.execute(Proc, Kernel, 2e6);
  EXPECT_TRUE(Large.Profiled);
}

TEST(EasScheduler, GpuBiasedKernelGoesToGpu) {
  PlatformSpec Spec = haswellDesktop();
  SimProcessor Proc(Spec);
  EasScheduler Scheduler(desktopFamily(), Metric::energy());
  // Strongly GPU-biased compute kernel: EAS should offload nearly all.
  KernelDesc Kernel = computeBoundMicroKernel();
  Kernel.CpuCyclesPerIter *= 20.0;
  Kernel.CpuVectorizable = 0.0;
  Kernel.Name = "test.gpu_biased";
  Kernel.Id = 0;
  Kernel.withAutoId();
  auto Outcome = Scheduler.execute(Proc, Kernel, 5e6);
  EXPECT_GE(Outcome.AlphaUsed, 0.8);
}

TEST(EasScheduler, CpuBiasedKernelStaysOnCpu) {
  PlatformSpec Spec = haswellDesktop();
  SimProcessor Proc(Spec);
  EasScheduler Scheduler(desktopFamily(), Metric::energy());
  // FD-like: divergence destroys the GPU.
  KernelDesc Kernel = computeBoundMicroKernel();
  Kernel.GpuEfficiency = 0.02;
  Kernel.Name = "test.cpu_biased";
  Kernel.Id = 0;
  Kernel.withAutoId();
  auto Outcome = Scheduler.execute(Proc, Kernel, 5e6);
  EXPECT_LE(Outcome.AlphaUsed, 0.2);
}

TEST(ExecutionSession, FixedAlphaExtremesDiffer) {
  PlatformSpec Spec = haswellDesktop();
  ExecutionSession Session(Spec);
  KernelDesc Kernel = computeBoundMicroKernel();
  InvocationTrace Trace{{Kernel, 5e6}};
  RunOptions Options;
  Options.Trace = &Trace;
  Options.Objective = Metric::energy();
  SessionReport Cpu = Session.run(SchemeKind::CpuOnly, Options);
  SessionReport Gpu = Session.run(SchemeKind::GpuOnly, Options);
  EXPECT_GT(Cpu.Seconds, 0.0);
  EXPECT_GT(Gpu.Seconds, 0.0);
  // Desktop: the GPU is faster and cheaper on regular compute.
  EXPECT_LT(Gpu.Seconds, Cpu.Seconds);
  EXPECT_LT(Gpu.Joules, Cpu.Joules);
  EXPECT_EQ(Cpu.Kind, SchemeKind::CpuOnly);
  EXPECT_EQ(Gpu.Kind, SchemeKind::GpuOnly);
}

TEST(ExecutionSession, OracleBeatsOrMatchesEveryFixedAlpha) {
  PlatformSpec Spec = haswellDesktop();
  ExecutionSession Session(Spec);
  KernelDesc Kernel = memoryBoundMicroKernel();
  InvocationTrace Trace{{Kernel, 2e6}, {Kernel, 2e6}};
  RunOptions Options;
  Options.Trace = &Trace;
  Options.Objective = Metric::edp();
  SessionReport Oracle = Session.run(SchemeKind::Oracle, Options);
  for (double Alpha : {0.0, 0.3, 0.5, 0.7, 1.0}) {
    Options.Alpha = Alpha;
    SessionReport Fixed = Session.run(SchemeKind::FixedAlpha, Options);
    EXPECT_LE(Oracle.MetricValue, Fixed.MetricValue + 1e-9);
  }
}

TEST(ExecutionSession, PerfMinimizesTimeNotEnergy) {
  PlatformSpec Spec = haswellDesktop();
  ExecutionSession Session(Spec);
  KernelDesc Kernel = computeBoundMicroKernel();
  InvocationTrace Trace{{Kernel, 1e7}};
  RunOptions Options;
  Options.Trace = &Trace;
  Options.Objective = Metric::energy();
  SessionReport Perf = Session.run(SchemeKind::Perf, Options);
  for (double Alpha : {0.0, 0.2, 0.5, 0.8, 1.0}) {
    Options.Alpha = Alpha;
    SessionReport Fixed = Session.run(SchemeKind::FixedAlpha, Options);
    EXPECT_LE(Perf.Seconds, Fixed.Seconds + 1e-9);
  }
}

TEST(ExecutionSession, EasApproachesOracleOnEdp) {
  PlatformSpec Spec = haswellDesktop();
  ExecutionSession Session(Spec);
  KernelDesc Kernel = computeBoundMicroKernel();
  InvocationTrace Trace;
  for (int I = 0; I != 8; ++I)
    Trace.push_back({Kernel, 2e6});
  RunOptions Options;
  Options.Trace = &Trace;
  Options.Curves = &desktopCurves();
  Options.Objective = Metric::edp();
  SessionReport Oracle = Session.run(SchemeKind::Oracle, Options);
  SessionReport Eas = Session.run(SchemeKind::Eas, Options);
  ASSERT_GT(Eas.MetricValue, 0.0);
  double Efficiency = Oracle.MetricValue / Eas.MetricValue;
  EXPECT_GT(Efficiency, 0.75) << "EAS EDP efficiency too far from Oracle";
  EXPECT_TRUE(Eas.WasClassified);
}

TEST(EasScheduler, ExternalGpuBusyForcesCpuAlone) {
  // Section 5: "we test GPU performance counter A26 ... to check if it
  // is busy. In that case, we execute the application entirely on the
  // CPU."
  PlatformSpec Spec = haswellDesktop();
  SimProcessor Proc(Spec);
  EasScheduler Scheduler(desktopFamily(), Metric::edp());
  Scheduler.setExternalGpuBusy(true);
  KernelDesc Kernel = computeBoundMicroKernel();
  auto Outcome = Scheduler.execute(Proc, Kernel, 2e6);
  EXPECT_TRUE(Outcome.CpuOnlyFastPath);
  EXPECT_DOUBLE_EQ(Outcome.AlphaUsed, 0.0);
  EXPECT_FALSE(Outcome.Profiled);
  // Nothing was learned while the GPU belonged to someone else.
  EXPECT_FALSE(findRecord(Scheduler.history(), Kernel.Id).has_value());

  // Once the GPU frees up, the kernel profiles normally.
  Scheduler.setExternalGpuBusy(false);
  auto Fresh = Scheduler.execute(Proc, Kernel, 2e6);
  EXPECT_TRUE(Fresh.Profiled);
}

TEST(EasScheduler, PeriodicReprofilingTracksDriftingKernels) {
  PlatformSpec Spec = haswellDesktop();
  SimProcessor Proc(Spec);
  EasConfig Config;
  Config.ReprofileEveryInvocations = 4;
  EasScheduler Scheduler(desktopFamily(), Metric::edp(), Config);
  KernelDesc Kernel = computeBoundMicroKernel();
  unsigned Profiles = 0;
  for (int I = 0; I != 12; ++I) {
    auto Outcome = Scheduler.execute(Proc, Kernel, 2e6);
    if (Outcome.Profiled)
      ++Profiles;
  }
  // Invocation 0 profiles, then every 4th invocation re-profiles.
  EXPECT_GE(Profiles, 3u);
  EXPECT_LE(Profiles, 4u);
}

TEST(EasScheduler, NoReprofilingByDefault) {
  PlatformSpec Spec = haswellDesktop();
  SimProcessor Proc(Spec);
  EasScheduler Scheduler(desktopFamily(), Metric::edp());
  KernelDesc Kernel = computeBoundMicroKernel();
  unsigned Profiles = 0;
  for (int I = 0; I != 8; ++I)
    if (Scheduler.execute(Proc, Kernel, 2e6).Profiled)
      ++Profiles;
  EXPECT_EQ(Profiles, 1u);
}

/// Property sweep: for random throughput pairs, the analytical time
/// model obeys its invariants on the whole alpha range.
class TimeModelProperty : public ::testing::TestWithParam<unsigned> {};

TEST_P(TimeModelProperty, InvariantsHoldAcrossAlpha) {
  Xoshiro256 Rng(2024 + GetParam());
  double Rc = Rng.nextDouble(1e4, 1e9);
  double Rg = Rng.nextDouble(1e4, 1e9);
  double N = Rng.nextDouble(1e3, 1e8);
  TimeModel Model(Rc, Rg);
  double Combined = N / (Rc + Rg);
  double Best = Model.totalTime(N, Model.alphaPerf());
  for (double Alpha = 0.0; Alpha <= 1.0 + 1e-9; Alpha += 0.05) {
    double A = std::min(Alpha, 1.0);
    double T = Model.totalTime(N, A);
    // No split beats the combined-throughput lower bound...
    EXPECT_GE(T, Combined * (1.0 - 1e-9));
    // ...and alpha_PERF is the global minimizer.
    EXPECT_GE(T, Best * (1.0 - 1e-9));
    // The single-device extremes bound everything.
    EXPECT_LE(T, std::max(N / Rc, N / Rg) * (1.0 + 1e-9));
    // Remaining iterations are consistent with the combined phase.
    double Nrem = Model.remainingIters(N, A);
    EXPECT_GE(Nrem, -1e-6);
    EXPECT_LE(Nrem, N * (1.0 + 1e-12));
  }
}

INSTANTIATE_TEST_SUITE_P(RandomRates, TimeModelProperty,
                         ::testing::Range(0u, 24u));

TEST(TimeModel, DegenerateRatesAreSanitizedNotPropagated) {
  TimeModel FromNan(std::nan(""), std::nan(""));
  EXPECT_DOUBLE_EQ(FromNan.cpuRate(), 0.0);
  EXPECT_DOUBLE_EQ(FromNan.gpuRate(), 0.0);
  EXPECT_DOUBLE_EQ(FromNan.alphaPerf(), 0.0);
  // A dead model reports "effectively forever", never NaN, so alpha
  // objective comparisons stay well ordered.
  EXPECT_TRUE(std::isfinite(FromNan.totalTime(1e6, 0.5)));
  EXPECT_GE(FromNan.totalTime(1e6, 0.5), 1e29);

  TimeModel Negative(-5.0, 2.0);
  EXPECT_DOUBLE_EQ(Negative.cpuRate(), 0.0);
  EXPECT_DOUBLE_EQ(Negative.gpuRate(), 2.0);
  EXPECT_DOUBLE_EQ(Negative.alphaPerf(), 1.0);
}

TEST(AlphaSearch, DeadDevicesStillYieldAValidAlpha) {
  PowerCurve Curve;
  Curve.Poly = Polynomial({30.0});
  PStateView View;
  View.Curve = &Curve;
  Decision Choice = chooseOperatingPoint(TimeModel(0.0, 0.0), &View, 1,
                                         Metric::edp(), 1e6);
  EXPECT_GE(Choice.Point.Alpha, 0.0);
  EXPECT_LE(Choice.Point.Alpha, 1.0);
  EXPECT_TRUE(std::isfinite(Choice.PredictedMetric));

  // A NaN GPU probe (hung profiling run) must not poison the search:
  // every iteration lands on the device that still answers.
  Choice = chooseOperatingPoint(TimeModel(1e8, std::nan("")), &View, 1,
                                Metric::edp(), 1e6);
  EXPECT_DOUBLE_EQ(Choice.Point.Alpha, 0.0);
}

//===----------------------------------------------------------------------===//
// Differential test: one operating-point search per profiled invocation
//===----------------------------------------------------------------------===//

namespace {

/// What the reference loop decided and observed for one invocation.
struct ReferenceOutcome {
  double AlphaUsed = 0.0;
  unsigned PState = 0;
  WorkloadClass Class;
  bool HasPrediction = false;
  double PredictedSeconds = 0.0;
  double PredictedWatts = 0.0;
  double PredictedMetric = 0.0;
  unsigned ProfileRepetitions = 0;
  unsigned Searches = 0;
  unsigned LastEvaluations = 0;
  bool Cancelled = false;
  bool ProfileHang = false;
  bool ProfileLaunchFailed = false;
  /// Every usable repetition accumulated, one at a time and in order,
  /// onto a cold key's empty record: the sample table G must then hold.
  ProfileSample Merged;
};

/// The profiled path with the classify-and-search step inside the
/// repetition loop, as Fig. 7 draws it: search after every usable
/// repetition and keep the last answer. Mirrors EasScheduler's profiled
/// path for a cold kernel on a GPU healthy at entry — the early exits,
/// the health notes, and the remainder dispatch that can void the
/// prediction.
ReferenceOutcome referenceInvocation(SimProcessor &Proc,
                                     const PowerCurveFamily &Curves,
                                     const Metric &Objective,
                                     const EasConfig &Config,
                                     const KernelDesc &Kernel,
                                     double Iterations,
                                     const CancellationToken *Cancel) {
  ReferenceOutcome Out;
  GpuHealthMonitor Monitor(Config.Health);
  if (Config.PStates)
    Proc.pcu().clearFrequencyCap();
  auto Stop = [&] { return Cancel && Cancel->shouldStop(Proc.now()); };
  if (Stop()) {
    Out.Cancelled = true;
    return Out;
  }
  EXPECT_TRUE(Monitor.gpuUsable(Proc.now()));
  double ProfileSize = Config.GpuProfileSize > 0.0
                           ? Config.GpuProfileSize
                           : Proc.spec().defaultGpuProfileSize();
  OnlineProfiler Profiler(Proc, ProfileSize);
  Profiler.setWatchdogPollSec(Config.Health.WatchdogPollSec);
  ProfileSample Acc;
  double Alpha = 0.0;
  double Nrem = Iterations;
  while (Nrem > Iterations * Config.ProfileFraction) {
    if (Stop()) {
      Out.Cancelled = true;
      break;
    }
    ProfileSample Sample = Profiler.profileOnce(Kernel, Nrem);
    ++Out.ProfileRepetitions;
    if (Sample.GpuLaunchFailed) {
      Monitor.noteLaunchFailure(Proc.now());
      Out.ProfileLaunchFailed = true;
      break;
    }
    if (Sample.GpuHung) {
      Monitor.noteHang(Proc.now());
      Out.ProfileHang = true;
      Alpha = 0.0;
      break;
    }
    if (Sample.GpuIterations > 0.0)
      Monitor.noteGpuSuccess(Proc.now());
    if (Sample.ElapsedSeconds <= 0.0)
      break;
    Acc.accumulate(Sample);
    if (Acc.CpuThroughput <= 0.0 && Acc.GpuThroughput <= 0.0)
      break;

    Out.Class = Profiler.classify(Acc, Nrem, Config.Thresholds);
    unsigned NumViews = 1;
    if (Config.PStates)
      NumViews = std::min({Proc.spec().pstateCount(), Curves.numPStates(),
                           kMaxPStates});
    PStateView Views[kMaxPStates];
    PStateSpec Full = Proc.spec().pstateAt(0);
    for (unsigned S = 0; S != NumViews; ++S) {
      PStateSpec State = Proc.spec().pstateAt(S);
      Views[S].Curve = &Curves.stateCurves(S).curveFor(Out.Class);
      Views[S].CpuFreqScale = S == 0 || Full.CpuFreqGHz <= 0.0
                                  ? 1.0
                                  : State.CpuFreqGHz / Full.CpuFreqGHz;
      Views[S].GpuFreqScale = S == 0 || Full.GpuFreqGHz <= 0.0
                                  ? 1.0
                                  : State.GpuFreqGHz / Full.GpuFreqGHz;
    }
    OperatingPointSearchConfig Search;
    Search.Step = Config.AlphaStep;
    Search.Refine = Config.RefineAlpha;
    Search.Policy = Config.Policy;
    Search.DeadlineSeconds = Config.DeadlineSeconds;
    Search.IdleWatts = Config.IdleWatts;
    double Threshold = Config.Thresholds.MemoryIntensity;
    Search.MemBoundFraction =
        Threshold > 0.0 && Acc.MissPerLoadStore > 0.0
            ? std::min(Acc.MissPerLoadStore / Threshold, 1.0)
            : 0.0;
    Decision Choice = chooseOperatingPoint(
        TimeModel(Acc.CpuThroughput, Acc.GpuThroughput), Views, NumViews,
        Objective, std::max(Nrem, 1.0), Search);
    Alpha = Choice.Point.Alpha;
    Out.PState = Choice.Point.PState;
    ++Out.Searches;
    Out.LastEvaluations = Choice.Evaluations;
    Out.HasPrediction = true;
    Out.PredictedSeconds = Choice.PredictedSeconds;
    Out.PredictedWatts = Choice.PredictedWatts;
    Out.PredictedMetric = Choice.PredictedMetric;
  }

  if (!Out.Cancelled && Stop())
    Out.Cancelled = true;
  bool Voided = Out.ProfileHang;
  if (Nrem > 0.0 && !Out.Cancelled) {
    if (Config.PStates) {
      PStateSpec Cap = Proc.spec().pstateAt(Out.PState);
      Proc.pcu().setFrequencyCap(Cap.CpuFreqGHz, Cap.GpuFreqGHz);
    }
    PartitionOutcome Partition =
        runPartitionedResilient(Proc, Monitor, Kernel, Nrem, Alpha);
    Voided = Voided || Partition.HangDetected || Partition.QuarantineSkipped;
  }
  if (Voided)
    Out.HasPrediction = false;
  Out.AlphaUsed = Alpha;
  Out.Merged = Acc;
  return Out;
}

enum class ExitKind { None, Hang, LaunchFail, Cancel };

KernelDesc randomKernel(Xoshiro256 &Rng, unsigned Case) {
  KernelDesc Kernel;
  Kernel.Name = "differential-" + std::to_string(Case);
  Kernel.CpuCyclesPerIter = Rng.nextDouble(20.0, 600.0);
  Kernel.GpuCyclesPerIter = Rng.nextDouble(20.0, 600.0);
  Kernel.BytesPerIter = Rng.nextDouble(2.0, 96.0);
  Kernel.LoadStoresPerIter = Rng.nextDouble(1.0, 30.0);
  Kernel.LlcMissRatio = Rng.nextDouble(0.0, 0.8);
  Kernel.InstrsPerIter = Rng.nextDouble(40.0, 600.0);
  Kernel.GpuEfficiency = Rng.nextDouble(0.1, 1.0);
  Kernel.CpuVectorizable = Rng.nextDouble(0.0, 1.0);
  return Kernel.withAutoId();
}

} // namespace

// Searching once after the repetition loop must decide exactly what
// searching after every repetition decided: randomized kernels, sizes,
// metrics, policies, P-state counts and refinement, through every early
// exit (a hang, a refused launch, and a token firing mid-profile).
TEST(EasScheduler, OneSearchPerInvocationMatchesPerRepetitionSearch) {
  constexpr unsigned Cases = 240;
  const PlatformSpec &Spec = ladderSpec();
  const Metric Metrics[] = {Metric::energy(), Metric::edp(), Metric::ed2p()};
  const SchedulingPolicy Policies[] = {SchedulingPolicy::MinimizeMetric,
                                       SchedulingPolicy::RaceToIdle,
                                       SchedulingPolicy::PaceToDeadline};
  double MinIters = Spec.defaultGpuProfileSize();
  Xoshiro256 Rng(0x0e5ea7c4ULL);
  unsigned MultiSearch = 0, Hangs = 0, LaunchFails = 0, Cancels = 0;
  unsigned JointStates = 0;
  for (unsigned Case = 0; Case != Cases; ++Case) {
    KernelDesc Kernel = randomKernel(Rng, Case);
    ASSERT_TRUE(Kernel.valid());
    double Iterations = std::floor(
        std::exp(Rng.nextDouble(std::log(MinIters), std::log(2e6))));
    const Metric &Objective = Metrics[Rng.nextBounded(3)];
    EasConfig Config;
    Config.PStates = Rng.nextBounded(2) == 1;
    Config.RefineAlpha = Rng.nextBounded(2) == 1;
    SchedulingPolicy Policy = Policies[Rng.nextBounded(3)];
    ExitKind Exit = static_cast<ExitKind>(Rng.nextBounded(4));
    SCOPED_TRACE(formatString("case %u: n=%.0f metric=%s pstates=%d "
                              "refine=%d policy=%d exit=%d",
                              Case, Iterations, Objective.name().c_str(),
                              Config.PStates, Config.RefineAlpha,
                              static_cast<int>(Policy),
                              static_cast<int>(Exit)));

    // A healthy pilot run times the profiling phase and the remainder,
    // so faults, tokens and deadlines land inside them.
    EasScheduler::InvocationOutcome Pilot;
    {
      SimProcessor Proc(Spec);
      EasScheduler Scheduler(ladderFamily(), Objective, Config);
      Pilot = Scheduler.execute(Proc, Kernel, Iterations);
      ASSERT_TRUE(Pilot.Profiled);
    }
    Config.Policy = Policy;
    if (Policy == SchedulingPolicy::RaceToIdle)
      Config.IdleWatts = Rng.nextDouble(0.0, 20.0);
    if (Policy == SchedulingPolicy::PaceToDeadline)
      Config.DeadlineSeconds =
          std::max(Pilot.MeasuredSeconds, 1e-6) * Rng.nextDouble(0.5, 2.5);

    PlatformSpec Faulty = Spec;
    double ExitAt = Pilot.ProfileSeconds * Rng.nextDouble(0.05, 1.0);
    if (Exit == ExitKind::Hang || Exit == ExitKind::LaunchFail) {
      FaultEvent Event;
      Event.Kind = Exit == ExitKind::Hang ? FaultKind::GpuHang
                                          : FaultKind::GpuLaunchFail;
      Event.StartSec = Exit == ExitKind::Hang ? ExitAt : 0.0;
      Event.Probability =
          Exit == ExitKind::Hang ? 1.0 : Rng.nextDouble(0.002, 0.05);
      Faulty.Faults.setSeed(Rng.next());
      Faulty.Faults.addEvent(Event);
    }
    CancellationToken RefToken = CancellationToken::withDeadline(ExitAt);
    CancellationToken Token = CancellationToken::withDeadline(ExitAt);
    bool UseToken = Exit == ExitKind::Cancel;

    SimProcessor RefProc(Faulty);
    ReferenceOutcome Ref =
        referenceInvocation(RefProc, ladderFamily(), Objective, Config,
                            Kernel, Iterations, UseToken ? &RefToken : nullptr);

    SimProcessor Proc(Faulty);
    EasScheduler Scheduler(ladderFamily(), Objective, Config);
    EasScheduler::InvocationOutcome Got = Scheduler.execute(
        Proc, Kernel, Iterations, {}, UseToken ? &Token : nullptr);

    EXPECT_EQ(Got.AlphaUsed, Ref.AlphaUsed);
    EXPECT_EQ(Got.PState, Ref.PState);
    EXPECT_EQ(Got.Class.index(), Ref.Class.index());
    EXPECT_EQ(Got.HasPrediction, Ref.HasPrediction);
    EXPECT_EQ(Got.PredictedSeconds, Ref.PredictedSeconds);
    EXPECT_EQ(Got.PredictedWatts, Ref.PredictedWatts);
    EXPECT_EQ(Got.PredictedMetric, Ref.PredictedMetric);
    EXPECT_EQ(Got.ProfileRepetitions, Ref.ProfileRepetitions);
    EXPECT_EQ(Got.Cancelled, Ref.Cancelled);
    EXPECT_EQ(Got.AlphaSearches, Ref.Searches ? 1u : 0u);
    EXPECT_EQ(Got.AlphaEvaluations, Ref.LastEvaluations);

    MultiSearch += Ref.Searches > 1;
    Hangs += Ref.ProfileHang && Ref.Searches > 0;
    LaunchFails += Ref.ProfileLaunchFailed && Ref.Searches > 0;
    Cancels += Ref.Cancelled && Ref.ProfileRepetitions > 0;
    JointStates += Ref.PState > 0;
  }
  // Every early exit fired mid-profile, after at least one search, in
  // enough cases to matter; so did the joint search's lower states.
  EXPECT_GE(MultiSearch, Cases / 2);
  EXPECT_GE(Hangs, 10u);
  EXPECT_GE(LaunchFails, 10u);
  EXPECT_GE(Cancels, 10u);
  EXPECT_GE(JointStates, 10u);
}

// A cold profiled invocation merges its profiling into table G once, at
// the end. The record must then hold exactly what accumulating each
// repetition onto the looked-up record would, field for field and bit
// for bit: randomized kernels, sizes, objectives and P-state counts.
TEST(EasScheduler, ColdMergeMatchesPerRepetitionAccumulation) {
  constexpr unsigned Cases = 60;
  const PlatformSpec &Spec = ladderSpec();
  const Metric Metrics[] = {Metric::energy(), Metric::edp(), Metric::ed2p()};
  double MinIters = Spec.defaultGpuProfileSize();
  Xoshiro256 Rng(0x3e29e5a1ULL);
  for (unsigned Case = 0; Case != Cases; ++Case) {
    KernelDesc Kernel = randomKernel(Rng, Case);
    double Iterations = std::floor(
        std::exp(Rng.nextDouble(std::log(MinIters), std::log(2e6))));
    const Metric &Objective = Metrics[Rng.nextBounded(3)];
    EasConfig Config;
    Config.PStates = Rng.nextBounded(2) == 1;
    SCOPED_TRACE(formatString("case %u: n=%.0f pstates=%d", Case,
                              Iterations, Config.PStates));

    SimProcessor RefProc(Spec);
    ReferenceOutcome Ref =
        referenceInvocation(RefProc, ladderFamily(), Objective, Config,
                            Kernel, Iterations, nullptr);
    SimProcessor Proc(Spec);
    EasScheduler Scheduler(ladderFamily(), Objective, Config);
    ASSERT_TRUE(Scheduler.execute(Proc, Kernel, Iterations).Profiled);
    std::optional<KernelRecord> Rec =
        findRecord(Scheduler.history(), Kernel.Id);
    ASSERT_TRUE(Rec.has_value());

    auto Bits = [](double Value) { return std::bit_cast<uint64_t>(Value); };
    const ProfileSample &Got = Rec->Sample, &Want = Ref.Merged;
    EXPECT_EQ(Bits(Got.CpuThroughput), Bits(Want.CpuThroughput));
    EXPECT_EQ(Bits(Got.GpuThroughput), Bits(Want.GpuThroughput));
    EXPECT_EQ(Bits(Got.CpuIterations), Bits(Want.CpuIterations));
    EXPECT_EQ(Bits(Got.GpuIterations), Bits(Want.GpuIterations));
    EXPECT_EQ(Bits(Got.ElapsedSeconds), Bits(Want.ElapsedSeconds));
    EXPECT_EQ(Bits(Got.CpuBusySeconds), Bits(Want.CpuBusySeconds));
    EXPECT_EQ(Bits(Got.GpuBusySeconds), Bits(Want.GpuBusySeconds));
    EXPECT_EQ(Bits(Got.MissPerLoadStore), Bits(Want.MissPerLoadStore));
    EXPECT_EQ(Bits(Got.InstructionsRetired), Bits(Want.InstructionsRetired));
    EXPECT_EQ(Got.GpuLaunchFailed, Want.GpuLaunchFailed);
    EXPECT_EQ(Got.GpuHung, Want.GpuHung);
    EXPECT_GT(Got.ElapsedSeconds, 0.0);
  }
}

//===----------------------------------------------------------------------===//
// Batched repetitions: after each repetition that profileOnce() runs, the
// profiling loop charges the steady ones that follow in one batch
// (OnlineProfiler::profileReplayed). Driven in lockstep with a twin whose
// every repetition steps (steppedRepetition), the batched loop must leave
// the same accumulated samples, pool, repetition count and simulator
// state, bit for bit, after every batch.
//===----------------------------------------------------------------------===//

namespace {

/// What a profiling loop has built so far.
struct LoopState {
  /// The known sample with every repetition accumulated onto it, and the
  /// repetitions alone (EasScheduler's Local and Fresh).
  ProfileSample Local;
  ProfileSample Fresh;
  double Nrem = 0.0;
  unsigned Repetitions = 0;
  bool Stopped = false;
};

/// The stop check both loops make before each repetition: a token that
/// fires once \p FireAfter checks have come back false, and a virtual
/// deadline.
struct StopRule {
  StopRule(unsigned FireAfter, double DeadlineSec)
      : Token(CancellationToken::withDeadline(DeadlineSec)),
        FireAfter(FireAfter) {}
  bool operator()(double NowSec) {
    if (Checks++ == FireAfter)
      Token.cancel();
    return Token.shouldStop(NowSec);
  }
  CancellationToken Token;
  unsigned FireAfter;
  unsigned Checks = 0;
};

/// One pass of EasScheduler's profiling loop body (fault-free): a
/// repetition through profileOnce(), then the batch after it. False when
/// the loop ends.
bool batchedPass(SimProcessor &Proc, OnlineProfiler &Profiler,
                 const KernelDesc &Kernel, double Floor, LoopState &S,
                 StopRule &Stop) {
  if (!(S.Nrem > Floor))
    return false;
  if (Stop(Proc.now())) {
    S.Stopped = true;
    return false;
  }
  ProfileSample Sample = Profiler.profileOnce(Kernel, S.Nrem);
  ++S.Repetitions;
  if (Sample.ElapsedSeconds <= 0.0)
    return false;
  S.Local.accumulate(Sample);
  S.Fresh.accumulate(Sample);
  if (S.Local.CpuThroughput <= 0.0 && S.Local.GpuThroughput <= 0.0)
    return false;
  S.Repetitions += Profiler.profileReplayed(
      Kernel, S.Nrem, Floor, S.Local, S.Fresh,
      [&] { return Stop(Proc.now()); });
  return S.Local.CpuThroughput > 0.0 || S.Local.GpuThroughput > 0.0;
}

/// The same loop body with one repetition, \p Repeat(Nrem), and no
/// batch.
template <typename RepeatT>
bool singlePass(SimProcessor &Proc, const RepeatT &Repeat, double Floor,
                LoopState &S, StopRule &Stop) {
  if (!(S.Nrem > Floor))
    return false;
  if (Stop(Proc.now())) {
    S.Stopped = true;
    return false;
  }
  ProfileSample Sample = Repeat(S.Nrem);
  ++S.Repetitions;
  if (Sample.ElapsedSeconds <= 0.0)
    return false;
  S.Local.accumulate(Sample);
  S.Fresh.accumulate(Sample);
  return S.Local.CpuThroughput > 0.0 || S.Local.GpuThroughput > 0.0;
}

/// singlePass() with a stepped repetition.
bool steppedPass(SimProcessor &Proc, const KernelDesc &Kernel,
                 double ProfileSize, double Floor, LoopState &S,
                 StopRule &Stop) {
  return singlePass(
      Proc,
      [&](double &Nrem) {
        return steppedRepetition(Proc, Kernel, ProfileSize, Nrem);
      },
      Floor, S, Stop);
}

/// Every ProfileSample field as bits.
std::vector<uint64_t> sampleBits(const ProfileSample &S) {
  std::vector<uint64_t> Out;
  for (double V : {S.CpuThroughput, S.GpuThroughput, S.CpuIterations,
                   S.GpuIterations, S.ElapsedSeconds, S.CpuBusySeconds,
                   S.GpuBusySeconds, S.MissPerLoadStore,
                   S.InstructionsRetired})
    Out.push_back(std::bit_cast<uint64_t>(V));
  Out.push_back(S.GpuLaunchFailed);
  Out.push_back(S.GpuHung);
  return Out;
}

/// now(), the three meters and both devices' counters, as bits.
std::vector<uint64_t> processorBits(const SimProcessor &Proc) {
  std::vector<double> Values = {Proc.now()};
  for (const EnergyMeter *Meter :
       {&Proc.meter(), &Proc.pp0Meter(), &Proc.pp1Meter()}) {
    Values.push_back(Meter->totalJoules());
    Values.push_back(static_cast<double>(Meter->readMsr()));
  }
  for (const PerfCounters *C : {&Proc.cpu().counters(), &Proc.gpu().counters()})
    for (double V : {C->InstructionsRetired, C->LoadStores, C->LlcMisses,
                     C->IterationsDone, C->BytesTransferred, C->BusySeconds,
                     C->SetupSeconds})
      Values.push_back(V);
  std::vector<uint64_t> Out;
  for (double V : Values)
    Out.push_back(std::bit_cast<uint64_t>(V));
  return Out;
}

/// Everything the lockstep compares.
std::vector<uint64_t> loopBits(const LoopState &S, const SimProcessor &Proc) {
  std::vector<uint64_t> Out = sampleBits(S.Local);
  std::vector<uint64_t> Fresh = sampleBits(S.Fresh);
  std::vector<uint64_t> Sim = processorBits(Proc);
  Out.insert(Out.end(), Fresh.begin(), Fresh.end());
  Out.insert(Out.end(), Sim.begin(), Sim.end());
  Out.push_back(std::bit_cast<uint64_t>(S.Nrem));
  Out.push_back(S.Repetitions);
  Out.push_back(S.Stopped);
  return Out;
}

struct LockstepCase {
  std::string Name;
  PlatformSpec Spec;
  KernelDesc Kernel;
  double ProfileSize = 0.0;
  double Iterations = 0.0;
  double Floor = 0.0;
  /// Where the token fires and the virtual deadline falls, as fractions
  /// of the repetitions and the virtual time of the whole loop (never
  /// when negative).
  double FireAt = -1.0;
  double DeadlineAt = -1.0;
  /// Cap both clocks at 80% and hint the CPU to 60% of its turbo.
  bool CapAndHint = false;
  /// Profile once beforehand, so Local starts from a measured sample.
  bool Known = false;
};

struct LockstepResult {
  /// Empty when every batch matched.
  std::string Mismatch;
  unsigned Repetitions = 0;
  unsigned Batched = 0;
  bool Stopped = false;
};

/// Runs \p Case's profiling loop batched and stepped in lockstep,
/// comparing after every pass of the batched loop.
LockstepResult runLockstep(const LockstepCase &Case) {
  LockstepResult Result;
  SimProcessor A(Case.Spec), B(Case.Spec), Pilot(Case.Spec);
  for (SimProcessor *Proc : {&A, &B, &Pilot}) {
    if (!Case.CapAndHint)
      continue;
    Proc->pcu().setFrequencyCap(0.8 * Case.Spec.Cpu.MaxTurboGHz,
                                0.8 * Case.Spec.Gpu.MaxFreqGHz);
    Proc->cpu().setFrequencyHintGHz(0.6 * Case.Spec.Cpu.MaxTurboGHz);
  }
  // A pilot of the whole loop places the token and the deadline.
  unsigned FireAfter = ~0u;
  double DeadlineSec = std::numeric_limits<double>::infinity();
  {
    OnlineProfiler Profiler(Pilot, Case.ProfileSize);
    LoopState S;
    S.Nrem = Case.Iterations;
    StopRule Never(~0u, DeadlineSec);
    while (batchedPass(Pilot, Profiler, Case.Kernel, Case.Floor, S, Never)) {
    }
    if (Case.FireAt >= 0.0)
      FireAfter = static_cast<unsigned>(Case.FireAt * S.Repetitions);
    if (Case.DeadlineAt >= 0.0)
      DeadlineSec = Case.DeadlineAt * Pilot.now();
  }
  OnlineProfiler Profiler(A, Case.ProfileSize);
  LoopState SA, SB;
  if (Case.Known) {
    double Pool = Case.Iterations;
    SA.Local = Profiler.profileOnce(Case.Kernel, Pool);
    Pool = Case.Iterations;
    SB.Local =
        steppedRepetition(B, Case.Kernel, Case.ProfileSize, Pool);
  }
  SA.Nrem = SB.Nrem = Case.Iterations;
  StopRule StopA(FireAfter, DeadlineSec);
  StopRule StopB(FireAfter, DeadlineSec);
  for (unsigned Pass = 1;; ++Pass) {
    unsigned Before = SA.Repetitions;
    bool MoreA = batchedPass(A, Profiler, Case.Kernel, Case.Floor, SA, StopA);
    if (SA.Repetitions > Before + 1)
      Result.Batched += SA.Repetitions - Before - 1;
    bool MoreB = true;
    while (MoreB && (SB.Repetitions < SA.Repetitions || !MoreA))
      MoreB = steppedPass(B, Case.Kernel, Case.ProfileSize, Case.Floor, SB,
                          StopB);
    if (MoreA != MoreB || loopBits(SA, A) != loopBits(SB, B)) {
      Result.Mismatch = formatString(
          "%s: pass %u differs: repetitions %u vs %u, nrem %a vs %a, now "
          "%a vs %a, stopped %d vs %d, local cpu %a vs %a",
          Case.Name.c_str(), Pass, SA.Repetitions, SB.Repetitions, SA.Nrem,
          SB.Nrem, A.now(), B.now(), SA.Stopped, SB.Stopped,
          SA.Local.CpuIterations, SB.Local.CpuIterations);
      return Result;
    }
    if (!MoreA)
      break;
  }
  Result.Repetitions = SA.Repetitions;
  Result.Stopped = SA.Stopped;
  return Result;
}

} // namespace

TEST(OnlineProfiler, BatchedRepetitionsMatchSteppedLockstep) {
  Xoshiro256 Rng(0xba7c4edULL);
  std::vector<LockstepCase> Cases;
  unsigned Counter = 0;
  for (const PlatformSpec &Spec : {haswellDesktop(), bayTrailTablet()}) {
    double Default = Spec.defaultGpuProfileSize();
    double Threads = SimCpuDevice(Spec).effectiveThreads();
    std::vector<KernelDesc> Kernels;
    for (unsigned C = 0; C < WorkloadClass::NumClasses; C += 2)
      Kernels.push_back(
          makeMicroBenchmark(Spec, WorkloadClass::fromIndex(C)).Kernel);
    for (unsigned K = 0; K != 2; ++K)
      Kernels.push_back(randomKernel(Rng, 1000 + K));
    for (const KernelDesc &Kernel : Kernels) {
      for (double Size : {64.0, Default}) {
        auto Add = [&](const std::string &What) -> LockstepCase & {
          LockstepCase Case;
          Case.Name = formatString("%s/%s/size-%.0f/%s/%u",
                                   Spec.Name.c_str(), Kernel.Name.c_str(),
                                   Size, What.c_str(), Counter++);
          Case.Spec = Spec;
          Case.Kernel = Kernel;
          Case.ProfileSize = Size;
          Case.Iterations = std::floor(
              std::exp(Rng.nextDouble(std::log(Size * 8.0), std::log(4e7))));
          Case.Floor = 0.5 * Case.Iterations;
          Case.Known = Rng.nextBounded(2) == 1;
          Cases.push_back(Case);
          return Cases.back();
        };
        // A token fired after a seeded number of repetitions.
        Add("token").FireAt = Rng.nextDouble(0.0, 1.0);
        // A virtual deadline; most fall inside a would-be batch.
        Add("deadline").DeadlineAt = Rng.nextDouble(0.0, 1.0);
        // A floor somewhere in the pool, crossed mid-batch.
        LockstepCase &Floor = Add("floor");
        Floor.Floor = Floor.Iterations * Rng.nextDouble(0.05, 0.95);
        // No floor: the pool runs dry, the last chunks shrinking below
        // the profile size.
        Add("dry").Floor = 0.0;
        // A CPU so slow that it retires under one iteration a
        // repetition, and a pool whose last full chunk leaves it a share
        // below its thread count: only the rate check tells that share
        // from the full ones before it.
        LockstepCase &Thin = Add("thin-share");
        Thin.Kernel.CpuCyclesPerIter *= 1e4;
        Thin.Iterations = Size * static_cast<double>(3 + Rng.nextBounded(38)) +
                          Threads * Rng.nextDouble(0.1, 0.9);
        Thin.Floor = 0.0;
        LockstepCase &Capped = Add("cap-and-hint");
        Capped.CapAndHint = true;
        Capped.Floor = Capped.Iterations * Rng.nextDouble(0.0, 0.6);
        Capped.DeadlineAt = Rng.nextDouble(0.0, 1.2);
      }
    }
  }

  unsigned Repetitions = 0, Batched = 0, StoppedCases = 0;
  for (const LockstepCase &Case : Cases) {
    LockstepResult Result = runLockstep(Case);
    EXPECT_TRUE(Result.Mismatch.empty()) << Result.Mismatch;
    Repetitions += Result.Repetitions;
    Batched += Result.Batched;
    StoppedCases += Result.Stopped && Result.Repetitions > 0;
  }
  // The comparison means something only if most repetitions ran in
  // batches and the stop checks fired mid-loop.
  EXPECT_GT(Batched, Repetitions / 2)
      << Batched << " of " << Repetitions << " repetitions batched";
  EXPECT_GE(StoppedCases, Cases.size() / 4);
}

// The scheduler's own loop: cold invocations stopped by virtual
// deadlines, which land inside batches, or by nothing. Their profiling
// must leave table G's sample (the accumulated Local), the repetition
// count and the virtual time spent exactly as stepping every repetition
// does, and a stopped one the whole simulator state too.
TEST(EasScheduler, BatchedProfilingMatchesSteppedRepetitions) {
  Xoshiro256 Rng(0x5ca1ab1eULL);
  unsigned MidProfile = 0;
  for (unsigned Case = 0; Case != 48; ++Case) {
    const PlatformSpec &Spec =
        Case % 2 ? bayTrailTablet() : haswellDesktop();
    KernelDesc Kernel = randomKernel(Rng, 2000 + Case);
    double Size = Spec.defaultGpuProfileSize();
    double Iterations = std::floor(
        std::exp(Rng.nextDouble(std::log(Size * 8.0), std::log(4e7))));
    EasConfig Config;
    double Floor = Iterations * Config.ProfileFraction;
    // A stepped pilot of the whole loop places the deadline in it.
    SimProcessor Pilot(Spec);
    LoopState PilotLoop;
    PilotLoop.Nrem = Iterations;
    StopRule Never(~0u, std::numeric_limits<double>::infinity());
    while (steppedPass(Pilot, Kernel, Size, Floor, PilotLoop, Never)) {
    }
    double Deadline = Case % 4 == 3 ? std::numeric_limits<double>::infinity()
                                    : Pilot.now() * Rng.nextDouble(0.0, 1.0);
    SCOPED_TRACE(formatString("case %u: n=%.0f deadline=%g", Case,
                              Iterations, Deadline));
    SimProcessor Proc(Spec);
    CancellationToken Token = CancellationToken::withDeadline(Deadline);
    // The curves only steer the remainder, which nothing here compares.
    EasScheduler Scheduler(desktopFamily(), Metric::edp(), Config);
    EasScheduler::InvocationOutcome Got =
        Scheduler.execute(Proc, Kernel, Iterations, {}, &Token);

    SimProcessor Ref(Spec);
    LoopState S;
    S.Nrem = Iterations;
    StopRule Stop(~0u, Deadline);
    while (steppedPass(Ref, Kernel, Size, Floor, S, Stop)) {
    }
    ASSERT_TRUE(Got.Profiled);
    EXPECT_EQ(Got.ProfileRepetitions, S.Repetitions);
    EXPECT_EQ(std::bit_cast<uint64_t>(Got.ProfileSeconds),
              std::bit_cast<uint64_t>(Ref.now()));
    std::optional<KernelRecord> Rec =
        findRecord(Scheduler.history(), Kernel.Id);
    ASSERT_TRUE(Rec.has_value());
    if (S.Repetitions > 0) {
      EXPECT_EQ(sampleBits(Rec->Sample), sampleBits(S.Local));
    }
    if (S.Stopped) {
      EXPECT_TRUE(Got.Cancelled);
      EXPECT_EQ(processorBits(Proc), processorBits(Ref));
      MidProfile += S.Repetitions > 0;
    }
  }
  EXPECT_GE(MidProfile, 16u);
}

// A token cancelled from another thread lands at whatever stop check
// follows: the batched loop must then match one that runs every
// repetition through profileOnce(), stopped at that same check. (That
// one-at-a-time loop matches stepping, bit for bit:
// OnlineProfiler.ReplayedRepetitionsMatchSteppedBits. Stepping each of
// the many repetitions needed to give a cancel time to land would be
// slow under TSan.)
TEST(EasScheduler, BatchedProfilingCancelledFromAnotherThread) {
  const PlatformSpec &Spec = haswellDesktop();
  KernelDesc Kernel = computeBoundMicroKernel();
  Kernel.Name = "cross-thread-cancel";
  Kernel = Kernel.withAutoId();
  double Size = Spec.defaultGpuProfileSize();
  double Iterations = 2e9;
  EasConfig Config;

  // An uncancelled run times the invocation; the cancels aim inside its
  // profiling, moving later after one cancelled before any repetition and
  // earlier after one whose profiling ended before its cancel.
  auto Elapsed = [](std::chrono::steady_clock::time_point T0) {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         T0)
        .count();
  };
  double AimSec;
  {
    SimProcessor Proc(Spec);
    EasScheduler Scheduler(desktopFamily(), Metric::edp(), Config);
    auto T0 = std::chrono::steady_clock::now();
    ASSERT_TRUE(Scheduler.execute(Proc, Kernel, Iterations).Profiled);
    AimSec = Elapsed(T0);
  }
  Xoshiro256 Rng(0xc0ffeeULL);
  unsigned MidProfile = 0;
  for (unsigned Round = 0; Round != 64 && MidProfile < 2; ++Round) {
    SimProcessor Proc(Spec);
    EasScheduler Scheduler(desktopFamily(), Metric::edp(), Config);
    CancellationToken Token;
    std::atomic<bool> Ready{false}, Go{false};
    double DelaySec = AimSec * Rng.nextDouble(0.05, 0.9);
    std::thread Canceller([&] {
      Ready.store(true, std::memory_order_release);
      while (!Go.load(std::memory_order_acquire))
        std::this_thread::yield();
      auto T0 = std::chrono::steady_clock::now();
      while (Elapsed(T0) < DelaySec)
        std::this_thread::yield();
      Token.cancel();
    });
    while (!Ready.load(std::memory_order_acquire))
      std::this_thread::yield();
    Go.store(true, std::memory_order_release);
    EasScheduler::InvocationOutcome Got =
        Scheduler.execute(Proc, Kernel, Iterations, {}, &Token);
    Canceller.join();

    // The stop check after the last repetition fired, or none did and the
    // loop ran out of pool; a stepped loop whose token fires at that
    // check makes the same repetitions either way.
    SimProcessor Ref(Spec);
    OnlineProfiler OneAtATime(Ref, Size);
    LoopState S;
    S.Nrem = Iterations;
    StopRule Stop(Got.ProfileRepetitions,
                  std::numeric_limits<double>::infinity());
    while (singlePass(
        Ref,
        [&](double &Nrem) { return OneAtATime.profileOnce(Kernel, Nrem); },
        Iterations * Config.ProfileFraction, S, Stop)) {
    }
    ASSERT_EQ(Got.ProfileRepetitions, S.Repetitions) << "round " << Round;
    if (Got.Profiled) {
      EXPECT_EQ(std::bit_cast<uint64_t>(Got.ProfileSeconds),
                std::bit_cast<uint64_t>(Ref.now()));
      std::optional<KernelRecord> Rec =
          findRecord(Scheduler.history(), Kernel.Id);
      ASSERT_TRUE(Rec.has_value());
      if (S.Repetitions > 0) {
        EXPECT_EQ(sampleBits(Rec->Sample), sampleBits(S.Local));
      }
    }
    if (Got.Cancelled) {
      EXPECT_EQ(processorBits(Proc), processorBits(Ref));
    }
    if (S.Repetitions == 0)
      AimSec *= 1.5;
    else if (S.Stopped)
      ++MidProfile;
    else
      AimSec *= 0.5;
  }
  EXPECT_GE(MidProfile, 1u);
}
