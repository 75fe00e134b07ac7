//===-- tests/PowerTest.cpp - power/ unit tests ----------------------------===//
//
// Part of the ecas project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "ecas/hw/Presets.h"
#include "ecas/power/Characterizer.h"
#include "ecas/power/MicroBenchmarks.h"
#include "ecas/power/PowerCurve.h"

#include <gtest/gtest.h>

using namespace ecas;

TEST(PowerCurve, EvaluationClampsToPositive) {
  PowerCurve Curve;
  Curve.Poly = Polynomial({-5.0}); // Pathological all-negative fit.
  EXPECT_GT(Curve.powerAt(0.5), 0.0);
}

TEST(PowerCurveSet, SetAndLookup) {
  PowerCurveSet Set;
  EXPECT_FALSE(Set.complete());
  for (unsigned I = 0; I != WorkloadClass::NumClasses; ++I) {
    PowerCurve Curve;
    Curve.Class = WorkloadClass::fromIndex(I);
    Curve.Poly = Polynomial({static_cast<double>(I) + 1.0});
    Curve.RSquared = 0.9;
    Set.setCurve(Curve);
  }
  EXPECT_TRUE(Set.complete());
  for (unsigned I = 0; I != WorkloadClass::NumClasses; ++I)
    EXPECT_DOUBLE_EQ(Set.curveFor(WorkloadClass::fromIndex(I)).powerAt(0.3),
                     I + 1.0);
}

TEST(PowerCurveSet, SerializeRoundTrip) {
  PowerCurveSet Set;
  Set.setPlatformName("test-platform");
  PowerCurve Curve;
  Curve.Class = WorkloadClass::fromIndex(5);
  Curve.Poly = Polynomial({45.0, -3.0, 0.25, 1e-3});
  Curve.RSquared = 0.987;
  Set.setCurve(Curve);

  auto Restored = PowerCurveSet::load(Set.serialize());
  ASSERT_TRUE(Restored.ok());
  EXPECT_EQ(Restored->platformName(), "test-platform");
  ASSERT_TRUE(Restored->hasCurve(WorkloadClass::fromIndex(5)));
  const PowerCurve &Back = Restored->curveFor(WorkloadClass::fromIndex(5));
  EXPECT_DOUBLE_EQ(Back.RSquared, 0.987);
  for (double Alpha = 0.0; Alpha <= 1.0; Alpha += 0.25)
    EXPECT_DOUBLE_EQ(Back.powerAt(Alpha), Curve.powerAt(Alpha));
  EXPECT_FALSE(Restored->hasCurve(WorkloadClass::fromIndex(0)));
}

TEST(PowerCurveSet, DeserializeRejectsGarbage) {
  EXPECT_FALSE(PowerCurveSet::load("curve x = 1 2 3").ok());
  EXPECT_FALSE(PowerCurveSet::load("curve 99 = 1 r2 1").ok());
  EXPECT_FALSE(
      PowerCurveSet::load("curve 1 = a b r2 1").ok());
}

TEST(MicroBenchmarks, BaseKernelsAreValidAndOpposed) {
  KernelDesc Compute = computeBoundMicroKernel();
  KernelDesc Memory = memoryBoundMicroKernel();
  EXPECT_TRUE(Compute.valid());
  EXPECT_TRUE(Memory.valid());
  EXPECT_LT(Compute.memoryIntensity(), 0.33);
  EXPECT_GT(Memory.memoryIntensity(), 0.33);
}

TEST(MicroBenchmarks, ProbeRatesArePositiveAndOrdered) {
  PlatformSpec Spec = haswellDesktop();
  DeviceRates Rates = probeDeviceRates(Spec, computeBoundMicroKernel());
  EXPECT_GT(Rates.CpuItersPerSec, 0.0);
  EXPECT_GT(Rates.GpuItersPerSec, 0.0);
  // The desktop GPU outruns the CPU on regular compute (2-3x).
  EXPECT_GT(Rates.GpuItersPerSec, 1.5 * Rates.CpuItersPerSec);
  EXPECT_LT(Rates.GpuItersPerSec, 5.0 * Rates.CpuItersPerSec);
}

TEST(MicroBenchmarks, TabletRatesAreComparable) {
  PlatformSpec Spec = bayTrailTablet();
  DeviceRates Rates = probeDeviceRates(Spec, computeBoundMicroKernel());
  // Section 1: "on the Bay Trail, the processors have similar
  // performance".
  EXPECT_GT(Rates.GpuItersPerSec, 0.8 * Rates.CpuItersPerSec);
  EXPECT_LT(Rates.GpuItersPerSec, 3.0 * Rates.CpuItersPerSec);
}

/// Property sweep: every category's micro-benchmark must land its
/// single-device durations in the advertised short/long buckets.
class MicroDurations : public ::testing::TestWithParam<unsigned> {};

TEST_P(MicroDurations, DurationsMatchCategory) {
  WorkloadClass Class = WorkloadClass::fromIndex(GetParam());
  PlatformSpec Spec = haswellDesktop();
  MicroBenchmark Micro = makeMicroBenchmark(Spec, Class);
  ASSERT_TRUE(Micro.Kernel.valid());
  ASSERT_GT(Micro.Iterations, 0.0);

  DeviceRates Rates = probeDeviceRates(Spec, Micro.Kernel);
  double CpuSeconds = Micro.Iterations / Rates.CpuItersPerSec;
  double GpuSeconds = Micro.Iterations / Rates.GpuItersPerSec;
  if (Class.CpuDuration == DurationClass::Short)
    EXPECT_LT(CpuSeconds, 0.1) << Class.name();
  else
    EXPECT_GT(CpuSeconds, 0.1) << Class.name();
  if (Class.GpuDuration == DurationClass::Short)
    EXPECT_LT(GpuSeconds, 0.1) << Class.name();
  else
    EXPECT_GT(GpuSeconds, 0.1) << Class.name();
}

INSTANTIATE_TEST_SUITE_P(AllCategories, MicroDurations,
                         ::testing::Range(0u, 8u));

TEST(Characterizer, MeasuresSaneEndpoints) {
  PlatformSpec Spec = haswellDesktop();
  Characterizer Probe(Spec);
  WorkloadClass LongCompute = WorkloadClass::fromIndex(0); // C L L
  MicroBenchmark Micro = makeMicroBenchmark(Spec, LongCompute);
  PowerSamplePoint CpuAlone = Probe.measureAt(Micro, 0.0);
  PowerSamplePoint GpuAlone = Probe.measureAt(Micro, 1.0);
  // Paper calibration: ~45 W CPU-alone, ~30 W GPU-alone.
  EXPECT_NEAR(CpuAlone.AvgPackageWatts, 45.0, 4.0);
  EXPECT_NEAR(GpuAlone.AvgPackageWatts, 30.0, 4.0);
}

TEST(Characterizer, FitsCategoryWithGoodQuality) {
  PlatformSpec Spec = haswellDesktop();
  Characterizer Probe(Spec);
  std::vector<PowerSamplePoint> Samples;
  PowerCurve Curve =
      Probe.characterizeCategory(WorkloadClass::fromIndex(0), &Samples);
  EXPECT_EQ(Samples.size(), 11u);
  EXPECT_EQ(Curve.Poly.coefficients().size() - 1, 6u); // degree
  EXPECT_GT(Curve.RSquared, 0.90);
  // The curve should reproduce the sweep samples closely.
  for (const PowerSamplePoint &Point : Samples)
    EXPECT_NEAR(Curve.powerAt(Point.Alpha), Point.AvgPackageWatts,
                0.15 * Point.AvgPackageWatts + 1.0);
}

TEST(Characterizer, FullCharacterizationIsComplete) {
  // Tablet: smaller curves, faster sweep.
  PlatformSpec Spec = bayTrailTablet();
  Characterizer Probe(Spec);
  PowerCurveSet Set = Probe.characterize();
  EXPECT_TRUE(Set.complete());
  EXPECT_EQ(Set.platformName(), Spec.Name);
  // Round-trip through serialization.
  auto Restored = PowerCurveSet::load(Set.serialize());
  ASSERT_TRUE(Restored.ok());
  EXPECT_TRUE(Restored->complete());
}

TEST(Characterizer, CoarseSweepLowersFitOrder) {
  PlatformSpec Spec = bayTrailTablet();
  CharacterizerConfig Config;
  Config.AlphaStep = 0.25; // 5 samples: degree must drop to 4.
  Characterizer Probe(Spec, Config);
  PowerCurve Curve = Probe.characterizeCategory(WorkloadClass::fromIndex(0));
  EXPECT_LE(Curve.Poly.coefficients().size() - 1, 4u); // degree
}

TEST(Characterizer, DeterministicAcrossRuns) {
  PlatformSpec Spec = bayTrailTablet();
  Characterizer Probe(Spec);
  WorkloadClass Class = WorkloadClass::fromIndex(0);
  PowerCurve A = Probe.characterizeCategory(Class);
  PowerCurve B = Probe.characterizeCategory(Class);
  ASSERT_EQ(A.Poly.coefficients().size(), B.Poly.coefficients().size());
  for (size_t I = 0; I != A.Poly.coefficients().size(); ++I)
    EXPECT_DOUBLE_EQ(A.Poly.coefficients()[I], B.Poly.coefficients()[I]);
}

TEST(Characterizer, DesktopMemoryCurvesRunHotterAtCpuEnd) {
  // Fig. 5's platform signature: at alpha = 0 the memory-bound
  // categories sit well above the compute-bound ones.
  PlatformSpec Spec = haswellDesktop();
  Characterizer Probe(Spec);
  WorkloadClass ComputeLL = WorkloadClass::fromIndex(0); // C L L
  WorkloadClass MemoryLL = WorkloadClass::fromIndex(4);  // M L L
  PowerCurve Compute = Probe.characterizeCategory(ComputeLL);
  PowerCurve Memory = Probe.characterizeCategory(MemoryLL);
  EXPECT_GT(Memory.powerAt(0.0), Compute.powerAt(0.0) + 5.0);
}

TEST(Characterizer, TabletMemoryCurvesRunCoolerAtCpuEnd) {
  // Fig. 6's inversion: the tablet's memory-bound curves sit *below*
  // the compute-bound ones.
  PlatformSpec Spec = bayTrailTablet();
  Characterizer Probe(Spec);
  PowerCurve Compute =
      Probe.characterizeCategory(WorkloadClass::fromIndex(0));
  PowerCurve Memory =
      Probe.characterizeCategory(WorkloadClass::fromIndex(4));
  EXPECT_LT(Memory.powerAt(0.0), Compute.powerAt(0.0));
}

TEST(MicroBenchmarks, ShortCategoriesRepeatWithGaps) {
  PlatformSpec Spec = haswellDesktop();
  MicroBenchmark Short =
      makeMicroBenchmark(Spec, WorkloadClass::fromIndex(3)); // C S S
  MicroBenchmark Long =
      makeMicroBenchmark(Spec, WorkloadClass::fromIndex(0)); // C L L
  EXPECT_GT(Short.Repetitions, 1u);
  EXPECT_GT(Short.GapSeconds, 0.0);
  EXPECT_EQ(Long.Repetitions, 1u);
}

TEST(MicroBenchmarks, AdaptiveShapingHandlesExoticSku) {
  // A GPU monster: fixed shaping cannot make it the "long" device, so
  // the escalation loop must kick in rather than abort.
  PlatformSpec Spec = haswellDesktop();
  Spec.Gpu.ExecutionUnits = 96;
  WorkloadClass CpuBiased; // memory / cpu-short / gpu-long
  CpuBiased.Bound = Boundedness::Memory;
  CpuBiased.CpuDuration = DurationClass::Short;
  CpuBiased.GpuDuration = DurationClass::Long;
  MicroBenchmark Micro = makeMicroBenchmark(Spec, CpuBiased);
  DeviceRates Rates = probeDeviceRates(Spec, Micro.Kernel);
  EXPECT_LT(Micro.Iterations / Rates.CpuItersPerSec, 0.1);
  EXPECT_GT(Micro.Iterations / Rates.GpuItersPerSec, 0.1);
}

TEST(PowerCurveSet, LoadNamesTheOffendingLine) {
  // Missing "r2 <value>" tail: the file was cut short mid-write.
  ErrorOr<PowerCurveSet> Result =
      PowerCurveSet::load("platform = p\ncurve 1 = 40 2 3\n");
  ASSERT_FALSE(Result.ok());
  EXPECT_EQ(Result.status().code(), ErrCode::Truncated);
  EXPECT_NE(Result.status().message().find("line 2"), std::string::npos);
}

TEST(PowerCurveSet, LoadDistinguishesErrorCauses) {
  // Unknown workload-class tag.
  ErrorOr<PowerCurveSet> Result =
      PowerCurveSet::load("curve 12 = 40 r2 0.9\n");
  ASSERT_FALSE(Result.ok());
  EXPECT_EQ(Result.status().code(), ErrCode::OutOfRange);

  // Non-finite coefficient: NaN would sail through powerAt() otherwise.
  Result = PowerCurveSet::load("curve 2 = 40 nan 3 r2 0.9\n");
  ASSERT_FALSE(Result.ok());
  EXPECT_EQ(Result.status().code(), ErrCode::OutOfRange);

  // Unparsable coefficient is a syntax problem, not a range problem.
  Result = PowerCurveSet::load("curve 2 = 40 two r2 0.9\n");
  ASSERT_FALSE(Result.ok());
  EXPECT_EQ(Result.status().code(), ErrCode::ParseError);
}

TEST(PowerCurveSet, RequireCompleteFlagsMissingCategories) {
  PowerCurveSet Partial;
  PowerCurve Curve;
  Curve.Class = WorkloadClass::fromIndex(3);
  Curve.Poly = Polynomial({42.0});
  Curve.RSquared = 0.9;
  Partial.setCurve(Curve);
  std::string Text = Partial.serialize();

  // A partial set is fine for incremental characterization...
  EXPECT_TRUE(PowerCurveSet::load(Text).ok());
  // ...but a deployment load demanding all 8 categories must fail with
  // a recoverable, descriptive error (the re-characterize signal).
  ErrorOr<PowerCurveSet> Result =
      PowerCurveSet::load(Text, /*RequireComplete=*/true);
  ASSERT_FALSE(Result.ok());
  EXPECT_EQ(Result.status().code(), ErrCode::Incomplete);
  EXPECT_NE(Result.status().message().find("1 of 8"), std::string::npos);
}

namespace {

/// A complete curve set whose constant term encodes (State, Class) so a
/// round-trip mix-up between states or categories is detectable.
PowerCurveSet stampedSet(unsigned State) {
  PowerCurveSet Set;
  Set.setPlatformName("family-platform");
  for (unsigned I = 0; I != WorkloadClass::NumClasses; ++I) {
    PowerCurve Curve;
    Curve.Class = WorkloadClass::fromIndex(I);
    Curve.Poly = Polynomial({100.0 * State + I + 1.0, -0.5});
    Curve.RSquared = 0.95;
    Set.setCurve(Curve);
  }
  return Set;
}

} // namespace

TEST(PowerCurveFamily, SerializeRoundTripAllStates) {
  PowerCurveFamily Family;
  for (unsigned State = 0; State != 3; ++State)
    Family.setStateCurves(State, stampedSet(State));
  ASSERT_TRUE(Family.complete());

  ErrorOr<PowerCurveFamily> Back =
      PowerCurveFamily::load(Family.serialize(), /*RequireComplete=*/true);
  ASSERT_TRUE(Back.ok()) << Back.status().toString();
  EXPECT_EQ(Back->numPStates(), 3u);
  EXPECT_EQ(Back->platformName(), "family-platform");
  for (unsigned State = 0; State != 3; ++State)
    for (unsigned I = 0; I != WorkloadClass::NumClasses; ++I)
      EXPECT_DOUBLE_EQ(
          Back->stateCurves(State)
              .curveFor(WorkloadClass::fromIndex(I))
              .powerAt(0.0),
          100.0 * State + I + 1.0);
}

TEST(PowerCurveFamily, LegacySingleSetTextLoadsAsStateZero) {
  // A cached pre-DVFS characterization has no "pstate =" delimiter; it
  // must load as a one-state family so old deployments keep working.
  std::string Legacy = stampedSet(0).serialize();
  ASSERT_EQ(Legacy.find("pstate"), std::string::npos);
  ErrorOr<PowerCurveFamily> Family = PowerCurveFamily::load(Legacy);
  ASSERT_TRUE(Family.ok()) << Family.status().toString();
  EXPECT_EQ(Family->numPStates(), 1u);
  EXPECT_DOUBLE_EQ(Family->stateCurves(0)
                       .curveFor(WorkloadClass::fromIndex(4))
                       .powerAt(0.0),
                   5.0);
}

TEST(PowerCurveFamily, FromSingleWrapsLegacySet) {
  PowerCurveFamily Family = PowerCurveFamily::fromSingle(stampedSet(0));
  EXPECT_EQ(Family.numPStates(), 1u);
  EXPECT_TRUE(Family.complete());
  EXPECT_EQ(Family.platformName(), "family-platform");
}

TEST(Characterizer, FamilyStatesMeasureDistinctPower) {
  // Characterizing a 3-state ladder must produce genuinely different
  // P(alpha) per state — capped clocks draw less — with full speed the
  // hottest, or the joint search would have nothing to trade off.
  PlatformSpec Spec = haswellDesktop();
  Spec.synthesizePStates(3);
  CharacterizerConfig Config;
  Config.AlphaStep = 0.5;
  Config.PolyDegree = 2;
  PowerCurveFamily Family = characterizeFamily(Spec, Config);
  ASSERT_EQ(Family.numPStates(), 3u);
  ASSERT_TRUE(Family.complete());
  WorkloadClass CC = classifyWorkload(0.01, 0.01, 0.01);
  double P0 = Family.stateCurves(0).curveFor(CC).powerAt(0.5);
  double P1 = Family.stateCurves(1).curveFor(CC).powerAt(0.5);
  double P2 = Family.stateCurves(2).curveFor(CC).powerAt(0.5);
  EXPECT_GT(P0, P1);
  EXPECT_GT(P1, P2);
}
