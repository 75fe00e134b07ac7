//===-- tests/HwTest.cpp - hw/ unit tests ----------------------------------===//
//
// Part of the ecas project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "ecas/hw/Presets.h"

#include <gtest/gtest.h>

using namespace ecas;

TEST(PlatformSpec, PresetsValidate) {
  std::string Error;
  EXPECT_TRUE(haswellDesktop().validate(Error)) << Error;
  EXPECT_TRUE(bayTrailTablet().validate(Error)) << Error;
  EXPECT_EQ(allPresets().size(), 2u);
}

TEST(PlatformSpec, DesktopGeometryMatchesPaper) {
  PlatformSpec Spec = haswellDesktop();
  // Section 3.2: 20 EUs x 7 threads x 16-wide SIMD = 2240-way
  // parallelism, GPU_PROFILE_SIZE = 2048.
  EXPECT_EQ(Spec.gpuHardwareParallelism(), 2240u);
  EXPECT_EQ(Spec.defaultGpuProfileSize(), 2048u);
  EXPECT_EQ(Spec.Cpu.Cores, 4u);
  EXPECT_EQ(Spec.Cpu.ThreadsPerCore, 2u);
}

TEST(PlatformSpec, TabletGeometryMatchesPaper) {
  PlatformSpec Spec = bayTrailTablet();
  // 4 EUs x 7 threads x 16-wide SIMD = 448.
  EXPECT_EQ(Spec.gpuHardwareParallelism(), 448u);
  EXPECT_EQ(Spec.defaultGpuProfileSize(), 256u);
  EXPECT_DOUBLE_EQ(Spec.Gpu.MaxFreqGHz, 0.667);
}

TEST(PlatformSpec, SerializeRoundTrip) {
  PlatformSpec Spec = haswellDesktop();
  std::string Text = Spec.serialize();
  auto Restored = PlatformSpec::load(Text);
  ASSERT_TRUE(Restored.ok());
  EXPECT_EQ(Restored->Name, Spec.Name);
  EXPECT_EQ(Restored->Cpu.Cores, Spec.Cpu.Cores);
  EXPECT_DOUBLE_EQ(Restored->Cpu.MaxTurboGHz, Spec.Cpu.MaxTurboGHz);
  EXPECT_DOUBLE_EQ(Restored->GpuPower.CubicWattsPerGHz3,
                   Spec.GpuPower.CubicWattsPerGHz3);
  EXPECT_DOUBLE_EQ(Restored->Pcu.EnergyUnitJoules,
                   Spec.Pcu.EnergyUnitJoules);
  EXPECT_EQ(Restored->Pcu.GpuPriority, Spec.Pcu.GpuPriority);
  // Round-trip the round-trip: stable fixed point.
  EXPECT_EQ(Restored->serialize(), Text);
}

TEST(PlatformSpec, DeserializeRejectsGarbage) {
  EXPECT_FALSE(PlatformSpec::load("not a spec").ok());
  EXPECT_FALSE(PlatformSpec::load("bogus.key = 3\n").ok());
  EXPECT_FALSE(
      PlatformSpec::load("cpu.cores = banana\n").ok());
}

TEST(PlatformSpec, DeserializeSkipsCommentsAndBlanks) {
  PlatformSpec Spec = bayTrailTablet();
  std::string Text = "# a comment\n\n" + Spec.serialize();
  auto Restored = PlatformSpec::load(Text);
  ASSERT_TRUE(Restored.ok());
  EXPECT_EQ(Restored->Name, Spec.Name);
}

TEST(PlatformSpec, ValidateCatchesBadRanges) {
  PlatformSpec Spec = haswellDesktop();
  Spec.Cpu.MinFreqGHz = 5.0; // min > base
  std::string Error;
  EXPECT_FALSE(Spec.validate(Error));
  EXPECT_FALSE(Error.empty());

  Spec = haswellDesktop();
  Spec.Cpu.Cores = 0;
  EXPECT_FALSE(Spec.validate(Error));

  Spec = haswellDesktop();
  Spec.Memory.BandwidthGBs = -1.0;
  EXPECT_FALSE(Spec.validate(Error));

  Spec = haswellDesktop();
  Spec.Pcu.EnergyUnitJoules = 0.0;
  EXPECT_FALSE(Spec.validate(Error));

  Spec = haswellDesktop();
  Spec.CpuPower.ComputeActivity = 0.0;
  EXPECT_FALSE(Spec.validate(Error));
}

TEST(PlatformSpec, LoadReportsParseErrorsWithLineNumbers) {
  ErrorOr<PlatformSpec> Result = PlatformSpec::load("no equals sign");
  ASSERT_FALSE(Result.ok());
  EXPECT_EQ(Result.status().code(), ErrCode::ParseError);
  EXPECT_NE(Result.status().message().find("line 1"), std::string::npos);

  Result = PlatformSpec::load("name = x\nbogus.key = 3\n");
  ASSERT_FALSE(Result.ok());
  EXPECT_EQ(Result.status().code(), ErrCode::ParseError);
  EXPECT_NE(Result.status().message().find("line 2"), std::string::npos);
}

TEST(PlatformSpec, LoadRejectsNonFiniteValues) {
  // NaN passes ordinary range comparisons, so load() screens finiteness
  // explicitly before validate() ever sees the value.
  std::string Text = haswellDesktop().serialize();
  size_t Key = Text.find("pcu.energy_unit_joules");
  ASSERT_NE(Key, std::string::npos);
  size_t Eq = Text.find(" = ", Key);
  size_t End = Text.find('\n', Eq);
  Text.replace(Eq, End - Eq, " = nan");
  ErrorOr<PlatformSpec> Result = PlatformSpec::load(Text);
  ASSERT_FALSE(Result.ok());
  EXPECT_EQ(Result.status().code(), ErrCode::OutOfRange);
}

TEST(PlatformSpec, LoadRunsSemanticValidation) {
  // Structurally well-formed but semantically absurd specs surface
  // validate()'s message through the recoverable-error channel.
  PlatformSpec Spec = haswellDesktop();
  Spec.Cpu.Cores = 0;
  ErrorOr<PlatformSpec> Result = PlatformSpec::load(Spec.serialize());
  ASSERT_FALSE(Result.ok());
  EXPECT_EQ(Result.status().code(), ErrCode::InvalidArgument);
  EXPECT_FALSE(Result.status().message().empty());
}

TEST(PlatformSpec, PStateTableSerializeRoundTrip) {
  PlatformSpec Spec = haswellDesktop();
  Spec.synthesizePStates(4);
  std::string Error;
  ASSERT_TRUE(Spec.validate(Error)) << Error;

  auto Restored = PlatformSpec::load(Spec.serialize());
  ASSERT_TRUE(Restored.ok());
  EXPECT_EQ(Restored->PStateCount, 4u);
  for (unsigned I = 0; I != 4; ++I) {
    EXPECT_DOUBLE_EQ(Restored->PStates[I].CpuFreqGHz,
                     Spec.PStates[I].CpuFreqGHz);
    EXPECT_DOUBLE_EQ(Restored->PStates[I].GpuFreqGHz,
                     Spec.PStates[I].GpuFreqGHz);
  }
  EXPECT_EQ(Restored->serialize(), Spec.serialize());
}

TEST(PlatformSpec, EmptyPStateTableIsImplicitFullSpeed) {
  // Legacy specs advertise no ladder; the effective table is a single
  // full-speed state so pre-DVFS files load bit-identically.
  PlatformSpec Spec = haswellDesktop();
  EXPECT_EQ(Spec.PStateCount, 0u);
  EXPECT_EQ(Spec.pstateCount(), 1u);
  PStateSpec Full = Spec.pstateAt(0);
  EXPECT_DOUBLE_EQ(Full.CpuFreqGHz, Spec.Cpu.MaxTurboGHz);
  EXPECT_DOUBLE_EQ(Full.GpuFreqGHz, Spec.Gpu.MaxFreqGHz);
  // Out-of-range indices degrade to full speed rather than reading
  // stale table slots.
  EXPECT_DOUBLE_EQ(Spec.pstateAt(7).CpuFreqGHz, Spec.Cpu.MaxTurboGHz);
}

TEST(PlatformSpec, SynthesizedLadderSpansEnvelopeFastestFirst) {
  PlatformSpec Spec = haswellDesktop();
  Spec.synthesizePStates(5);
  EXPECT_EQ(Spec.pstateCount(), 5u);
  // Endpoints: ceiling at state 0, floor at the last state.
  EXPECT_DOUBLE_EQ(Spec.PStates[0].CpuFreqGHz, Spec.Cpu.MaxTurboGHz);
  EXPECT_DOUBLE_EQ(Spec.PStates[0].GpuFreqGHz, Spec.Gpu.MaxFreqGHz);
  EXPECT_NEAR(Spec.PStates[4].CpuFreqGHz, Spec.Cpu.MinFreqGHz, 1e-9);
  EXPECT_NEAR(Spec.PStates[4].GpuFreqGHz, Spec.Gpu.MinFreqGHz, 1e-9);
  // Strictly descending, and geometric: equal ratios between neighbours.
  double Ratio = Spec.PStates[1].CpuFreqGHz / Spec.PStates[0].CpuFreqGHz;
  for (unsigned I = 1; I != 5; ++I) {
    EXPECT_LT(Spec.PStates[I].CpuFreqGHz, Spec.PStates[I - 1].CpuFreqGHz);
    EXPECT_NEAR(Spec.PStates[I].CpuFreqGHz / Spec.PStates[I - 1].CpuFreqGHz,
                Ratio, 1e-9);
  }
  std::string Error;
  EXPECT_TRUE(Spec.validate(Error)) << Error;
  // Count is clamped to the table size, never silently dropped.
  Spec.synthesizePStates(99);
  EXPECT_EQ(Spec.pstateCount(), PlatformSpec::MaxPStates);
  EXPECT_TRUE(Spec.validate(Error)) << Error;
}

TEST(PlatformSpec, ValidateCatchesBadPStateTables) {
  std::string Error;

  // A clock above the envelope ceiling.
  PlatformSpec Spec = haswellDesktop();
  Spec.synthesizePStates(3);
  Spec.PStates[0].CpuFreqGHz = Spec.Cpu.MaxTurboGHz + 1.0;
  EXPECT_FALSE(Spec.validate(Error));
  EXPECT_NE(Error.find("pstate0"), std::string::npos);

  // Out-of-order ladder: state 1 faster than state 0.
  Spec = haswellDesktop();
  Spec.synthesizePStates(3);
  std::swap(Spec.PStates[0], Spec.PStates[1]);
  EXPECT_FALSE(Spec.validate(Error));
  EXPECT_NE(Error.find("must not raise"), std::string::npos);

  // Count beyond the fixed table.
  Spec = haswellDesktop();
  Spec.PStateCount = PlatformSpec::MaxPStates + 1;
  EXPECT_FALSE(Spec.validate(Error));
}
