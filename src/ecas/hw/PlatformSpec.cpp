//===-- ecas/hw/PlatformSpec.cpp - Integrated CPU-GPU SKU specs -----------===//
//
// Part of the ecas project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "ecas/hw/PlatformSpec.h"

#include "ecas/support/Format.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <vector>

using namespace ecas;

unsigned PlatformSpec::gpuHardwareParallelism() const {
  return Gpu.ExecutionUnits * Gpu.ThreadsPerEU * Gpu.SimdWidth;
}

unsigned PlatformSpec::defaultGpuProfileSize() const {
  unsigned Parallelism = gpuHardwareParallelism();
  unsigned Pow2 = 1;
  while (Pow2 * 2 <= Parallelism)
    Pow2 *= 2;
  return Pow2;
}

unsigned PlatformSpec::pstateCount() const {
  return PStateCount == 0 ? 1 : PStateCount;
}

PStateSpec PlatformSpec::pstateAt(unsigned Index) const {
  if (PStateCount == 0 || Index >= PStateCount) {
    PStateSpec Full;
    Full.CpuFreqGHz = Cpu.MaxTurboGHz;
    Full.GpuFreqGHz = Gpu.MaxFreqGHz;
    return Full;
  }
  return PStates[Index];
}

void PlatformSpec::synthesizePStates(unsigned Count) {
  Count = std::min(std::max(Count, 1u), MaxPStates);
  PStateCount = Count;
  for (unsigned I = 0; I != MaxPStates; ++I)
    PStates[I] = PStateSpec{};
  for (unsigned I = 0; I != Count; ++I) {
    // Geometric ladder from each device's ceiling down to its floor:
    // equal frequency *ratios* between adjacent states, the shape real
    // DVFS tables use.
    double T = Count > 1 ? static_cast<double>(I) / (Count - 1) : 0.0;
    PStates[I].CpuFreqGHz =
        Cpu.MaxTurboGHz * std::pow(Cpu.MinFreqGHz / Cpu.MaxTurboGHz, T);
    PStates[I].GpuFreqGHz =
        Gpu.MaxFreqGHz * std::pow(Gpu.MinFreqGHz / Gpu.MaxFreqGHz, T);
  }
}

namespace {

/// One serializable scalar field: name plus load/store accessors.
struct FieldBinding {
  const char *Key;
  std::function<double(const PlatformSpec &)> Load;
  std::function<void(PlatformSpec &, double)> Store;
};

} // namespace

static std::vector<FieldBinding> fieldBindings();

bool PlatformSpec::validate(std::string &Error) const {
  auto Fail = [&Error](std::string Msg) {
    Error = std::move(Msg);
    return false;
  };
  if (Cpu.Cores == 0)
    return Fail("cpu.cores must be nonzero");
  if (Gpu.ExecutionUnits == 0 || Gpu.ThreadsPerEU == 0 || Gpu.SimdWidth == 0)
    return Fail("gpu geometry fields must be nonzero");
  if (!(Cpu.MinFreqGHz > 0.0) || Cpu.MinFreqGHz > Cpu.BaseFreqGHz ||
      Cpu.BaseFreqGHz > Cpu.MaxTurboGHz)
    return Fail("cpu frequency range must satisfy 0 < min <= base <= turbo");
  if (Cpu.CoRunMaxFreqGHz < Cpu.MinFreqGHz ||
      Cpu.CoRunMaxFreqGHz > Cpu.MaxTurboGHz)
    return Fail("cpu.corun_max_freq must lie within [min, turbo]");
  if (Cpu.EfficiencyFreqGHz < Cpu.MinFreqGHz ||
      Cpu.EfficiencyFreqGHz > Cpu.MaxTurboGHz)
    return Fail("cpu.efficiency_freq must lie within [min, turbo]");
  if (!(Gpu.MinFreqGHz > 0.0) || Gpu.MinFreqGHz > Gpu.MaxFreqGHz)
    return Fail("gpu frequency range must satisfy 0 < min <= max");
  if (!(Memory.BandwidthGBs > 0.0))
    return Fail("memory.bandwidth must be positive");
  if (!(Pcu.TdpWatts > 0.0))
    return Fail("pcu.tdp must be positive");
  if (!(Pcu.SamplingIntervalSec > 0.0))
    return Fail("pcu.sampling_interval must be positive");
  if (!(Pcu.EnergyUnitJoules > 0.0))
    return Fail("pcu.energy_unit must be positive");
  if (!(Pcu.RampUpGHzPerEpoch > 0.0))
    return Fail("pcu.ramp_up must be positive");
  for (const DevicePowerSpec *Power : {&CpuPower, &GpuPower}) {
    if (Power->LeakageWatts < 0.0 || Power->CubicWattsPerGHz3 < 0.0)
      return Fail("device power coefficients must be non-negative");
    if (Power->ComputeActivity <= 0.0 || Power->MemoryActivity <= 0.0)
      return Fail("device activity factors must be positive");
  }
  if (PStateCount > MaxPStates)
    return Fail("pstate.count exceeds the table size");
  for (unsigned I = 0; I != PStateCount; ++I) {
    if (PStates[I].CpuFreqGHz < Cpu.MinFreqGHz ||
        PStates[I].CpuFreqGHz > Cpu.MaxTurboGHz)
      return Fail(formatString(
          "pstate%u.cpu_freq_ghz must lie within [min, turbo]", I));
    if (PStates[I].GpuFreqGHz < Gpu.MinFreqGHz ||
        PStates[I].GpuFreqGHz > Gpu.MaxFreqGHz)
      return Fail(formatString(
          "pstate%u.gpu_freq_ghz must lie within [min, max]", I));
    // Fastest-first ordering backs the decision core's tie-break (lowest
    // index wins ties, which must mean "no slower than necessary").
    if (I > 0 && (PStates[I].CpuFreqGHz > PStates[I - 1].CpuFreqGHz ||
                  PStates[I].GpuFreqGHz > PStates[I - 1].GpuFreqGHz))
      return Fail(formatString(
          "pstate%u must not raise a clock above pstate%u", I, I - 1));
  }
  // Range checks above compare against NaN (always false), so a NaN can
  // slip through every one of them; sweep all scalar fields explicitly.
  for (const FieldBinding &Field : fieldBindings())
    if (!std::isfinite(Field.Load(*this)))
      return Fail(std::string(Field.Key) + " is not finite");
  return true;
}

static std::vector<FieldBinding> fieldBindings() {
  std::vector<FieldBinding> Fields;
  auto Add = [&Fields](const char *Key, auto Member) {
    Fields.push_back(
        {Key,
         [Member](const PlatformSpec &Spec) {
           return static_cast<double>(Spec.*Member);
         },
         [Member](PlatformSpec &Spec, double Value) {
           using MemberType = std::decay_t<decltype(Spec.*Member)>;
           Spec.*Member = static_cast<MemberType>(Value);
         }});
  };
  // Nested members need explicit lambdas; a small macro keeps the table
  // readable without inventing a reflection layer.
#define ECAS_FIELD(KEY, EXPR)                                                  \
  Fields.push_back({KEY,                                                       \
                    [](const PlatformSpec &Spec) {                             \
                      return static_cast<double>(Spec.EXPR);                   \
                    },                                                         \
                    [](PlatformSpec &Spec, double Value) {                     \
                      Spec.EXPR =                                              \
                          static_cast<std::decay_t<decltype(Spec.EXPR)>>(      \
                              Value);                                          \
                    }})
  ECAS_FIELD("cpu.cores", Cpu.Cores);
  ECAS_FIELD("cpu.threads_per_core", Cpu.ThreadsPerCore);
  ECAS_FIELD("cpu.min_freq_ghz", Cpu.MinFreqGHz);
  ECAS_FIELD("cpu.base_freq_ghz", Cpu.BaseFreqGHz);
  ECAS_FIELD("cpu.max_turbo_ghz", Cpu.MaxTurboGHz);
  ECAS_FIELD("cpu.corun_max_freq_ghz", Cpu.CoRunMaxFreqGHz);
  ECAS_FIELD("cpu.efficiency_freq_ghz", Cpu.EfficiencyFreqGHz);
  ECAS_FIELD("cpu.simd_width", Cpu.SimdWidth);
  ECAS_FIELD("cpu.cycles_scale", Cpu.CyclesScale);
  ECAS_FIELD("cpu.miss_penalty_cycles", Cpu.MissPenaltyCycles);
  ECAS_FIELD("cpu.mem_parallelism", Cpu.MemParallelism);
  ECAS_FIELD("gpu.execution_units", Gpu.ExecutionUnits);
  ECAS_FIELD("gpu.threads_per_eu", Gpu.ThreadsPerEU);
  ECAS_FIELD("gpu.simd_width", Gpu.SimdWidth);
  ECAS_FIELD("gpu.min_freq_ghz", Gpu.MinFreqGHz);
  ECAS_FIELD("gpu.max_freq_ghz", Gpu.MaxFreqGHz);
  ECAS_FIELD("gpu.launch_latency_sec", Gpu.LaunchLatencySec);
  ECAS_FIELD("memory.bandwidth_gbs", Memory.BandwidthGBs);
  ECAS_FIELD("memory.llc_mbytes", Memory.LlcMBytes);
  ECAS_FIELD("cpu_power.leakage_watts", CpuPower.LeakageWatts);
  ECAS_FIELD("cpu_power.cubic_watts_per_ghz3", CpuPower.CubicWattsPerGHz3);
  ECAS_FIELD("cpu_power.compute_activity", CpuPower.ComputeActivity);
  ECAS_FIELD("cpu_power.memory_activity", CpuPower.MemoryActivity);
  ECAS_FIELD("cpu_power.idle_activity", CpuPower.IdleActivity);
  ECAS_FIELD("gpu_power.leakage_watts", GpuPower.LeakageWatts);
  ECAS_FIELD("gpu_power.cubic_watts_per_ghz3", GpuPower.CubicWattsPerGHz3);
  ECAS_FIELD("gpu_power.compute_activity", GpuPower.ComputeActivity);
  ECAS_FIELD("gpu_power.memory_activity", GpuPower.MemoryActivity);
  ECAS_FIELD("gpu_power.idle_activity", GpuPower.IdleActivity);
  ECAS_FIELD("uncore.base_watts", Uncore.BaseWatts);
  ECAS_FIELD("uncore.watts_per_gbs", Uncore.WattsPerGBs);
  ECAS_FIELD("pcu.tdp_watts", Pcu.TdpWatts);
  ECAS_FIELD("pcu.sampling_interval_sec", Pcu.SamplingIntervalSec);
  ECAS_FIELD("pcu.ramp_up_ghz_per_epoch", Pcu.RampUpGHzPerEpoch);
  ECAS_FIELD("pcu.gpu_priority", Pcu.GpuPriority);
  ECAS_FIELD("pcu.energy_unit_joules", Pcu.EnergyUnitJoules);
  ECAS_FIELD("pstate.count", PStateCount);
  ECAS_FIELD("pstate0.cpu_freq_ghz", PStates[0].CpuFreqGHz);
  ECAS_FIELD("pstate0.gpu_freq_ghz", PStates[0].GpuFreqGHz);
  ECAS_FIELD("pstate1.cpu_freq_ghz", PStates[1].CpuFreqGHz);
  ECAS_FIELD("pstate1.gpu_freq_ghz", PStates[1].GpuFreqGHz);
  ECAS_FIELD("pstate2.cpu_freq_ghz", PStates[2].CpuFreqGHz);
  ECAS_FIELD("pstate2.gpu_freq_ghz", PStates[2].GpuFreqGHz);
  ECAS_FIELD("pstate3.cpu_freq_ghz", PStates[3].CpuFreqGHz);
  ECAS_FIELD("pstate3.gpu_freq_ghz", PStates[3].GpuFreqGHz);
  ECAS_FIELD("pstate4.cpu_freq_ghz", PStates[4].CpuFreqGHz);
  ECAS_FIELD("pstate4.gpu_freq_ghz", PStates[4].GpuFreqGHz);
  ECAS_FIELD("pstate5.cpu_freq_ghz", PStates[5].CpuFreqGHz);
  ECAS_FIELD("pstate5.gpu_freq_ghz", PStates[5].GpuFreqGHz);
  ECAS_FIELD("pstate6.cpu_freq_ghz", PStates[6].CpuFreqGHz);
  ECAS_FIELD("pstate6.gpu_freq_ghz", PStates[6].GpuFreqGHz);
  ECAS_FIELD("pstate7.cpu_freq_ghz", PStates[7].CpuFreqGHz);
  ECAS_FIELD("pstate7.gpu_freq_ghz", PStates[7].GpuFreqGHz);
#undef ECAS_FIELD
  (void)Add;
  return Fields;
}

std::string PlatformSpec::serialize() const {
  std::string Out = formatString("name = %s\n", Name.c_str());
  for (const FieldBinding &Field : fieldBindings())
    Out += formatString("%s = %.17g\n", Field.Key, Field.Load(*this));
  return Out;
}

ErrorOr<PlatformSpec> PlatformSpec::load(const std::string &Text) {
  PlatformSpec Spec;
  std::vector<FieldBinding> Fields = fieldBindings();
  unsigned LineNo = 0;
  for (const std::string &Line : splitString(Text, '\n')) {
    ++LineNo;
    if (Line.empty() || Line[0] == '#')
      continue;
    size_t Eq = Line.find('=');
    if (Eq == std::string::npos)
      return Status::error(
          ErrCode::ParseError,
          formatString("line %u: expected 'key = value'", LineNo));
    std::string Key = trimString(Line.substr(0, Eq));
    std::string Value = trimString(Line.substr(Eq + 1));
    if (Key == "name") {
      Spec.Name = Value;
      continue;
    }
    bool Known = false;
    for (const FieldBinding &Field : Fields) {
      if (Key != Field.Key)
        continue;
      double Parsed;
      if (!parseDouble(Value, Parsed))
        return Status::error(ErrCode::ParseError,
                             formatString("line %u: unparsable value '%s' for "
                                          "key '%s'",
                                          LineNo, Value.c_str(), Key.c_str()));
      if (!std::isfinite(Parsed))
        return Status::error(ErrCode::OutOfRange,
                             formatString("line %u: non-finite value for key "
                                          "'%s'",
                                          LineNo, Key.c_str()));
      Field.Store(Spec, Parsed);
      Known = true;
      break;
    }
    if (!Known)
      return Status::error(
          ErrCode::ParseError,
          formatString("line %u: unknown key '%s'", LineNo, Key.c_str()));
  }
  std::string Error;
  if (!Spec.validate(Error))
    return Status::error(ErrCode::InvalidArgument, Error);
  return Spec;
}
