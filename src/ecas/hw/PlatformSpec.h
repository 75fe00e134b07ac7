//===-- ecas/hw/PlatformSpec.h - Integrated CPU-GPU SKU specs --*- C++ -*-===//
//
// Part of the ecas project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Parameter sets describing an integrated CPU-GPU processor: device
/// micro-architecture (cores/EUs, frequency ranges), shared memory system,
/// per-component power coefficients, and the PCU governor policy. The
/// scheduler itself never reads these — it is black-box — but the
/// simulator substrate is built from them, and two presets reproduce the
/// paper's platforms (see Presets.cpp).
///
//===----------------------------------------------------------------------===//

#ifndef ECAS_HW_PLATFORMSPEC_H
#define ECAS_HW_PLATFORMSPEC_H

#include "ecas/fault/FaultPlan.h"
#include "ecas/support/Error.h"

#include <array>
#include <string>

namespace ecas {

/// Which side of the integrated processor a device sits on.
enum class DeviceKind { Cpu, Gpu };

/// CPU complex: cores, frequency envelope, and memory-latency behaviour.
struct CpuSpec {
  unsigned Cores = 4;
  unsigned ThreadsPerCore = 2;
  double MinFreqGHz = 0.8;
  double BaseFreqGHz = 3.4;
  /// All-core turbo ceiling when the CPU runs alone.
  double MaxTurboGHz = 3.6;
  /// Governor cap while the GPU is simultaneously active (integrated parts
  /// share the package thermal budget, so co-run turbo is lower).
  double CoRunMaxFreqGHz = 3.1;
  /// Frequency the governor resets to on an activity transition before
  /// ramping back up; the source of the paper's Fig. 4 power dips.
  double EfficiencyFreqGHz = 1.8;
  /// Vector lanes usable by data-parallel kernels (AVX2 = 8 floats).
  double SimdWidth = 8.0;
  /// Multiplier on per-iteration compute cycles: 1.0 for a wide
  /// out-of-order core; >1 for narrow in-order cores (Atom) that spend
  /// more cycles on the same work.
  double CyclesScale = 1.0;
  /// Average stall cycles charged per LLC miss...
  double MissPenaltyCycles = 180.0;
  /// ...divided by the achievable memory-level parallelism.
  double MemParallelism = 6.0;
};

/// GPU slice: execution units and frequency envelope.
struct GpuSpec {
  unsigned ExecutionUnits = 20;
  unsigned ThreadsPerEU = 7;
  unsigned SimdWidth = 16;
  double MinFreqGHz = 0.35;
  double MaxFreqGHz = 1.2;
  /// Fixed driver/dispatch cost charged per kernel enqueue, in seconds.
  double LaunchLatencySec = 20e-6;
};

/// Shared memory system.
struct MemorySpec {
  double BandwidthGBs = 25.6;
  double LlcMBytes = 8.0;
};

/// Dynamic + leakage power model for one device. Dynamic power follows
/// K * f^3 * activity — the cubic absorbs the voltage/frequency curve —
/// with the activity factor selected by what the device is doing.
struct DevicePowerSpec {
  double LeakageWatts = 2.0;
  double CubicWattsPerGHz3 = 0.8;
  double ComputeActivity = 1.0;
  /// Activity while memory-bound: cores stall, clock gating kicks in.
  double MemoryActivity = 0.75;
  double IdleActivity = 0.03;
};

/// Ring/LLC/memory-controller power: a floor plus a per-bandwidth term.
/// The per-bandwidth term is what makes memory-bound workloads *hotter*
/// than compute-bound ones on the desktop (Fig. 3) while the tablet's tiny
/// uncore inverts that relation (Fig. 6).
struct UncorePowerSpec {
  double BaseWatts = 4.0;
  double WattsPerGBs = 0.96;
};

/// Package power-control-unit policy. The scheduler treats all of this as
/// an opaque black box; only the simulator reads it.
struct PcuSpec {
  /// Sustained package budget the governor enforces by scaling frequency.
  double TdpWatts = 84.0;
  /// Governor decision epoch. Activity is re-sampled and frequency
  /// targets recomputed only on these boundaries.
  double SamplingIntervalSec = 0.02;
  /// Maximum upward frequency movement per epoch (downward moves are
  /// immediate). Short kernels therefore run below steady-state frequency.
  double RampUpGHzPerEpoch = 0.3;
  /// Under budget pressure, does the GPU keep its frequency (true, the
  /// desktop policy) or do both devices scale proportionally (false)?
  bool GpuPriority = true;
  /// RAPL MSR_PKG_ENERGY_STATUS least-significant-bit weight in joules.
  double EnergyUnitJoules = 61e-6;
};

/// One advertised P-state: the frequency ceilings the platform exposes
/// for DVFS-aware scheduling. Each state caps both device clocks; the
/// governor still moves freely below the cap (ramping, budget
/// enforcement, wake resets all apply unchanged).
struct PStateSpec {
  double CpuFreqGHz = 0.0;
  double GpuFreqGHz = 0.0;
};

/// A complete integrated-processor description.
struct PlatformSpec {
  /// Size of the fixed P-state table (kept equal to core kMaxPStates;
  /// EasScheduler.cpp static_asserts the pairing).
  static constexpr unsigned MaxPStates = 8;

  std::string Name;
  CpuSpec Cpu;
  GpuSpec Gpu;
  MemorySpec Memory;
  DevicePowerSpec CpuPower;
  DevicePowerSpec GpuPower;
  UncorePowerSpec Uncore;
  PcuSpec Pcu;
  /// Advertised P-state table, ordered fastest first (state 0 = full
  /// speed). PStateCount == 0 means the platform advertises no DVFS
  /// ladder — a single implicit full-speed state, the pre-P-state
  /// behaviour — so legacy spec files load bit-identically.
  std::array<PStateSpec, MaxPStates> PStates{};
  unsigned PStateCount = 0;
  /// Fault-injection plan driving the simulator built from this spec.
  /// Empty (the default) means no injection and bit-identical behaviour
  /// to a fault-free build. Deliberately not serialized: a spec file
  /// describes a platform, not a failure scenario.
  FaultPlan Faults;

  /// EUs x threads/EU x SIMD width: the work-item count needed to fill
  /// the GPU (2240 on the desktop preset, matching Section 3.2).
  unsigned gpuHardwareParallelism() const;

  /// Largest power of two not exceeding gpuHardwareParallelism(); the
  /// paper picks 2048 on the desktop this way (GPU_PROFILE_SIZE).
  unsigned defaultGpuProfileSize() const;

  /// Effective P-state count: at least 1 (the implicit full-speed state
  /// when the table is empty).
  unsigned pstateCount() const;

  /// The \p Index-th effective P-state. With an empty table, state 0 is
  /// the full-speed envelope {Cpu.MaxTurboGHz, Gpu.MaxFreqGHz}.
  PStateSpec pstateAt(unsigned Index) const;

  /// Synthesizes an N-entry ladder spanning each device's frequency
  /// envelope: state 0 at the top (MaxTurbo / GPU max), state N-1 at the
  /// floor, geometrically spaced in between. Used by ecas-cli --pstates
  /// for platforms whose spec files predate the table.
  void synthesizePStates(unsigned Count);

  /// Checks internal consistency (positive frequencies, ordered ranges,
  /// nonzero budgets, all scalars finite). On failure returns false and
  /// fills \p Error.
  bool validate(std::string &Error) const;

  /// Text round-trip (key = value lines) so characterization results can
  /// name the platform they were measured on.
  std::string serialize() const;

  /// Parses a serialized spec, returning a recoverable error naming the
  /// offending line for malformed input (unknown key, unparsable or
  /// non-finite value, failed validation).
  static ErrorOr<PlatformSpec> load(const std::string &Text);
};

} // namespace ecas

#endif // ECAS_HW_PLATFORMSPEC_H
