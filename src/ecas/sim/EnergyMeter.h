//===-- ecas/sim/EnergyMeter.h - RAPL MSR emulation -------------*- C++ -*-===//
//
// Part of the ecas project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Emulates MSR_PKG_ENERGY_STATUS: a 32-bit counter that accumulates
/// package energy in hardware "energy units" and wraps around. The
/// characterization code reads energy exactly the way the paper does —
/// sample the MSR, diff modulo 2^32, multiply by the unit — so it would
/// run unchanged against real RAPL.
///
//===----------------------------------------------------------------------===//

#ifndef ECAS_SIM_ENERGYMETER_H
#define ECAS_SIM_ENERGYMETER_H

#include "ecas/obs/Metrics.h"
#include "ecas/support/Assert.h"

#include <cmath>
#include <cstdint>

namespace ecas {

/// Accumulates energy deposits and exposes them as a wrapping 32-bit MSR.
///
/// Sampling-interval contract: joulesSince() recovers the true interval
/// energy if and only if the counter wrapped AT MOST ONCE between the two
/// samples, because a 32-bit difference is inherently modulo 2^32. With
/// the desktop unit (61 uJ) one full wrap is ~262 kJ — minutes at TDP —
/// so readers must sample at least that often. An interval spanning k >= 2
/// wraps aliases: the reader sees the true energy minus floor(k) counter
/// periods (one period is 2^32 energy units) and cannot detect the loss.
/// This mirrors real RAPL, where the kernel's polling thread exists
/// precisely to bound the sample interval; the fault injector's
/// RaplWrapJump event exercises the aliasing case deliberately.
class EnergyMeter {
public:
  explicit EnergyMeter(double EnergyUnitJoules);

  /// Adds \p Joules of package energy.
  void deposit(double Joules) { deposit(Joules, Joules / UnitJoules); }

  /// deposit() given \p Units == Joules / energyUnitJoules(), already
  /// computed by the caller. The simulator deposits a few distinct
  /// amounts over and over and computes each quotient once; inline, as
  /// every simulated slice makes three deposits.
  void deposit(double Joules, double Units) {
    ECAS_CHECK(Joules >= 0.0, "energy deposits cannot be negative");
    Total += Joules;
    Fraction += Units;
    double Whole = std::floor(Fraction);
    Fraction -= Whole;
    // Wraparound is the defined MSR behaviour; uint32_t addition provides
    // it.
    Counter += static_cast<uint32_t>(static_cast<uint64_t>(Whole) &
                                     0xffffffffULL);
  }

  /// Reads the emulated MSR_PKG_ENERGY_STATUS value.
  uint32_t readMsr() const {
    if (ReadCounter)
      ReadCounter->add();
    return Counter;
  }

  /// Observability hook (eas_msr_reads_total): when attached, every
  /// readMsr() bumps the counter, exposing the sampling cadence the
  /// wrap contract below depends on. Attach before concurrent use
  /// (ExecutionSession does, at run entry); purely observational — the
  /// MSR value returned is untouched.
  void setReadCounter(obs::Counter *C) { ReadCounter = C; }

  /// Joules represented by one counter increment.
  double energyUnitJoules() const { return UnitJoules; }

  /// Energy elapsed since an earlier MSR sample. Correct for intervals
  /// containing at most one wraparound (see the class contract above);
  /// intervals spanning k >= 2 wraps under-report by floor(k) periods.
  double joulesSince(uint32_t EarlierSample) const;

  /// Fault-injection hook: advances the raw counter by \p Units without
  /// touching the ground-truth total, emulating a glitched MSR read or an
  /// interval that silently spanned extra wraparounds.
  void injectCounterJump(uint64_t Units);

  /// Exact accumulated energy — ground truth for tests; real hardware has
  /// no equivalent, so library code other than tests must not use it.
  double totalJoules() const { return Total; }

private:
  double UnitJoules;
  double Total = 0.0;
  /// Sub-unit remainder awaiting the next counter increment.
  double Fraction = 0.0;
  uint32_t Counter = 0;
  obs::Counter *ReadCounter = nullptr;
};

} // namespace ecas

#endif // ECAS_SIM_ENERGYMETER_H
