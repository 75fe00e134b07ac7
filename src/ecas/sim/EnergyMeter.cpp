//===-- ecas/sim/EnergyMeter.cpp - RAPL MSR emulation ---------------------===//
//
// Part of the ecas project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "ecas/sim/EnergyMeter.h"

#include "ecas/support/Assert.h"

using namespace ecas;

EnergyMeter::EnergyMeter(double EnergyUnitJoules)
    : UnitJoules(EnergyUnitJoules) {
  ECAS_CHECK(EnergyUnitJoules > 0.0, "energy unit must be positive");
}

double EnergyMeter::joulesSince(uint32_t EarlierSample) const {
  uint32_t Delta = Counter - EarlierSample; // Modulo-2^32 by construction.
  return static_cast<double>(Delta) * UnitJoules;
}

void EnergyMeter::injectCounterJump(uint64_t Units) {
  Counter += static_cast<uint32_t>(Units & 0xffffffffULL);
}
