//===-- tests/TestSupport.h - Shared test fixtures --------------*- C++ -*-===//
//
// Part of the ecas project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Fixtures several test binaries share: the desktop characterization
/// (measured once per binary), the desktop with a 4-state DVFS ladder
/// and its coarse per-state characterization, a fault-injected desktop
/// spec, and a named kernel with a stable id.
///
//===----------------------------------------------------------------------===//

#ifndef ECAS_TESTS_TESTSUPPORT_H
#define ECAS_TESTS_TESTSUPPORT_H

#include "ecas/device/KernelDesc.h"
#include "ecas/fault/FaultPlan.h"
#include "ecas/hw/Presets.h"
#include "ecas/power/Characterizer.h"
#include "ecas/power/PowerCurve.h"

#include <gtest/gtest.h>

#include <string>

namespace ecas {

/// The healthy desktop's characterization. Characterization happens on
/// the healthy platform, before deployment, so fault-plan tests share it.
inline const PowerCurveSet &desktopCurves() {
  static PowerCurveSet Curves = Characterizer(haswellDesktop()).characterize();
  return Curves;
}

/// desktopCurves() as the single-state family EasScheduler takes.
inline const PowerCurveFamily &desktopFamily() {
  static PowerCurveFamily Family =
      PowerCurveFamily::fromSingle(desktopCurves());
  return Family;
}

/// The desktop with a 4-state DVFS ladder, for joint (alpha, P-state)
/// tests.
inline const PlatformSpec &ladderSpec() {
  static PlatformSpec Spec = [] {
    PlatformSpec S = haswellDesktop();
    S.synthesizePStates(4);
    return S;
  }();
  return Spec;
}

/// ladderSpec() characterized per state, coarsely: the tests using it
/// compare decision paths or count allocations, not curve quality.
inline const PowerCurveFamily &ladderFamily() {
  static PowerCurveFamily Family = [] {
    CharacterizerConfig Config;
    Config.AlphaStep = 0.25;
    Config.PolyDegree = 3;
    return characterizeFamily(ladderSpec(), Config);
  }();
  return Family;
}

/// The desktop with the built-in fault scenario \p Scenario attached.
inline PlatformSpec faultySpec(const std::string &Scenario) {
  PlatformSpec Spec = haswellDesktop();
  ErrorOr<FaultPlan> Plan = FaultPlan::scenario(Scenario);
  EXPECT_TRUE(Plan.ok()) << Scenario;
  Spec.Faults = *Plan;
  return Spec;
}

/// A kernel whose id is derived from \p Name.
inline KernelDesc namedKernel(const std::string &Name) {
  KernelDesc Kernel;
  Kernel.Name = Name;
  return Kernel.withAutoId();
}

} // namespace ecas

#endif // ECAS_TESTS_TESTSUPPORT_H
