//===-- ecas/power/PowerCurve.h - Characterization functions ---*- C++ -*-===//
//
// Part of the ecas project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The power characterization functions of Section 2: one sixth-order
/// polynomial P(alpha) per workload category mapping GPU offload ratio to
/// average package watts, plus the 8-slot set computed once per platform
/// and its text (de)serialization so characterization can be cached.
///
//===----------------------------------------------------------------------===//

#ifndef ECAS_POWER_POWERCURVE_H
#define ECAS_POWER_POWERCURVE_H

#include "ecas/math/Polynomial.h"
#include "ecas/profile/WorkloadClass.h"
#include "ecas/support/Error.h"
#include "ecas/support/HotPath.h"

#include <array>
#include <string>

namespace ecas {

/// One category's fitted power characterization function.
struct PowerCurve {
  WorkloadClass Class;
  Polynomial Poly;
  double RSquared = 0.0;

  /// Average package watts predicted at offload ratio \p Alpha, clamped
  /// to a small positive floor (a fitted polynomial can dip negative
  /// outside its sample range; power cannot).
  ECAS_HOT double powerAt(double Alpha) const;
};

/// The per-platform set of eight characterization functions.
class PowerCurveSet {
public:
  const std::string &platformName() const { return Platform; }
  void setPlatformName(std::string Name) { Platform = std::move(Name); }

  void setCurve(PowerCurve Curve);
  bool hasCurve(WorkloadClass Class) const;
  /// Requires hasCurve(Class).
  const PowerCurve &curveFor(WorkloadClass Class) const;

  /// True when all eight categories are present.
  bool complete() const;

  /// Text round-trip: "platform = ...\ncurve <idx> = c0 c1 ... r2=..".
  std::string serialize() const;

  /// Parses a serialized set, returning a recoverable error naming the
  /// offending line for malformed input: truncated curve lines, unknown
  /// class indices, non-finite coefficients, implausible coefficient
  /// counts. With \p RequireComplete, a set missing any of the eight
  /// categories fails with ErrCode::Incomplete — the signal
  /// characterization callers use to fall back to re-characterizing.
  static ErrorOr<PowerCurveSet> load(const std::string &Text,
                                     bool RequireComplete = false);

private:
  std::string Platform;
  std::array<PowerCurve, WorkloadClass::NumClasses> Curves;
  std::array<bool, WorkloadClass::NumClasses> Present = {};
};

/// P(alpha, f): one PowerCurveSet per P-state, extending the paper's
/// fixed-frequency P(alpha) along the DVFS axis (ROADMAP item 2). State
/// 0 is the full-speed characterization; the family is indexed by the
/// same P-state ordinal as PlatformSpec's table. A single-state family
/// is exactly the legacy behaviour, which is how pre-DVFS callers and
/// cached characterizations keep working unchanged.
class PowerCurveFamily {
public:
  static constexpr unsigned MaxPStates = 8;

  /// Wraps a legacy single-state characterization as state 0.
  static PowerCurveFamily fromSingle(PowerCurveSet Set);

  const std::string &platformName() const;

  unsigned numPStates() const { return Count; }

  /// Installs the characterization for P-state \p State; the family
  /// grows to cover it. States must be dense: installing state I
  /// requires I <= numPStates().
  void setStateCurves(unsigned State, PowerCurveSet Set);

  /// Requires State < numPStates().
  const PowerCurveSet &stateCurves(unsigned State) const;

  /// True when every state's set has all eight categories (and at least
  /// one state exists).
  bool complete() const;

  /// Text round-trip: "pstate = <idx>" delimiter lines, each followed by
  /// that state's PowerCurveSet chunk. A file with no pstate delimiter
  /// is a legacy single-state set, so cached characterizations from
  /// before the family load as state 0.
  std::string serialize() const;
  static ErrorOr<PowerCurveFamily> load(const std::string &Text,
                                        bool RequireComplete = false);

private:
  std::array<PowerCurveSet, MaxPStates> States;
  unsigned Count = 0;
};

} // namespace ecas

#endif // ECAS_POWER_POWERCURVE_H
