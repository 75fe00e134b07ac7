//===-- ecas/math/Minimize.h - 1-D minimization primitives -----*- C++ -*-===//
//
// Part of the ecas project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One-dimensional minimizers used by the alpha search of Section 3.2.
/// The paper evaluates the objective on a fixed grid (0.1 or 0.05 steps);
/// we implement that, plus a golden-section refinement around the best
/// grid cell as an extension ablation.
///
/// The minimizers are templates over the objective callable rather than
/// taking std::function: chooseOperatingPoint() sits on the ECAS_HOT
/// decision path, and wrapping its reference-capturing lambda in a
/// std::function exceeds libstdc++'s 16-byte small-buffer optimization —
/// one heap allocation per alpha search (caught by the AllocGuard
/// regression and ecas-hotpath's alloc rule; see DESIGN.md §14).
///
//===----------------------------------------------------------------------===//

#ifndef ECAS_MATH_MINIMIZE_H
#define ECAS_MATH_MINIMIZE_H

#include "ecas/support/Assert.h"
#include "ecas/support/HotPath.h"

#include <algorithm>
#include <cmath>

namespace ecas {

/// Outcome of a scalar minimization.
struct MinResult {
  double ArgMin = 0.0;
  double Value = 0.0;
  unsigned Evaluations = 0;
};

/// Evaluates \p Fn at Lo, Lo+Step, ..., Hi (inclusive, with the last point
/// clamped to Hi) and returns the minimizing sample. Ties keep the
/// smallest argument, matching the deterministic behaviour expected by
/// the scheduler's regression tests.
template <typename FnT>
ECAS_HOT MinResult minimizeOnGrid(const FnT &Fn, double Lo, double Hi,
                                  double Step) {
  ECAS_CHECK(Lo <= Hi, "minimizeOnGrid requires Lo <= Hi");
  ECAS_CHECK(Step > 0.0, "minimizeOnGrid requires a positive step");
  MinResult Result;
  Result.ArgMin = Lo;
  Result.Value = Fn(Lo);
  Result.Evaluations = 1;
  bool ReachedHi = (Lo == Hi);
  for (double X = Lo + Step; !ReachedHi; X += Step) {
    if (X >= Hi - 1e-12 * std::max(1.0, std::fabs(Hi))) {
      X = Hi;
      ReachedHi = true;
    }
    double Y = Fn(X);
    ++Result.Evaluations;
    if (Y < Result.Value) {
      Result.Value = Y;
      Result.ArgMin = X;
    }
  }
  return Result;
}

/// Golden-section search on [Lo, Hi]; assumes unimodality on the bracket.
/// Runs until the bracket shrinks below \p Tolerance.
template <typename FnT>
ECAS_HOT MinResult minimizeGoldenSection(const FnT &Fn, double Lo, double Hi,
                                         double Tolerance) {
  ECAS_CHECK(Lo <= Hi, "minimizeGoldenSection requires Lo <= Hi");
  ECAS_CHECK(Tolerance > 0.0, "tolerance must be positive");
  constexpr double InvPhi = 0.6180339887498949;
  MinResult Result;
  double A = Lo, B = Hi;
  double C = B - (B - A) * InvPhi;
  double D = A + (B - A) * InvPhi;
  double Fc = Fn(C), Fd = Fn(D);
  Result.Evaluations = 2;
  while (B - A > Tolerance) {
    if (Fc < Fd) {
      B = D;
      D = C;
      Fd = Fc;
      C = B - (B - A) * InvPhi;
      Fc = Fn(C);
    } else {
      A = C;
      C = D;
      Fc = Fd;
      D = A + (B - A) * InvPhi;
      Fd = Fn(D);
    }
    ++Result.Evaluations;
  }
  if (Fc < Fd) {
    Result.ArgMin = C;
    Result.Value = Fc;
  } else {
    Result.ArgMin = D;
    Result.Value = Fd;
  }
  return Result;
}

/// Grid scan followed by golden-section refinement one grid cell either
/// side of the best sample. Robust to multimodal objectives at grid
/// resolution while sharpening the final answer.
template <typename FnT>
ECAS_HOT MinResult minimizeGridThenRefine(const FnT &Fn, double Lo, double Hi,
                                          double Step, double Tolerance) {
  MinResult Coarse = minimizeOnGrid(Fn, Lo, Hi, Step);
  double RefineLo = std::max(Lo, Coarse.ArgMin - Step);
  double RefineHi = std::min(Hi, Coarse.ArgMin + Step);
  MinResult Fine = minimizeGoldenSection(Fn, RefineLo, RefineHi, Tolerance);
  Fine.Evaluations += Coarse.Evaluations;
  // The refinement bracket may be multimodal; never return something worse
  // than the grid answer.
  if (Coarse.Value < Fine.Value) {
    Fine.ArgMin = Coarse.ArgMin;
    Fine.Value = Coarse.Value;
  }
  return Fine;
}

} // namespace ecas

#endif // ECAS_MATH_MINIMIZE_H
