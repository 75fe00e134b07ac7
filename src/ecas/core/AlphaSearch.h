//===-- ecas/core/AlphaSearch.h - Offload-ratio optimization ---*- C++ -*-===//
//
// Part of the ecas project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Fig. 7 step 20: find the GPU offload ratio minimizing the target
/// objective OBJ(alpha) = Metric(P(alpha), T(alpha)) by evaluating it on
/// a grid over [0, 1] (the paper uses 0.1 or 0.05 increments), with an
/// optional golden-section refinement extension.
///
/// DEPRECATED: chooseAlpha is the fixed-frequency special case of
/// core/OperatingPoint.h's chooseOperatingPoint and survives only as a
/// bit-identical delegating wrapper for existing callers. New code must
/// call chooseOperatingPoint (ecas-lint rule choose-alpha-deprecated
/// rejects new callers outside this wrapper's own unit tests).
///
//===----------------------------------------------------------------------===//

#ifndef ECAS_CORE_ALPHASEARCH_H
#define ECAS_CORE_ALPHASEARCH_H

#include "ecas/core/Metric.h"
#include "ecas/core/TimeModel.h"
#include "ecas/power/PowerCurve.h"
#include "ecas/support/HotPath.h"

#include <utility>
#include <vector>

namespace ecas {

/// Search configuration.
struct AlphaSearchConfig {
  /// Grid increment over [0, 1].
  double Step = 0.1;
  /// When set, refine around the best grid cell with golden-section
  /// search (an extension over the paper's plain grid).
  bool Refine = false;
  double RefineTolerance = 1e-3;
  /// When non-null, receives every (alpha, objective) point the search
  /// evaluated, in evaluation order. The observability layer attaches
  /// this grid to the alpha-search trace event; the search itself never
  /// reads it back.
  std::vector<std::pair<double, double>> *GridOut = nullptr;
};

/// The chosen ratio and its predicted consequences.
struct AlphaChoice {
  double Alpha = 0.0;
  double PredictedMetric = 0.0;
  double PredictedSeconds = 0.0;
  double PredictedWatts = 0.0;
  unsigned Evaluations = 0;
};

/// Minimizes Metric(P(alpha), T(alpha; N)) over alpha in [0, 1]. Runs
/// once per profiled invocation, so it is a hot-path root: the objective
/// closure stays a stack lambda fed to the Minimize.h templates (a
/// std::function here heap-allocated once per search — DESIGN.md §14).
ECAS_HOT AlphaChoice chooseAlpha(const TimeModel &Model,
                                 const PowerCurve &Curve,
                                 const Metric &Objective, double Iterations,
                                 const AlphaSearchConfig &Config = {});

} // namespace ecas

#endif // ECAS_CORE_ALPHASEARCH_H
