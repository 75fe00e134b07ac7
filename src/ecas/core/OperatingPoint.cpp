//===-- ecas/core/OperatingPoint.cpp - Joint (alpha, f) decisions ---------===//
//
// Part of the ecas project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "ecas/core/OperatingPoint.h"

#include "ecas/math/Minimize.h"
#include "ecas/support/Assert.h"

#include <cmath>

using namespace ecas;

std::optional<SchedulingPolicy>
ecas::schedulingPolicyByName(const std::string &Name) {
  if (Name == "minimize")
    return SchedulingPolicy::MinimizeMetric;
  if (Name == "race-to-idle")
    return SchedulingPolicy::RaceToIdle;
  if (Name == "pace-to-deadline")
    return SchedulingPolicy::PaceToDeadline;
  return std::nullopt;
}

namespace {

/// Shapes (Watts, Seconds) into the value the search minimizes.
ECAS_HOT double policyValue(const Metric &Objective, double Watts,
                            double Seconds,
                            const OperatingPointSearchConfig &Config) {
  switch (Config.Policy) {
  case SchedulingPolicy::MinimizeMetric:
    return Objective.evaluate(Watts, Seconds);
  case SchedulingPolicy::RaceToIdle:
    // Active energy above the idle floor: the idle draw is paid either
    // way, so only the increment matters. The floor keeps a
    // mischaracterized IdleWatts > P(alpha) from inverting the order.
    return std::max(Watts - Config.IdleWatts, 1e-3) * Seconds;
  case SchedulingPolicy::PaceToDeadline:
    if (Config.DeadlineSeconds > 0.0 && Seconds > Config.DeadlineSeconds)
      // Infeasible: dominate every feasible value yet stay monotonic in
      // Seconds so the least-late point wins when nothing fits.
      return 1e200 * std::max(Seconds, 1e-30);
    return Watts * Seconds;
  }
  return Objective.evaluate(Watts, Seconds);
}

} // namespace

Decision ecas::chooseOperatingPoint(const TimeModel &Model,
                                    const PStateView *Views,
                                    unsigned NumStates,
                                    const Metric &Objective, double Iterations,
                                    const OperatingPointSearchConfig &Config) {
  ECAS_CHECK(Views != nullptr && NumStates >= 1,
             "at least one P-state view is required");
  ECAS_CHECK(NumStates <= kMaxPStates, "too many P-state views");
  ECAS_CHECK(Iterations >= 0.0, "iteration count cannot be negative");
  ECAS_CHECK(Config.Step > 0.0 && Config.Step <= 1.0,
             "alpha step must lie in (0, 1]");

  if (Config.GridOut)
    Config.GridOut->clear();

  Decision Best;
  bool HaveBest = false;
  for (unsigned State = 0; State != NumStates; ++State) {
    const PStateView &View = Views[State];
    ECAS_CHECK(View.Curve != nullptr, "P-state view is missing a power curve");
    // Identity scales reuse the caller's model bit-for-bit, so a
    // single-view call searches exactly the profiled time model.
    bool Scale = View.CpuFreqScale != 1.0 || View.GpuFreqScale != 1.0;
    TimeModel Scaled =
        Scale ? Model.scaledTo(View.CpuFreqScale, View.GpuFreqScale,
                               Config.MemBoundFraction)
              : Model;
    const TimeModel &StateModel = Scale ? Scaled : Model;

    auto ObjectiveAt = [&](double Alpha) {
      double Seconds = StateModel.totalTime(Iterations, Alpha);
      double Watts = View.Curve->powerAt(Alpha);
      double Value = policyValue(Objective, Watts, Seconds, Config);
      // A degenerate model point (dead device, overflowed product) must
      // lose to every well-defined grid cell, and a NaN would poison the
      // min-comparison chain below; map both to a huge finite penalty.
      Value = std::isfinite(Value) ? Value : 1e300;
      if (Config.GridOut) // observability only: null on the decision path
        Config.GridOut->emplace_back(Alpha, Value); // ecas-hotpath: allow(alloc)
      return Value;
    };

    MinResult Min =
        Config.Refine
            ? minimizeGridThenRefine(ObjectiveAt, 0.0, 1.0, Config.Step,
                                     Config.RefineTolerance)
            : minimizeOnGrid(ObjectiveAt, 0.0, 1.0, Config.Step);

    Best.Evaluations += Min.Evaluations;
    // Strict '<' keeps the lowest-index (fastest) state on ties.
    if (!HaveBest || Min.Value < Best.PredictedMetric) {
      HaveBest = true;
      Best.Point.Alpha = Min.ArgMin;
      Best.Point.PState = State;
      Best.PredictedMetric = Min.Value;
      Best.PredictedSeconds = StateModel.totalTime(Iterations, Min.ArgMin);
      Best.PredictedWatts = View.Curve->powerAt(Min.ArgMin);
    }
  }
  return Best;
}
