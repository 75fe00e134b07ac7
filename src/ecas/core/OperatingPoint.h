//===-- ecas/core/OperatingPoint.h - Joint (alpha, f) decisions *- C++ -*-===//
//
// Part of the ecas project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The operating-point decision core: where the paper fixes the clock
/// and searches only the GPU offload ratio alpha, this API searches the
/// joint (alpha, P-state) grid — ROADMAP item 2's DVFS axis. An
/// OperatingPoint names one cell of that grid; chooseOperatingPoint
/// minimizes a policy-shaped objective over every alpha at every
/// supplied P-state view and returns the winning Decision.
///
/// Each PStateView is the black-box knowledge the scheduler has about
/// one P-state: the power characterization P(alpha) measured at that
/// state's clocks, plus the CPU/GPU frequency ratios relative to the
/// profiled (full-speed) state so the time model can be rescaled. The
/// caller builds the views into a fixed-size stack array — the search
/// itself allocates nothing and stays on the ECAS_HOT path. The paper's
/// fixed-frequency alpha search is the single-view call with identity
/// frequency scales.
///
//===----------------------------------------------------------------------===//

#ifndef ECAS_CORE_OPERATINGPOINT_H
#define ECAS_CORE_OPERATINGPOINT_H

#include "ecas/core/Metric.h"
#include "ecas/core/TimeModel.h"
#include "ecas/power/PowerCurve.h"
#include "ecas/support/HotPath.h"

#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace ecas {

/// Upper bound on P-states a decision considers; matches
/// PlatformSpec::MaxPStates so per-state working arrays can live on the
/// stack (EasScheduler.cpp static_asserts the two stay equal).
inline constexpr unsigned kMaxPStates = 8;

/// One cell of the joint decision grid: the GPU offload ratio and the
/// processor P-state index (0 = full speed) the work runs at.
struct OperatingPoint {
  double Alpha = 0.0;
  unsigned PState = 0;
};

/// How the search shapes its objective (PAPERS.md "Racing to Idle").
enum class SchedulingPolicy {
  /// Minimize the configured Metric directly (the paper's behaviour).
  MinimizeMetric,
  /// Race-to-idle: minimize the energy above the idle floor,
  /// (P - P_idle) * T. The floor is paid whether the kernel runs or
  /// not, so a state only wins by cutting the increment faster than it
  /// stretches the run; when above-floor power is flat across states
  /// this degenerates to minimizing time — racing at full speed.
  RaceToIdle,
  /// Pace-to-deadline: minimize energy among points meeting the
  /// deadline; when no point is feasible, pick the least-late one.
  PaceToDeadline,
};

/// The policy named "minimize", "race-to-idle" or "pace-to-deadline";
/// nullopt for unknown names.
std::optional<SchedulingPolicy>
schedulingPolicyByName(const std::string &Name);

/// The scheduler's black-box view of one P-state: the power curve
/// characterized at that state's clocks and the frequency ratios that
/// rescale the profiled (state-0) throughputs.
struct PStateView {
  const PowerCurve *Curve = nullptr;
  /// f_cpu(state) / f_cpu(state 0); 1.0 means the profiled clock.
  double CpuFreqScale = 1.0;
  /// f_gpu(state) / f_gpu(state 0).
  double GpuFreqScale = 1.0;
};

/// Joint-search configuration.
struct OperatingPointSearchConfig {
  /// Alpha grid increment over [0, 1].
  double Step = 0.1;
  /// Golden-section refinement around the best alpha cell (per state).
  bool Refine = false;
  double RefineTolerance = 1e-3;
  SchedulingPolicy Policy = SchedulingPolicy::MinimizeMetric;
  /// PaceToDeadline: the latest acceptable predicted completion, in
  /// seconds. Ignored (and the policy degenerates to energy) when 0.
  double DeadlineSeconds = 0.0;
  /// RaceToIdle: the package idle floor subtracted from P(alpha).
  double IdleWatts = 0.0;
  /// Fraction of execution that does not speed up with the clock
  /// (memory-bound share); feeds TimeModel::scaledTo.
  double MemBoundFraction = 0.0;
  /// When non-null, receives every (alpha, objective) point evaluated,
  /// in evaluation order across states. Observability only.
  std::vector<std::pair<double, double>> *GridOut = nullptr;
};

/// The chosen operating point and its predicted consequences.
struct Decision {
  OperatingPoint Point;
  /// Policy-shaped objective value at the chosen point.
  double PredictedMetric = 0.0;
  double PredictedSeconds = 0.0;
  double PredictedWatts = 0.0;
  /// Objective evaluations summed over all states searched.
  unsigned Evaluations = 0;
};

/// Minimizes the policy objective over alpha in [0, 1] at each of the
/// \p NumStates views in \p Views (index = P-state). Ties between
/// states keep the lowest index, so with identical views the full-speed
/// state wins deterministically. With one identity-scale view this is
/// the paper's alpha-only grid search at the profiled clock. Runs once
/// per profiled invocation — hot-path root, allocation-free.
ECAS_HOT Decision chooseOperatingPoint(
    const TimeModel &Model, const PStateView *Views, unsigned NumStates,
    const Metric &Objective, double Iterations,
    const OperatingPointSearchConfig &Config = {});

} // namespace ecas

#endif // ECAS_CORE_OPERATINGPOINT_H
