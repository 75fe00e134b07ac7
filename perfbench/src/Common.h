//===-- perfbench/src/Common.h - Shared workload plumbing ------*- C++ -*-===//
//
// Part of the ecas project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Options, set-up timing, the per-layer replay, and the three workload
/// entry points. Every workload times the library only from outside,
/// around calls to its public functions.
///
//===----------------------------------------------------------------------===//

#ifndef ECAS_PERFBENCH_COMMON_H
#define ECAS_PERFBENCH_COMMON_H

#include "Harness.h"

#include "ecas/core/EasScheduler.h"
#include "ecas/core/ExecutionSession.h"
#include "ecas/obs/Metrics.h"
#include "ecas/support/Random.h"
#include "ecas/workloads/Registry.h"

#include <string>
#include <vector>

namespace perfbench {

/// Command-line options of one run.
struct Options {
  std::string Workload;
  uint64_t Seed = 0x5eed;
  double Seconds = 10.0;
  bool Trace = false;
  /// Directory for run artifacts (journal files, span dumps); created by
  /// the caller.
  std::string OutDir;
};

/// How many times a run repeats its set-up; setup_s is their median.
inline constexpr unsigned SetupRepeats = 3;

/// Graph inputs at the scale fig09-fig12 use by default.
inline constexpr double SuiteScale = 0.3;

/// Set-up phases, in host seconds.
struct SetupTimes {
  double Characterize = 0.0;
  double Inputs = 0.0;
  double ReferenceRuns = 0.0;
  double Warm = 0.0;

  double total() const { return Characterize + Inputs + ReferenceRuns + Warm; }
};

/// Reports setup_s and the per-phase medians over \p Runs.
void reportSetup(const std::vector<SetupTimes> &Runs, RunResult &Result);

/// Suite inputs for \p Seed at SuiteScale.
ecas::WorkloadConfig suiteConfig(uint64_t Seed);

/// Every invocation of \p Suite, in suite order: serve's flat work list.
ecas::InvocationTrace flatWorkList(const std::vector<ecas::Workload> &Suite);

/// Oracle metric value per input of \p Suite (the reference the figures
/// divide by).
std::vector<double> oracleMetrics(const ecas::PlatformSpec &Spec,
                                  const std::vector<ecas::Workload> &Suite,
                                  const ecas::Metric &Objective);

/// Mean of every labelled variant of histogram \p Name (0 when empty).
double histogramMean(const ecas::obs::MetricsSnapshot &Snap,
                     const std::string &Name);

/// Seeded SLA class and deadline for one request, in serve's 2:5:3 mix
/// with its 200 ms / 1000 ms / none deadlines.
ecas::RequestContext drawRequest(ecas::Xoshiro256 &Rng, uint64_t TenantId);

/// Inputs of the per-layer replay: a warmed scheduler with its sinks
/// armed, and the calls it serves.
struct ReplayInputs {
  ecas::EasScheduler *Armed = nullptr;
  const ecas::PowerCurveFamily *Curves = nullptr;
  ecas::Metric Objective = ecas::Metric::edp();
  bool PStates = false;
  ecas::PlatformSpec Spec;
  const ecas::InvocationTrace *Work = nullptr;
  std::vector<uint64_t> Tenants;
  uint64_t Seed = 0;
  /// Scratch file for the disarmed twin's snapshot.
  std::string SnapshotPath;
};

/// Replays the workload's calls against each layer's public function:
/// warmed execute() armed and disarmed, runPartitioned at the learned
/// split, table-G lookup, the operating-point search, profileOnce,
/// admission and the SLA queue. Fills the matching per-layer metrics.
void replayLayers(const ReplayInputs &In, RunResult &Result);

void runPaperFigs(const Options &Opts, RunResult &Result);
void runServeWarm(const Options &Opts, RunResult &Result);
void runLearnDvfs(const Options &Opts, RunResult &Result);

/// The benchmark's self-tests; returns the number of failures.
int runSelfTests();

} // namespace perfbench

#endif // ECAS_PERFBENCH_COMMON_H
