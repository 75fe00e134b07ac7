//===-- bench/BenchCommon.h - Shared harness helpers ------------*- C++ -*-===//
//
// Part of the ecas project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Utilities shared by the figure/table reproduction harnesses: banner
/// printing, ASCII bar charts for the efficiency figures, the
/// four-scheme comparison runner, and optional CSV dumps.
///
//===----------------------------------------------------------------------===//

#ifndef ECAS_BENCH_BENCHCOMMON_H
#define ECAS_BENCH_BENCHCOMMON_H

#include "ecas/core/ExecutionSession.h"
#include "ecas/power/Characterizer.h"
#include "ecas/support/Flags.h"
#include "ecas/workloads/Registry.h"

#include <limits>
#include <string>
#include <vector>

namespace ecas::bench {

/// Prints the harness banner: which figure/table of the paper this
/// regenerates and what the paper reported.
void printBanner(const std::string &Experiment,
                 const std::string &PaperClaim);

/// One workload row of a Figs. 9-12 style comparison.
struct SchemeRow {
  std::string Abbrev;
  double CpuEff = 0.0;
  double GpuEff = 0.0;
  double PerfEff = 0.0;
  double EasEff = 0.0;
  double OracleAlpha = 0.0;
  double EasAlpha = 0.0;
};

/// Runs CPU/GPU/PERF/EAS against the Oracle for every workload under
/// \p Objective; efficiencies are Oracle metric / scheme metric (the
/// paper's "relative efficiency compared to Oracle", higher is better).
std::vector<SchemeRow> runComparison(const PlatformSpec &Spec,
                                     const std::vector<Workload> &Suite,
                                     const PowerCurveSet &Curves,
                                     const Metric &Objective);

/// Prints the comparison as a table plus per-scheme ASCII bars and
/// averages, mirroring the bar charts of Figs. 9-12.
void printComparison(const std::vector<SchemeRow> &Rows);

/// Writes the comparison as CSV when --csv=<path> was passed.
void maybeWriteCsv(const Flags &Args, const std::vector<SchemeRow> &Rows);

/// An ASCII horizontal bar scaled to \p Value in [0, Max].
std::string bar(double Value, double Max, unsigned Width = 40);

/// Workload config from --scale (default keeps the graph workloads
/// quick while preserving per-invocation magnitudes) and --seed. Exits
/// with status 2 (usage error) on a scale WorkloadConfig::validScale
/// rejects or a seed that is not an integer.
WorkloadConfig configFromFlags(const Flags &Args,
                               double DefaultScale = 0.3);

/// Prints \p Why and exits with status 2 (usage error).
[[noreturn]] void exitUsage(const Status &Why);

/// --Name through Flags::getNumber, or \p Default when absent. Exits
/// with status 2 when the value is malformed or outside [Min, Max].
template <typename T>
T numberFlag(const Flags &Args, const std::string &Name, T Default,
             T Min = std::numeric_limits<T>::lowest(),
             T Max = std::numeric_limits<T>::max()) {
  ErrorOr<T> Value = Args.getNumber(Name, Default, Min, Max);
  if (!Value)
    exitUsage(Value.status());
  return *Value;
}

} // namespace ecas::bench

#endif // ECAS_BENCH_BENCHCOMMON_H
