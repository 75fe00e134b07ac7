//===-- ecas/sim/PowerTrace.h - Power-over-time recording ------*- C++ -*-===//
//
// Part of the ecas project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Time-series recorder for the simulator's power breakdown, used to
/// regenerate the paper's power-over-time charts (Figs. 2, 3, 4). The
/// simulator reports variable-length segments; the trace resamples them
/// onto a fixed grid like a real power logger would.
///
//===----------------------------------------------------------------------===//

#ifndef ECAS_SIM_POWERTRACE_H
#define ECAS_SIM_POWERTRACE_H

#include "ecas/sim/PowerModel.h"

#include <string>
#include <vector>

namespace ecas {

/// One resampled trace point.
struct TraceSample {
  double TimeSec = 0.0;
  double PackageWatts = 0.0;
  double CpuWatts = 0.0;
  double GpuWatts = 0.0;
  double UncoreWatts = 0.0;
  double CpuFreqGHz = 0.0;
  double GpuFreqGHz = 0.0;
};

/// Fixed-interval power logger fed by variable-length simulator segments.
class PowerTrace {
public:
  explicit PowerTrace(double SampleIntervalSec);

  /// Records that the breakdown \p Power and frequencies held over
  /// [\p StartSec, \p StartSec + \p DurationSec). Segments must be fed in
  /// non-decreasing time order; grid samples are emitted with
  /// time-weighted averaging of everything overlapping each cell.
  void addSegment(double StartSec, double DurationSec,
                  const PowerBreakdown &Power, double CpuFreqGHz,
                  double GpuFreqGHz);

  /// Flushes the partially filled tail cell, if any.
  void finish();

  const std::vector<TraceSample> &samples() const { return Samples; }

  /// Renders "time_s,package_w,cpu_w,gpu_w,uncore_w,cpu_ghz,gpu_ghz" CSV.
  std::string toCsv() const;

private:
  void emitCell();

  double IntervalSec;
  std::vector<TraceSample> Samples;
  // Accumulator for the in-progress grid cell.
  double CellStart = 0.0;
  double CellFilled = 0.0;
  TraceSample CellSum;
};

} // namespace ecas

#endif // ECAS_SIM_POWERTRACE_H
