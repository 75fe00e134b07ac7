//===-- ecas/obs/DecisionLog.h - Per-decision audit records ----*- C++ -*-===//
//
// Part of the ecas project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The audit half of model-fidelity telemetry: where the histograms in
/// obs/Metrics.h answer "how wrong is the model on average", a
/// DecisionRecord answers "what exactly did the scheduler decide for
/// invocation N and why". Each admitted EasScheduler::execute yields one
/// record — kernel id, workload class, chosen alpha, the predicted
/// T/P/metric that justified it, the measured T/E that followed, and
/// whether the choice came from a table-G hit or a fresh profile. The
/// records live in the flight recorder's fixed-capacity decision ring
/// (obs/FlightRecorder.h); DecisionLogSink renders a drained tail as CSV
/// or JSON-lines for offline diffing.
///
//===----------------------------------------------------------------------===//

#ifndef ECAS_OBS_DECISIONLOG_H
#define ECAS_OBS_DECISIONLOG_H

#include "ecas/support/Error.h"

#include <cstdint>
#include <string>
#include <vector>

namespace ecas::obs {

/// Everything the scheduler knew (and then learned) about one
/// invocation. Prediction fields are meaningful only when
/// HasPrediction; measured fields only when the run completed
/// (!Cancelled).
struct DecisionRecord {
  /// Monotonic append index (survives ring wrap, so gaps reveal
  /// overwritten history).
  uint64_t Sequence = 0;
  uint64_t KernelId = 0;
  /// WorkloadClass::index(), or -1 when never classified.
  int ClassIndex = -1;
  double Alpha = 0.0;
  /// P-state half of the chosen operating point; 0 (full speed) when
  /// P-states are off or the decision predates the DVFS axis.
  unsigned PState = 0;
  bool HasPrediction = false;
  double PredictedSeconds = 0.0;
  double PredictedWatts = 0.0;
  /// Objective value (EDP/ED^2P/energy...) the alpha search minimised.
  double PredictedMetric = 0.0;
  double MeasuredSeconds = 0.0;
  double MeasuredJoules = 0.0;
  bool TableHit = false;
  bool Profiled = false;
  bool CpuOnlyFastPath = false;
  bool GpuQuarantined = false;
  bool Cancelled = false;
};

/// Renders decision-ring snapshots for offline inspection.
class DecisionLogSink {
public:
  /// CSV with a header row; one line per record, columns matching the
  /// DecisionRecord fields.
  static std::string renderCsv(const std::vector<DecisionRecord> &Records);

  /// JSON-lines: one self-contained object per record.
  static std::string
  renderJsonLines(const std::vector<DecisionRecord> &Records);

  /// Writes \p Records to \p Path (atomically); format picked by
  /// extension — ".csv" renders CSV, anything else JSON-lines.
  static Status write(const std::vector<DecisionRecord> &Records,
                      const std::string &Path);
};

} // namespace ecas::obs

#endif // ECAS_OBS_DECISIONLOG_H
