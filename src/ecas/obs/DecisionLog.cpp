//===-- ecas/obs/DecisionLog.cpp - Per-decision audit records ------------===//
//
// Part of the ecas project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "ecas/obs/DecisionLog.h"

#include "ecas/support/AtomicFile.h"
#include "ecas/support/Format.h"

using namespace ecas;
using namespace ecas::obs;

namespace {

const char *boolName(bool B) { return B ? "true" : "false"; }

} // namespace

std::string
DecisionLogSink::renderCsv(const std::vector<DecisionRecord> &Records) {
  std::string Out = "sequence,kernel_id,class_index,alpha,pstate,"
                    "has_prediction,"
                    "predicted_seconds,predicted_watts,predicted_metric,"
                    "measured_seconds,measured_joules,table_hit,profiled,"
                    "cpu_only,quarantined,cancelled\n";
  for (const DecisionRecord &R : Records)
    Out += formatString(
        "%llu,%llu,%d,%.9g,%u,%d,%.9g,%.9g,%.9g,%.9g,%.9g,%d,%d,%d,%d,%d\n",
        static_cast<unsigned long long>(R.Sequence),
        static_cast<unsigned long long>(R.KernelId), R.ClassIndex, R.Alpha,
        R.PState, R.HasPrediction ? 1 : 0, R.PredictedSeconds,
        R.PredictedWatts, R.PredictedMetric, R.MeasuredSeconds,
        R.MeasuredJoules, R.TableHit ? 1 : 0, R.Profiled ? 1 : 0,
        R.CpuOnlyFastPath ? 1 : 0, R.GpuQuarantined ? 1 : 0,
        R.Cancelled ? 1 : 0);
  return Out;
}

std::string
DecisionLogSink::renderJsonLines(const std::vector<DecisionRecord> &Records) {
  std::string Out;
  for (const DecisionRecord &R : Records)
    Out += formatString(
        "{\"sequence\": %llu, \"kernel_id\": %llu, \"class_index\": %d, "
        "\"alpha\": %.9g, \"pstate\": %u, \"has_prediction\": %s, "
        "\"predicted_seconds\": %.9g, \"predicted_watts\": %.9g, "
        "\"predicted_metric\": %.9g, \"measured_seconds\": %.9g, "
        "\"measured_joules\": %.9g, \"table_hit\": %s, \"profiled\": %s, "
        "\"cpu_only\": %s, \"quarantined\": %s, \"cancelled\": %s}\n",
        static_cast<unsigned long long>(R.Sequence),
        static_cast<unsigned long long>(R.KernelId), R.ClassIndex, R.Alpha,
        R.PState, boolName(R.HasPrediction), R.PredictedSeconds,
        R.PredictedWatts,
        R.PredictedMetric, R.MeasuredSeconds, R.MeasuredJoules,
        boolName(R.TableHit), boolName(R.Profiled),
        boolName(R.CpuOnlyFastPath), boolName(R.GpuQuarantined),
        boolName(R.Cancelled));
  return Out;
}

Status DecisionLogSink::write(const std::vector<DecisionRecord> &Records,
                              const std::string &Path) {
  bool Csv = Path.size() >= 4 && Path.compare(Path.size() - 4, 4, ".csv") == 0;
  return writeFileAtomic(Path,
                         Csv ? renderCsv(Records) : renderJsonLines(Records));
}
