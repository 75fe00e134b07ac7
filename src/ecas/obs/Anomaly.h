//===-- ecas/obs/Anomaly.h - Metrics-driven anomaly detectors --*- C++ -*-===//
//
// Part of the ecas project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The forensics layer's trigger half (DESIGN.md §16): an
/// AnomalyDetector is evaluated periodically — in the serve loop's poll
/// thread, never on a decision path — over MetricsSnapshots of the
/// existing registry, and answers "did anything just go wrong?" as a
/// list of AnomalyTriggers. Four rules:
///
///   - sla0-burn-rate: new eas_service_deadline_miss_total{sla="SLA0"}
///     increments since the previous evaluation reached the burn
///     threshold.
///   - model-drift: the windowed mean of eas_model_*_rel_error, EWMA
///     smoothed, rose above a multiple of a baseline frozen after the
///     first DriftBaselineMinSamples observations (cold start: no
///     baseline yet, no trigger — the cold-baseline edge case).
///   - quarantine-entry: eas_health_quarantines_total advanced.
///   - latency-p99-regression: the p99 of eas_invocation_seconds rose
///     above a multiple of its own frozen baseline.
///
/// Counter semantics are defensive: a counter that moved *backwards*
/// (process restart feeding a fresh registry to a long-lived detector,
/// or a recovered service re-registering) re-bases the rule's state
/// instead of firing or wedging — the counter-reset edge case.
///
/// The detector is pure over its inputs: it never touches the registry,
/// the scheduler, or the clock (callers pass NowSec), so tests drive it
/// with hand-built snapshots.
///
//===----------------------------------------------------------------------===//

#ifndef ECAS_OBS_ANOMALY_H
#define ECAS_OBS_ANOMALY_H

#include "ecas/obs/Metrics.h"

#include <string>
#include <vector>

namespace ecas::obs {

/// Detector tunables; the defaults suit the serve loop's 50 ms poll.
struct AnomalyConfig {
  /// sla0-burn-rate fires when at least this many new SLA0 deadline
  /// misses landed since the previous evaluation.
  double BurnRateMisses = 1.0;
  /// Observations a rel-error histogram must hold before its baseline
  /// freezes; until then the drift rule stays cold and silent.
  uint64_t DriftBaselineMinSamples = 32;
  /// EWMA smoothing weight applied to each evaluation's windowed mean.
  double DriftEwmaAlpha = 0.25;
  /// model-drift fires when the EWMA mean exceeds
  /// max(DriftFactor * baseline, baseline + DriftMinError).
  double DriftFactor = 2.0;
  double DriftMinError = 0.05;
  /// Observations eas_invocation_seconds must hold before its p99
  /// baseline freezes.
  uint64_t LatencyBaselineMinSamples = 64;
  /// latency-p99-regression fires when the current p99 exceeds
  /// LatencyP99Factor * the frozen baseline p99.
  double LatencyP99Factor = 3.0;
};

/// One fired rule: what tripped, on which metric, and the numbers that
/// justify it (threshold crossed, value observed) — exactly what the
/// incident manifest records.
struct AnomalyTrigger {
  std::string Rule;
  std::string Metric;
  double Threshold = 0.0;
  double Observed = 0.0;
  /// Free-form context ("baseline=0.041 ewma=0.112").
  std::string Note;
};

/// Stateful periodic evaluator. Not thread-safe: one poll thread owns
/// it (evaluations are inherently ordered — each consumes the delta
/// since the last).
class AnomalyDetector {
public:
  explicit AnomalyDetector(AnomalyConfig Config = {});

  /// Evaluates every rule against \p Snap. Multiple rules firing on one
  /// snapshot all appear in the result — the caller coalesces them into
  /// a single incident bundle.
  std::vector<AnomalyTrigger> evaluate(const MetricsSnapshot &Snap,
                                       double NowSec);

private:
  /// Windowed-mean + EWMA drift state for one rel-error family.
  struct DriftState {
    bool Frozen = false;
    double Baseline = 0.0;
    double Ewma = 0.0;
    bool EwmaSeeded = false;
    uint64_t PrevCount = 0;
    double PrevSum = 0.0;
  };

  void evaluateBurnRate(const MetricsSnapshot &Snap,
                        std::vector<AnomalyTrigger> &Out);
  void evaluateDrift(const MetricsSnapshot &Snap, const char *MetricName,
                     const char *Which, DriftState &State,
                     std::vector<AnomalyTrigger> &Out);
  void evaluateQuarantine(const MetricsSnapshot &Snap,
                          std::vector<AnomalyTrigger> &Out);
  void evaluateLatency(const MetricsSnapshot &Snap,
                       std::vector<AnomalyTrigger> &Out);

  AnomalyConfig Config;

  double PrevSla0Misses = 0.0;
  bool Sla0Seen = false;

  DriftState TimeDrift;
  DriftState EnergyDrift;

  double PrevQuarantines = 0.0;
  bool QuarantinesSeen = false;

  struct LatencyState {
    bool Frozen = false;
    double BaselineP99 = 0.0;
    uint64_t PrevCount = 0;
  };
  LatencyState Latency;
};

} // namespace ecas::obs

#endif // ECAS_OBS_ANOMALY_H
