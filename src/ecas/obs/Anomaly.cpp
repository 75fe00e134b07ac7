//===-- ecas/obs/Anomaly.cpp - Metrics-driven anomaly detectors -----------===//
//
// Part of the ecas project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "ecas/obs/Anomaly.h"

#include "ecas/obs/MetricNames.h"
#include "ecas/support/Format.h"

#include <algorithm>

using namespace ecas;
using namespace ecas::obs;

namespace {

/// Sum of counter values across every sample of \p Name carrying the
/// label \p Key=\p Value (0 when absent) — the burn-rate rule reads the
/// sla0 slice of a per-SLA family this way.
double labelledTotal(const MetricsSnapshot &Snap, const char *Name,
                     const char *Key, const char *Value) {
  double Total = 0.0;
  for (const MetricSample &Sample : Snap.Samples) {
    if (Sample.Name != Name)
      continue;
    for (const auto &Label : Sample.Labels)
      if (Label.first == Key && Label.second == Value) {
        Total += Sample.Value;
        break;
      }
  }
  return Total;
}

/// Aggregated count/sum across every histogram sample of \p Name (the
/// rel-error families fan out by class and P-state; drift judges the
/// whole family).
void histogramTotals(const MetricsSnapshot &Snap, const char *Name,
                     uint64_t &Count, double &Sum) {
  Count = 0;
  Sum = 0.0;
  for (const MetricSample &Sample : Snap.Samples) {
    if (Sample.Name != Name || Sample.Kind != MetricKind::Histogram)
      continue;
    Count += Sample.Hist.Count;
    Sum += Sample.Hist.Sum;
  }
}

} // namespace

AnomalyDetector::AnomalyDetector(AnomalyConfig ConfigIn)
    : Config(ConfigIn) {}

std::vector<AnomalyTrigger>
AnomalyDetector::evaluate(const MetricsSnapshot &Snap, double NowSec) {
  (void)NowSec; // Rules are delta-based; rate limiting is the incident
                // writer's job, so the clock is currently unused.
  std::vector<AnomalyTrigger> Out;
  evaluateBurnRate(Snap, Out);
  evaluateDrift(Snap, names::ModelTimeRelError, "time", TimeDrift, Out);
  evaluateDrift(Snap, names::ModelEnergyRelError, "energy", EnergyDrift,
                Out);
  evaluateQuarantine(Snap, Out);
  evaluateLatency(Snap, Out);
  return Out;
}

void AnomalyDetector::evaluateBurnRate(const MetricsSnapshot &Snap,
                                       std::vector<AnomalyTrigger> &Out) {
  double Cur = labelledTotal(Snap, names::ServiceDeadlineMissTotal, "sla",
                             "SLA0");
  if (!Sla0Seen || Cur < PrevSla0Misses) {
    // First sighting (misses predating the detector are old news) or a
    // counter that moved backwards (fresh registry after recovery):
    // re-base without firing.
    Sla0Seen = true;
    PrevSla0Misses = Cur;
    return;
  }
  double Delta = Cur - PrevSla0Misses;
  PrevSla0Misses = Cur;
  if (Delta >= Config.BurnRateMisses) {
    AnomalyTrigger Trigger;
    Trigger.Rule = "sla0-burn-rate";
    Trigger.Metric = names::ServiceDeadlineMissTotal;
    Trigger.Threshold = Config.BurnRateMisses;
    Trigger.Observed = Delta;
    Trigger.Note = formatString("total=%.0f", Cur);
    Out.push_back(std::move(Trigger));
  }
}

void AnomalyDetector::evaluateDrift(const MetricsSnapshot &Snap,
                                    const char *MetricName, const char *Which,
                                    DriftState &State,
                                    std::vector<AnomalyTrigger> &Out) {
  uint64_t Count = 0;
  double Sum = 0.0;
  histogramTotals(Snap, MetricName, Count, Sum);
  if (Count < State.PrevCount) {
    // Histogram restarted under us: forget everything and go cold —
    // a frozen baseline from a previous life is not comparable.
    State = DriftState{};
  }
  if (!State.Frozen) {
    if (Count >= Config.DriftBaselineMinSamples && Count > 0) {
      State.Frozen = true;
      State.Baseline = Sum / static_cast<double>(Count);
      State.PrevCount = Count;
      State.PrevSum = Sum;
    } else {
      State.PrevCount = Count;
      State.PrevSum = Sum;
    }
    return; // Cold (or just-frozen) baseline never fires.
  }
  uint64_t NewSamples = Count - State.PrevCount;
  if (NewSamples == 0)
    return;
  double WindowMean =
      (Sum - State.PrevSum) / static_cast<double>(NewSamples);
  State.PrevCount = Count;
  State.PrevSum = Sum;
  if (!State.EwmaSeeded) {
    State.Ewma = WindowMean;
    State.EwmaSeeded = true;
  } else {
    State.Ewma = Config.DriftEwmaAlpha * WindowMean +
                 (1.0 - Config.DriftEwmaAlpha) * State.Ewma;
  }
  double Threshold = std::max(Config.DriftFactor * State.Baseline,
                              State.Baseline + Config.DriftMinError);
  if (State.Ewma > Threshold) {
    AnomalyTrigger Trigger;
    Trigger.Rule = formatString("model-drift-%s", Which);
    Trigger.Metric = MetricName;
    Trigger.Threshold = Threshold;
    Trigger.Observed = State.Ewma;
    Trigger.Note = formatString("baseline=%.6g window_mean=%.6g",
                                State.Baseline, WindowMean);
    Out.push_back(std::move(Trigger));
  }
}

void AnomalyDetector::evaluateQuarantine(const MetricsSnapshot &Snap,
                                         std::vector<AnomalyTrigger> &Out) {
  double Cur = Snap.total(names::QuarantinesTotal);
  if (!QuarantinesSeen || Cur < PrevQuarantines) {
    QuarantinesSeen = true;
    PrevQuarantines = Cur;
    return;
  }
  double Delta = Cur - PrevQuarantines;
  PrevQuarantines = Cur;
  if (Delta > 0.0) {
    AnomalyTrigger Trigger;
    Trigger.Rule = "quarantine-entry";
    Trigger.Metric = names::QuarantinesTotal;
    Trigger.Threshold = 1.0;
    Trigger.Observed = Delta;
    Trigger.Note = formatString("total=%.0f", Cur);
    Out.push_back(std::move(Trigger));
  }
}

void AnomalyDetector::evaluateLatency(const MetricsSnapshot &Snap,
                                      std::vector<AnomalyTrigger> &Out) {
  const MetricSample *Sample = Snap.find(names::InvocationSeconds);
  if (!Sample || Sample->Kind != MetricKind::Histogram)
    return;
  uint64_t Count = Sample->Hist.Count;
  if (Count < Latency.PrevCount)
    Latency = LatencyState{};
  Latency.PrevCount = Count;
  if (!Latency.Frozen) {
    if (Count >= Config.LatencyBaselineMinSamples && Count > 0) {
      double P99 = Sample->Hist.quantile(0.99);
      if (P99 > 0.0) { // NaN/empty never freezes a zero baseline.
        Latency.Frozen = true;
        Latency.BaselineP99 = P99;
      }
    }
    return;
  }
  double P99 = Sample->Hist.quantile(0.99);
  double Threshold = Config.LatencyP99Factor * Latency.BaselineP99;
  if (P99 > Threshold) {
    AnomalyTrigger Trigger;
    Trigger.Rule = "latency-p99-regression";
    Trigger.Metric = names::InvocationSeconds;
    Trigger.Threshold = Threshold;
    Trigger.Observed = P99;
    Trigger.Note = formatString("baseline_p99=%.6g", Latency.BaselineP99);
    Out.push_back(std::move(Trigger));
  }
}
