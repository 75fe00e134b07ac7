//===-- ecas/obs/Metrics.h - Counters, gauges, histograms ------*- C++ -*-===//
//
// Part of the ecas project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The observability layer's aggregation half. Where a FlightRecorder
/// keeps events (obs/FlightRecorder.h), a MetricsRegistry keeps only
/// running aggregates — counters, gauges, and log-bucketed histograms —
/// cheap enough to leave attached to a long-running service and
/// queryable at any moment.
///
/// The contract mirrors the FlightRecorder's: instruments only fold
/// observations into their own atomics, never feed anything back into
/// scheduling state, and a null registry pointer no-ops every record
/// helper, so un-metered runs stay bit-identical (MetricsTest's
/// regression, the sibling of ObsTest's null-recorder guarantee).
///
/// Fast path: registration (counter()/gauge()/histogram()) takes the
/// registry's leaf mutex once and returns a stable reference; callers
/// cache it (EasScheduler pre-registers everything at construction).
/// Every subsequent add()/set()/record() is a handful of lock-free
/// atomic RMWs, safe from any thread, and snapshots taken concurrently
/// see each thread's published prefix — histograms are mergeable across
/// threads by construction because buckets are independent atomics.
///
/// Metric names come from obs/MetricNames.h (lowercase snake_case with
/// the eas_ prefix, enforced by ecas-lint's metric-name rule). Label
/// values are free-form; the exporters escape them.
///
//===----------------------------------------------------------------------===//

#ifndef ECAS_OBS_METRICS_H
#define ECAS_OBS_METRICS_H

#include "ecas/support/ThreadAnnotations.h"

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace ecas::obs {

/// Key/value pairs qualifying one instrument ("class" -> "memory/...").
using MetricLabels = std::vector<std::pair<std::string, std::string>>;

/// A monotonically increasing count. add() is lock-free.
class Counter {
public:
  void add(double Delta = 1.0) {
    Value.fetch_add(Delta, std::memory_order_relaxed);
  }
  double value() const { return Value.load(std::memory_order_relaxed); }

private:
  std::atomic<double> Value{0.0};
};

/// A value that can go up and down (drain seconds, MSR sample tallies).
class Gauge {
public:
  void set(double V) { Value.store(V, std::memory_order_relaxed); }
  void add(double Delta) { Value.fetch_add(Delta, std::memory_order_relaxed); }
  double value() const { return Value.load(std::memory_order_relaxed); }

private:
  std::atomic<double> Value{0.0};
};

/// One histogram's state, copied out for export.
struct HistogramSnapshot {
  /// Ascending finite bucket upper edges; Counts carries one entry per
  /// edge plus a trailing overflow bucket.
  std::vector<double> UpperBounds;
  std::vector<uint64_t> Counts;
  uint64_t Count = 0;
  double Sum = 0.0;
  double Min = 0.0;
  double Max = 0.0;

  double mean() const { return Count ? Sum / static_cast<double>(Count) : 0.0; }
  /// Bucket-interpolated quantile (support/Stats' shared
  /// quantileFromBuckets); NaN when empty.
  double quantile(double Q) const;
};

/// Log- or linear-bucketed distribution. record() is lock-free: one
/// branchless bound search plus independent atomic RMWs, so concurrent
/// writers never contend on a lock and their contributions merge by
/// construction.
class Histogram {
public:
  /// \p Bounds are ascending finite upper edges; an implicit overflow
  /// bucket catches everything above the last. Use logBuckets() /
  /// linearBuckets() to build them.
  explicit Histogram(std::vector<double> Bounds);

  /// Folds \p Value in. NaN observations are dropped (a rel-error with
  /// a zero measurement must not poison the distribution); negative
  /// and underflowing values land in the first bucket.
  void record(double Value);

  uint64_t count() const { return Count.load(std::memory_order_relaxed); }
  double sum() const { return Sum.load(std::memory_order_relaxed); }

  const std::vector<double> &bounds() const { return UpperBounds; }

  /// Consistent-enough copy under concurrent writers: each atomic is
  /// read once; a snapshot taken mid-record may be ahead in one bucket
  /// and behind in Sum by one sample, which aggregation tolerates.
  HistogramSnapshot snapshot() const;

private:
  const std::vector<double> UpperBounds;
  std::unique_ptr<std::atomic<uint64_t>[]> Buckets; // size() + 1 overflow
  std::atomic<uint64_t> Count{0};
  std::atomic<double> Sum{0.0};
  std::atomic<double> Min;
  std::atomic<double> Max;
};

/// \p Count geometrically spaced upper edges starting at \p First and
/// growing by \p Factor — the log-bucketed layout rel-error and latency
/// histograms use.
std::vector<double> logBuckets(double First, double Factor, unsigned Count);

/// \p Count evenly spaced upper edges: Start + Width, Start + 2*Width,
/// ... — the layout the alpha distribution over [0, 1] uses.
std::vector<double> linearBuckets(double Start, double Width, unsigned Count);

/// What kind of instrument one exported sample came from.
enum class MetricKind { Counter, Gauge, Histogram };

/// Returns "counter", "gauge", or "histogram".
const char *metricKindName(MetricKind Kind);

/// One instrument's exported state.
struct MetricSample {
  std::string Name;
  MetricLabels Labels;
  std::string Help;
  MetricKind Kind = MetricKind::Counter;
  /// Counter/gauge value (histograms use Hist).
  double Value = 0.0;
  HistogramSnapshot Hist;
};

/// Everything a registry held at one instant, in exporter-ready form,
/// sorted by (name, labels).
struct MetricsSnapshot {
  std::vector<MetricSample> Samples;

  /// First sample named \p Name (any labels), or nullptr.
  const MetricSample *find(const std::string &Name) const;
  /// Sum of counter/gauge values across every labelled variant of
  /// \p Name (0 when absent).
  double total(const std::string &Name) const;
};

/// Owns every instrument of one service (or one run). Thread-safe; see
/// the file comment for the locking story. Instrument references stay
/// valid for the registry's lifetime.
class MetricsRegistry {
public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry &) = delete;
  MetricsRegistry &operator=(const MetricsRegistry &) = delete;

  /// Finds or creates. Re-registration with the same name and labels
  /// returns the existing instrument; \p Help is kept from the first
  /// registration. Registering the same key as a different kind is a
  /// usage error (checked).
  Counter &counter(const char *Name, MetricLabels Labels = {},
                   const char *Help = "");
  Gauge &gauge(const char *Name, MetricLabels Labels = {},
               const char *Help = "");
  /// \p Bounds are consulted only on first registration.
  Histogram &histogram(const char *Name, std::vector<double> Bounds,
                       MetricLabels Labels = {}, const char *Help = "");

  /// Copies every instrument's current state. Safe under concurrent
  /// recording (each writer's published prefix is visible).
  MetricsSnapshot snapshot() const;

private:
  struct Instrument {
    std::string Name;
    MetricLabels Labels;
    std::string Help;
    MetricKind Kind;
    std::unique_ptr<Counter> C;
    std::unique_ptr<Gauge> G;
    std::unique_ptr<Histogram> H;
  };

  Instrument &obtain(const char *Name, MetricLabels &&Labels,
                     const char *Help, MetricKind Kind,
                     std::vector<double> *Bounds);

  /// Leaf lock (DESIGN.md §11): guards the instrument list only; no
  /// other lock is ever acquired while it is held, and it is taken only
  /// at registration and snapshot — never on the record fast path.
  mutable AnnotatedMutex Mutex{"Obs.Metrics"};
  std::vector<std::unique_ptr<Instrument>> Instruments
      ECAS_GUARDED_BY(Mutex);
};

} // namespace ecas::obs

#endif // ECAS_OBS_METRICS_H
