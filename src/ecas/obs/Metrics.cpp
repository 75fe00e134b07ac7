//===-- ecas/obs/Metrics.cpp - Counters, gauges, histograms --------------===//
//
// Part of the ecas project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "ecas/obs/Metrics.h"

#include "ecas/support/Assert.h"
#include "ecas/support/Stats.h"

#include <algorithm>
#include <cmath>
#include <limits>

using namespace ecas;
using namespace ecas::obs;

double HistogramSnapshot::quantile(double Q) const {
  return quantileFromBuckets(UpperBounds, Counts, Q);
}

Histogram::Histogram(std::vector<double> Bounds)
    : UpperBounds(std::move(Bounds)),
      Buckets(new std::atomic<uint64_t>[UpperBounds.size() + 1]),
      Min(std::numeric_limits<double>::infinity()),
      Max(-std::numeric_limits<double>::infinity()) {
  ECAS_CHECK(std::is_sorted(UpperBounds.begin(), UpperBounds.end()),
             "histogram bounds must be ascending");
  for (double B : UpperBounds)
    ECAS_CHECK(std::isfinite(B), "histogram bounds must be finite");
  for (size_t I = 0; I != UpperBounds.size() + 1; ++I)
    Buckets[I].store(0, std::memory_order_relaxed);
}

void Histogram::record(double Value) {
  if (std::isnan(Value))
    return;
  // lower_bound, not upper_bound: a value equal to an edge belongs to
  // that edge's bucket (Prometheus le is less-or-equal).
  size_t Idx = std::lower_bound(UpperBounds.begin(), UpperBounds.end(), Value) -
               UpperBounds.begin();
  Buckets[Idx].fetch_add(1, std::memory_order_relaxed);
  Count.fetch_add(1, std::memory_order_relaxed);
  Sum.fetch_add(Value, std::memory_order_relaxed);
  double Seen = Min.load(std::memory_order_relaxed);
  while (Value < Seen &&
         !Min.compare_exchange_weak(Seen, Value, std::memory_order_relaxed)) {
  }
  Seen = Max.load(std::memory_order_relaxed);
  while (Value > Seen &&
         !Max.compare_exchange_weak(Seen, Value, std::memory_order_relaxed)) {
  }
}

HistogramSnapshot Histogram::snapshot() const {
  HistogramSnapshot Snap;
  Snap.UpperBounds = UpperBounds;
  Snap.Counts.resize(UpperBounds.size() + 1);
  for (size_t I = 0; I != Snap.Counts.size(); ++I)
    Snap.Counts[I] = Buckets[I].load(std::memory_order_relaxed);
  Snap.Count = Count.load(std::memory_order_relaxed);
  Snap.Sum = Sum.load(std::memory_order_relaxed);
  if (Snap.Count == 0) {
    Snap.Min = Snap.Max = 0.0;
  } else {
    Snap.Min = Min.load(std::memory_order_relaxed);
    Snap.Max = Max.load(std::memory_order_relaxed);
  }
  return Snap;
}

std::vector<double> ecas::obs::logBuckets(double First, double Factor,
                                          unsigned Count) {
  ECAS_CHECK(First > 0.0 && Factor > 1.0, "log buckets need First>0, Factor>1");
  std::vector<double> Bounds;
  Bounds.reserve(Count);
  double Edge = First;
  for (unsigned I = 0; I != Count; ++I) {
    Bounds.push_back(Edge);
    Edge *= Factor;
  }
  return Bounds;
}

std::vector<double> ecas::obs::linearBuckets(double Start, double Width,
                                             unsigned Count) {
  ECAS_CHECK(Width > 0.0, "linear buckets need a positive width");
  std::vector<double> Bounds;
  Bounds.reserve(Count);
  for (unsigned I = 0; I != Count; ++I)
    Bounds.push_back(Start + Width * static_cast<double>(I + 1));
  return Bounds;
}

const char *ecas::obs::metricKindName(MetricKind Kind) {
  switch (Kind) {
  case MetricKind::Counter:
    return "counter";
  case MetricKind::Gauge:
    return "gauge";
  case MetricKind::Histogram:
    return "histogram";
  }
  return "counter";
}

const MetricSample *MetricsSnapshot::find(const std::string &Name) const {
  for (const MetricSample &S : Samples)
    if (S.Name == Name)
      return &S;
  return nullptr;
}

double MetricsSnapshot::total(const std::string &Name) const {
  double Sum = 0.0;
  for (const MetricSample &S : Samples)
    if (S.Name == Name && S.Kind != MetricKind::Histogram)
      Sum += S.Value;
  return Sum;
}

Counter &MetricsRegistry::counter(const char *Name, MetricLabels Labels,
                                  const char *Help) {
  Instrument &I =
      obtain(Name, std::move(Labels), Help, MetricKind::Counter, nullptr);
  return *I.C;
}

Gauge &MetricsRegistry::gauge(const char *Name, MetricLabels Labels,
                              const char *Help) {
  Instrument &I =
      obtain(Name, std::move(Labels), Help, MetricKind::Gauge, nullptr);
  return *I.G;
}

Histogram &MetricsRegistry::histogram(const char *Name,
                                      std::vector<double> Bounds,
                                      MetricLabels Labels, const char *Help) {
  Instrument &I =
      obtain(Name, std::move(Labels), Help, MetricKind::Histogram, &Bounds);
  return *I.H;
}

MetricsRegistry::Instrument &
MetricsRegistry::obtain(const char *Name, MetricLabels &&Labels,
                        const char *Help, MetricKind Kind,
                        std::vector<double> *Bounds) {
  LockGuard Lock(Mutex);
  for (const std::unique_ptr<Instrument> &I : Instruments) {
    if (I->Name == Name && I->Labels == Labels) {
      ECAS_CHECK(I->Kind == Kind,
                 "metric re-registered with a different instrument kind");
      return *I;
    }
  }
  auto Fresh = std::make_unique<Instrument>();
  Fresh->Name = Name;
  Fresh->Labels = std::move(Labels);
  Fresh->Help = Help;
  Fresh->Kind = Kind;
  switch (Kind) {
  case MetricKind::Counter:
    Fresh->C = std::make_unique<Counter>();
    break;
  case MetricKind::Gauge:
    Fresh->G = std::make_unique<Gauge>();
    break;
  case MetricKind::Histogram:
    ECAS_CHECK(Bounds, "histogram registration requires bucket bounds");
    Fresh->H = std::make_unique<Histogram>(std::move(*Bounds));
    break;
  }
  Instruments.push_back(std::move(Fresh));
  return *Instruments.back();
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot Snap;
  LockGuard Lock(Mutex);
  Snap.Samples.reserve(Instruments.size());
  for (const std::unique_ptr<Instrument> &I : Instruments) {
    MetricSample S;
    S.Name = I->Name;
    S.Labels = I->Labels;
    S.Help = I->Help;
    S.Kind = I->Kind;
    switch (I->Kind) {
    case MetricKind::Counter:
      S.Value = I->C->value();
      break;
    case MetricKind::Gauge:
      S.Value = I->G->value();
      break;
    case MetricKind::Histogram:
      S.Hist = I->H->snapshot();
      break;
    }
    Snap.Samples.push_back(std::move(S));
  }
  std::sort(Snap.Samples.begin(), Snap.Samples.end(),
            [](const MetricSample &A, const MetricSample &B) {
              if (A.Name != B.Name)
                return A.Name < B.Name;
              return A.Labels < B.Labels;
            });
  return Snap;
}
