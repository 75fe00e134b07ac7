//===-- tests/MetricsTest.cpp - Metrics registry & telemetry --------------===//
//
// Part of the ecas project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// Coverage of the metrics tentpole: the lock-free histogram fast path
/// (bucket placement, le semantics, NaN handling, concurrent recording
/// with exact totals), snapshot merging, the Prometheus/JSON/report
/// exporters and the Prometheus parser round trip, the decision-record
/// sinks, and the end-to-end invariants: an EAS run's
/// eas_model_*_rel_error histogram mean equals the SessionReport mean
/// bitwise for a single-class trace, and no combination of attached
/// sinks changes a single invocation's record or the report.
///
//===----------------------------------------------------------------------===//

#include "ecas/core/ExecutionSession.h"
#include "ecas/hw/Presets.h"
#include "ecas/obs/FlightRecorder.h"
#include "ecas/obs/MetricNames.h"
#include "ecas/obs/Metrics.h"
#include "ecas/obs/MetricsExport.h"
#include "ecas/power/Characterizer.h"
#include "ecas/support/AtomicFile.h"
#include "ecas/support/Format.h"

#include "TestSupport.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <thread>
#include <vector>

using namespace ecas;

namespace {

KernelDesc testKernel(const char *Name = "metrics-probe") {
  KernelDesc Kernel;
  Kernel.Name = Name;
  return Kernel.withAutoId();
}

/// One kernel repeated: every invocation lands in a single workload
/// class, which is what makes the report-vs-histogram mean comparison
/// exact.
InvocationTrace singleClassTrace(unsigned Invocations = 60,
                                 double Iterations = 2e6) {
  InvocationTrace Trace;
  for (unsigned I = 0; I != Invocations; ++I)
    Trace.push_back({testKernel(), Iterations});
  return Trace;
}

void expectSameMeasurement(const SessionReport &A, const SessionReport &B) {
  EXPECT_EQ(A.Seconds, B.Seconds);
  EXPECT_EQ(A.Joules, B.Joules);
  EXPECT_EQ(A.MetricValue, B.MetricValue);
  EXPECT_EQ(A.MeanAlpha, B.MeanAlpha);
  EXPECT_EQ(A.Invocations, B.Invocations);
}

} // namespace

//===----------------------------------------------------------------------===//
// Registry
//===----------------------------------------------------------------------===//

TEST(MetricsRegistry, ReturnsSameInstrumentForSameNameAndLabels) {
  obs::MetricsRegistry Registry;
  obs::Counter &A = Registry.counter("eas_test_total", {}, "help");
  obs::Counter &B = Registry.counter("eas_test_total", {}, "other help");
  EXPECT_EQ(&A, &B);
  EXPECT_EQ(instrumentCount(Registry), 1u);

  obs::Counter &Labeled =
      Registry.counter("eas_test_total", {{"class", "c0"}}, "");
  EXPECT_NE(&A, &Labeled);
  EXPECT_EQ(instrumentCount(Registry), 2u);

  A.add();
  A.add(2.5);
  Labeled.add(4.0);
  obs::MetricsSnapshot Snap = Registry.snapshot();
  // total() folds every variant of a family (histograms excluded).
  EXPECT_DOUBLE_EQ(Snap.total("eas_test_total"), 7.5);
  const obs::MetricSample *Plain = findSample(Snap, "eas_test_total", {});
  ASSERT_NE(Plain, nullptr);
  EXPECT_DOUBLE_EQ(Plain->Value, 3.5);
  // Help comes from the first registration.
  EXPECT_EQ(Plain->Help, "help");
}

TEST(MetricsRegistry, GaugeSetsAndAdds) {
  obs::MetricsRegistry Registry;
  obs::Gauge &G = Registry.gauge("eas_drain_seconds", {}, "");
  G.set(2.0);
  G.add(0.5);
  EXPECT_DOUBLE_EQ(G.value(), 2.5);
  G.set(0.25);
  EXPECT_DOUBLE_EQ(Registry.snapshot().find("eas_drain_seconds")->Value, 0.25);
}

TEST(MetricsRegistry, SnapshotIsSortedByNameThenLabels) {
  obs::MetricsRegistry Registry;
  Registry.counter("eas_zz_total", {}, "");
  Registry.counter("eas_aa_total", {{"class", "c1"}}, "");
  Registry.counter("eas_aa_total", {{"class", "c0"}}, "");
  obs::MetricsSnapshot Snap = Registry.snapshot();
  ASSERT_EQ(Snap.Samples.size(), 3u);
  EXPECT_EQ(Snap.Samples[0].Name, "eas_aa_total");
  EXPECT_EQ(Snap.Samples[0].Labels[0].second, "c0");
  EXPECT_EQ(Snap.Samples[1].Labels[0].second, "c1");
  EXPECT_EQ(Snap.Samples[2].Name, "eas_zz_total");
}

//===----------------------------------------------------------------------===//
// Histogram
//===----------------------------------------------------------------------===//

TEST(Histogram, BucketPlacementUsesLessOrEqual) {
  obs::MetricsRegistry Registry;
  obs::Histogram &H =
      Registry.histogram("eas_lat_seconds", {1.0, 2.0, 4.0}, {}, "");
  H.record(0.5);  // bucket 0 (le 1)
  H.record(1.0);  // bucket 0: a value equal to an edge belongs to it
  H.record(1.5);  // bucket 1 (le 2)
  H.record(4.0);  // bucket 2 (le 4)
  H.record(9.0);  // overflow (+Inf)
  H.record(-3.0); // below every bound still lands in bucket 0
  obs::HistogramSnapshot Snap = H.snapshot();
  ASSERT_EQ(Snap.Counts.size(), 4u);
  EXPECT_EQ(Snap.Counts[0], 3u);
  EXPECT_EQ(Snap.Counts[1], 1u);
  EXPECT_EQ(Snap.Counts[2], 1u);
  EXPECT_EQ(Snap.Counts[3], 1u);
  EXPECT_EQ(Snap.Count, 6u);
  EXPECT_DOUBLE_EQ(Snap.Sum, 0.5 + 1.0 + 1.5 + 4.0 + 9.0 - 3.0);
  EXPECT_DOUBLE_EQ(Snap.Min, -3.0);
  EXPECT_DOUBLE_EQ(Snap.Max, 9.0);
}

TEST(Histogram, NanIsDroppedAndEmptySnapshotIsZeroed) {
  obs::MetricsRegistry Registry;
  obs::Histogram &H = Registry.histogram("eas_lat_seconds", {1.0}, {}, "");
  H.record(std::nan(""));
  obs::HistogramSnapshot Snap = H.snapshot();
  EXPECT_EQ(Snap.Count, 0u);
  EXPECT_DOUBLE_EQ(Snap.Sum, 0.0);
  EXPECT_DOUBLE_EQ(Snap.Min, 0.0);
  EXPECT_DOUBLE_EQ(Snap.Max, 0.0);
  EXPECT_TRUE(std::isnan(Snap.quantile(0.5)));
}

TEST(Histogram, QuantilesInterpolateWithinBuckets) {
  obs::MetricsRegistry Registry;
  obs::Histogram &H =
      Registry.histogram("eas_lat_seconds", {1.0, 2.0, 4.0}, {}, "");
  // 10 samples in (0,1], 10 in (1,2]: the median sits exactly on the
  // first edge, p75 halfway through the second bucket.
  for (int I = 0; I != 10; ++I) {
    H.record(0.5);
    H.record(1.5);
  }
  obs::HistogramSnapshot Snap = H.snapshot();
  EXPECT_DOUBLE_EQ(Snap.quantile(0.5), 1.0);
  EXPECT_DOUBLE_EQ(Snap.quantile(0.75), 1.5);
  EXPECT_DOUBLE_EQ(Snap.quantile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(Snap.quantile(1.0), 2.0);
  EXPECT_DOUBLE_EQ(Snap.mean(), 1.0);
}

TEST(Histogram, BucketGenerators) {
  std::vector<double> Log = obs::logBuckets(1.0, 2.0, 4);
  ASSERT_EQ(Log.size(), 4u);
  EXPECT_DOUBLE_EQ(Log[0], 1.0);
  EXPECT_DOUBLE_EQ(Log[3], 8.0);
  std::vector<double> Lin = obs::linearBuckets(0.0, 0.25, 4);
  ASSERT_EQ(Lin.size(), 4u);
  EXPECT_DOUBLE_EQ(Lin[0], 0.25);
  EXPECT_DOUBLE_EQ(Lin[3], 1.0);
}

TEST(Histogram, ConcurrentRecordingIsExact) {
  obs::MetricsRegistry Registry;
  obs::Histogram &H =
      Registry.histogram("eas_mt_seconds", {2.0, 5.0}, {}, "");
  obs::Counter &Total = Registry.counter("eas_mt_total", {}, "");
  constexpr unsigned Threads = 4;
  constexpr unsigned PerThread = 20000;
  std::vector<std::thread> Writers;
  for (unsigned T = 0; T != Threads; ++T)
    Writers.emplace_back([&H, &Total] {
      for (unsigned I = 0; I != PerThread; ++I) {
        // Integer values: double fetch_add sums them exactly, so the
        // totals below are equalities, not tolerances.
        H.record(static_cast<double>(I % 8));
        Total.add();
      }
    });
  for (std::thread &W : Writers)
    W.join();

  obs::HistogramSnapshot Snap = H.snapshot();
  EXPECT_EQ(Snap.Count, uint64_t{Threads} * PerThread);
  // Per thread: sum of 0..7 over 20000/8 cycles.
  EXPECT_DOUBLE_EQ(Snap.Sum, double(Threads) * (PerThread / 8) * 28.0);
  // Values 0,1,2 le 2.0; 3,4,5 le 5.0; 6,7 overflow.
  EXPECT_EQ(Snap.Counts[0], uint64_t{Threads} * PerThread / 8 * 3);
  EXPECT_EQ(Snap.Counts[1], uint64_t{Threads} * PerThread / 8 * 3);
  EXPECT_EQ(Snap.Counts[2], uint64_t{Threads} * PerThread / 8 * 2);
  EXPECT_DOUBLE_EQ(Snap.Min, 0.0);
  EXPECT_DOUBLE_EQ(Snap.Max, 7.0);
  EXPECT_DOUBLE_EQ(Total.value(), double(Threads) * PerThread);
}

//===----------------------------------------------------------------------===//
// Exporters
//===----------------------------------------------------------------------===//

TEST(MetricsExport, PrometheusGolden) {
  obs::MetricsRegistry Registry;
  // FP-exact values (powers of two and their sums) keep the golden
  // stable across platforms.
  obs::Histogram &H = Registry.histogram("eas_lat_seconds", {0.5, 1.0},
                                         {{"class", "c0"}}, "latency");
  H.record(0.25);
  H.record(0.5);
  H.record(2.0);
  Registry.counter("eas_test_total", {}, "a counter").add(3.0);

  std::string Text = obs::renderPrometheus(Registry.snapshot());
  EXPECT_EQ(Text, "# HELP eas_lat_seconds latency\n"
                  "# TYPE eas_lat_seconds histogram\n"
                  "eas_lat_seconds_bucket{class=\"c0\",le=\"0.5\"} 2\n"
                  "eas_lat_seconds_bucket{class=\"c0\",le=\"1\"} 2\n"
                  "eas_lat_seconds_bucket{class=\"c0\",le=\"+Inf\"} 3\n"
                  "eas_lat_seconds_sum{class=\"c0\"} 2.75\n"
                  "eas_lat_seconds_count{class=\"c0\"} 3\n"
                  "# HELP eas_test_total a counter\n"
                  "# TYPE eas_test_total counter\n"
                  "eas_test_total 3\n");
}

TEST(MetricsExport, PrometheusEscapesLabelValues) {
  obs::MetricsRegistry Registry;
  Registry.counter("eas_esc_total", {{"path", "a\\b\"c\nd"}}, "").add();
  std::string Text = obs::renderPrometheus(Registry.snapshot());
  EXPECT_NE(Text.find("path=\"a\\\\b\\\"c\\nd\""), std::string::npos);

  // The parser must invert the escaping exactly.
  ErrorOr<obs::MetricsSnapshot> Back = obs::parsePrometheusText(Text);
  ASSERT_TRUE(Back.ok()) << Back.status().message();
  ASSERT_EQ(Back.value().Samples.size(), 1u);
  EXPECT_EQ(Back.value().Samples[0].Labels[0].second, "a\\b\"c\nd");
}

TEST(MetricsExport, JsonRendersValuesAndHistograms) {
  obs::MetricsRegistry Registry;
  Registry.counter("eas_test_total", {{"k", "v"}}, "").add(2.0);
  obs::Histogram &H = Registry.histogram("eas_lat_seconds", {1.0}, {}, "");
  H.record(0.5);
  std::string Json = obs::renderMetricsJson(Registry.snapshot());
  EXPECT_NE(Json.find("\"name\": \"eas_test_total\""), std::string::npos);
  EXPECT_NE(Json.find("\"kind\": \"counter\""), std::string::npos);
  EXPECT_NE(Json.find("\"k\": \"v\""), std::string::npos);
  EXPECT_NE(Json.find("\"value\": 2"), std::string::npos);
  EXPECT_NE(Json.find("\"bounds\": [1]"), std::string::npos);
  EXPECT_NE(Json.find("\"counts\": [1, 0]"), std::string::npos);
  EXPECT_NE(Json.find("\"sum\": 0.5"), std::string::npos);
}

TEST(MetricsExport, PrometheusRoundTrip) {
  obs::MetricsRegistry Registry;
  obs::Histogram &H = Registry.histogram(
      "eas_lat_seconds", obs::logBuckets(0.001, 4.0, 6), {{"class", "c3"}},
      "round trip");
  for (double V : {0.0005, 0.002, 0.002, 0.3, 10.0, 1e6})
    H.record(V);
  Registry.counter("eas_test_total", {}, "").add(41.0);
  Registry.gauge("eas_drain_seconds", {}, "drain").set(0.125);

  obs::MetricsSnapshot Before = Registry.snapshot();
  ErrorOr<obs::MetricsSnapshot> After =
      obs::parsePrometheusText(obs::renderPrometheus(Before));
  ASSERT_TRUE(After.ok()) << After.status().message();
  ASSERT_EQ(After.value().Samples.size(), Before.Samples.size());
  for (size_t I = 0; I != Before.Samples.size(); ++I) {
    const obs::MetricSample &B = Before.Samples[I];
    const obs::MetricSample &A = After.value().Samples[I];
    EXPECT_EQ(A.Name, B.Name);
    EXPECT_EQ(A.Kind, B.Kind);
    EXPECT_EQ(A.Labels, B.Labels);
    if (B.Kind == obs::MetricKind::Histogram) {
      EXPECT_EQ(A.Hist.UpperBounds, B.Hist.UpperBounds);
      EXPECT_EQ(A.Hist.Counts, B.Hist.Counts);
      EXPECT_EQ(A.Hist.Count, B.Hist.Count);
      EXPECT_EQ(A.Hist.Sum, B.Hist.Sum);
    } else {
      EXPECT_EQ(A.Value, B.Value);
    }
  }
}

TEST(MetricsExport, ParserRejectsMalformedInput) {
  // Histogram with no +Inf bucket: incomplete, not silently dropped.
  ErrorOr<obs::MetricsSnapshot> NoInf = obs::parsePrometheusText(
      "# TYPE eas_lat_seconds histogram\n"
      "eas_lat_seconds_bucket{le=\"1\"} 2\n"
      "eas_lat_seconds_sum 1.5\n"
      "eas_lat_seconds_count 2\n");
  ASSERT_FALSE(NoInf.ok());
  EXPECT_EQ(NoInf.status().code(), ErrCode::Incomplete);

  // Cumulative counts that go down are corrupt.
  ErrorOr<obs::MetricsSnapshot> Shrinking = obs::parsePrometheusText(
      "# TYPE eas_lat_seconds histogram\n"
      "eas_lat_seconds_bucket{le=\"1\"} 5\n"
      "eas_lat_seconds_bucket{le=\"+Inf\"} 3\n"
      "eas_lat_seconds_sum 1.5\n"
      "eas_lat_seconds_count 3\n");
  ASSERT_FALSE(Shrinking.ok());
  EXPECT_EQ(Shrinking.status().code(), ErrCode::CorruptData);

  ErrorOr<obs::MetricsSnapshot> Garbage =
      obs::parsePrometheusText("eas_test_total not-a-number\n");
  ASSERT_FALSE(Garbage.ok());
  EXPECT_EQ(Garbage.status().code(), ErrCode::ParseError);
}

TEST(MetricsExport, ReportRendersHistogramSummaries) {
  obs::MetricsRegistry Registry;
  obs::Histogram &H = Registry.histogram("eas_lat_seconds", {1.0, 2.0}, {}, "");
  for (int I = 0; I != 4; ++I)
    H.record(0.5);
  Registry.counter("eas_test_total", {}, "").add(7.0);
  std::string Report = obs::renderMetricsReport(Registry.snapshot());
  EXPECT_NE(Report.find("eas_lat_seconds"), std::string::npos);
  EXPECT_NE(Report.find("count=4"), std::string::npos);
  EXPECT_NE(Report.find("p50="), std::string::npos);
  EXPECT_NE(Report.find("p99="), std::string::npos);
  EXPECT_NE(Report.find("eas_test_total"), std::string::npos);
}

TEST(MetricsExport, WriteFileAtomicReplacesContent) {
  std::string Path = ::testing::TempDir() + "ecas_metrics_atomic.txt";
  ASSERT_TRUE(writeFileAtomic(Path, "first\n").ok());
  ASSERT_TRUE(writeFileAtomic(Path, "second\n").ok());
  std::ifstream In(Path);
  std::string Content((std::istreambuf_iterator<char>(In)),
                      std::istreambuf_iterator<char>());
  EXPECT_EQ(Content, "second\n");
  std::remove(Path.c_str());
}

//===----------------------------------------------------------------------===//
// Decision records (the flight recorder's ring; FlightRecorder tests in
// ForensicsTest cover its wrap behaviour)
//===----------------------------------------------------------------------===//

TEST(DecisionLog, SinksRenderCsvAndJsonLines) {
  obs::FlightRecorder Flight;
  obs::DecisionRecord R;
  R.KernelId = 7;
  R.ClassIndex = 3;
  R.Alpha = 0.5;
  R.HasPrediction = true;
  R.PredictedSeconds = 0.25;
  R.TableHit = true;
  Flight.recordDecision(R);
  Flight.recordDecision(R);
  std::vector<obs::DecisionRecord> Records = Flight.drain().Decisions;

  std::string Csv = obs::DecisionLogSink::renderCsv(Records);
  EXPECT_EQ(Csv.find("sequence"), 0u); // header row first
  EXPECT_EQ(std::count(Csv.begin(), Csv.end(), '\n'), 3); // header + 2 rows

  std::string Jsonl = obs::DecisionLogSink::renderJsonLines(Records);
  EXPECT_EQ(std::count(Jsonl.begin(), Jsonl.end(), '\n'), 2);
  EXPECT_EQ(Jsonl.front(), '{');
  EXPECT_NE(Jsonl.find("\"kernel_id\": 7"), std::string::npos);

  std::string Path = ::testing::TempDir() + "ecas_decisions.csv";
  ASSERT_TRUE(obs::DecisionLogSink::write(Records, Path).ok());
  std::ifstream In(Path);
  std::string Content((std::istreambuf_iterator<char>(In)),
                      std::istreambuf_iterator<char>());
  EXPECT_EQ(Content, Csv);
  std::remove(Path.c_str());
}

//===----------------------------------------------------------------------===//
// End to end through the scheduler
//===----------------------------------------------------------------------===//

TEST(EasTelemetry, RegistryMatchesSessionReport) {
  InvocationTrace Trace = singleClassTrace();
  ExecutionSession Session(haswellDesktop());

  obs::MetricsRegistry Registry;
  obs::FlightRecorder Flight;
  RunOptions Options;
  Options.Trace = &Trace;
  Options.Curves = &desktopCurves();
  Options.Objective = Metric::edp();
  Options.Metrics = &Registry;
  Options.Eas.Flight = &Flight;
  SessionReport Report = Session.run(SchemeKind::Eas, Options);

  obs::MetricsSnapshot Snap = Registry.snapshot();
  EXPECT_DOUBLE_EQ(Snap.total(obs::names::InvocationsTotal),
                   double(Report.Invocations));
  EXPECT_DOUBLE_EQ(Snap.total(obs::names::TableHitsTotal) +
                       Snap.total(obs::names::TableMissesTotal),
                   double(Report.Invocations));
  EXPECT_DOUBLE_EQ(Snap.total(obs::names::ProfileRepsTotal),
                   double(Report.ProfileRepetitions));
  EXPECT_DOUBLE_EQ(Snap.total(obs::names::CpuOnlyTotal),
                   double(Report.CpuOnlyFastPaths));
  EXPECT_GT(Snap.total(obs::names::MsrReadsTotal), 0.0);

  const obs::MetricSample *Alpha = Snap.find(obs::names::AlphaChosen);
  ASSERT_NE(Alpha, nullptr);
  EXPECT_EQ(Alpha->Hist.Count, uint64_t{Report.Invocations});

  // Exactly one workload class saw model samples (one kernel repeated),
  // and its histogram was folded in the same order as the report means —
  // the equality is bitwise, not approximate.
  ASSERT_GT(Report.ModelSamples, 0u);
  uint64_t TimeErrCount = 0;
  const obs::MetricSample *ClassSample = nullptr;
  for (const obs::MetricSample &S : Snap.Samples) {
    if (S.Name != obs::names::ModelTimeRelError)
      continue;
    TimeErrCount += S.Hist.Count;
    if (S.Hist.Count)
      ClassSample = &S;
  }
  EXPECT_EQ(TimeErrCount, uint64_t{Report.ModelSamples});
  ASSERT_NE(ClassSample, nullptr);
  EXPECT_EQ(ClassSample->Hist.mean(), Report.ModelTimeRelError);
  ASSERT_EQ(ClassSample->Labels.size(), 2u);
  EXPECT_EQ(ClassSample->Labels[0].first, "class");
  EXPECT_EQ(ClassSample->Labels[1].first, "pstate");

  const obs::MetricSample *EnergySample =
      findSample(Snap, obs::names::ModelEnergyRelError, ClassSample->Labels);
  ASSERT_NE(EnergySample, nullptr);
  EXPECT_EQ(EnergySample->Hist.Count, uint64_t{Report.ModelSamples});
  EXPECT_EQ(EnergySample->Hist.mean(), Report.ModelEnergyRelError);

  // One decision record per invocation; the newest ones are resident.
  obs::FlightSnapshot FlightSnap = Flight.drain();
  EXPECT_EQ(FlightSnap.DecisionsRecorded, uint64_t{Report.Invocations});
  const std::vector<obs::DecisionRecord> &Audit = FlightSnap.Decisions;
  ASSERT_FALSE(Audit.empty());
  unsigned Hits = 0, Misses = 0;
  for (const obs::DecisionRecord &R : Audit) {
    EXPECT_FALSE(R.Cancelled);
    Hits += R.TableHit;
    Misses += R.Profiled;
  }
  EXPECT_EQ(Hits + Misses, unsigned(Audit.size()));
}

// eas_alpha_search_evaluations observes one search per profiled
// invocation: the whole repetition loop feeds a single search, so one
// invocation records one sample — one 0.1-step grid, 11 evaluations —
// well inside the histogram's 0-128 range.
TEST(EasTelemetry, AlphaSearchEvaluationsRecordOneSearchPerInvocation) {
  obs::MetricsRegistry Registry;
  EasConfig Config;
  Config.Metrics = &Registry;
  EasScheduler Scheduler(desktopFamily(), Metric::edp(), Config);
  SimProcessor Proc(haswellDesktop());
  EasScheduler::InvocationOutcome Outcome =
      Scheduler.execute(Proc, testKernel(), 2e6);
  ASSERT_TRUE(Outcome.Profiled);
  ASSERT_GT(Outcome.ProfileRepetitions, 1u);
  EXPECT_EQ(Outcome.AlphaSearches, 1u);
  EXPECT_EQ(Outcome.AlphaEvaluations, 11u);

  obs::MetricsSnapshot Snap = Registry.snapshot();
  const obs::MetricSample *Evals = Snap.find(obs::names::AlphaSearchEvals);
  ASSERT_NE(Evals, nullptr);
  EXPECT_EQ(Evals->Hist.Count, 1u);
  EXPECT_EQ(Evals->Hist.Sum, double(Outcome.AlphaEvaluations));
  ASSERT_FALSE(Evals->Hist.Counts.empty());
  EXPECT_EQ(Evals->Hist.Counts.back(), 0u); // overflow bucket
  EXPECT_LT(Evals->Hist.Max, Evals->Hist.UpperBounds.back());

  // A session counts one search per profiled invocation.
  InvocationTrace Trace = singleClassTrace();
  ExecutionSession Session(haswellDesktop());
  obs::MetricsRegistry SessionRegistry;
  RunOptions Options;
  Options.Trace = &Trace;
  Options.Curves = &desktopCurves();
  Options.Objective = Metric::edp();
  Options.Metrics = &SessionRegistry;
  SessionReport Report = Session.run(SchemeKind::Eas, Options);
  obs::MetricsSnapshot SessionSnap = SessionRegistry.snapshot();
  double Profiled = SessionSnap.total(obs::names::TableMissesTotal);
  ASSERT_GT(Profiled, 0.0);
  EXPECT_EQ(double(Report.AlphaSearches), Profiled);
  const obs::MetricSample *SessionEvals =
      SessionSnap.find(obs::names::AlphaSearchEvals);
  ASSERT_NE(SessionEvals, nullptr);
  EXPECT_EQ(double(SessionEvals->Hist.Count), Profiled);
  EXPECT_EQ(SessionEvals->Hist.Counts.back(), 0u);
}

TEST(EasTelemetry, NullRegistryIsBitIdentical) {
  InvocationTrace Trace = singleClassTrace();
  ExecutionSession Session(haswellDesktop());
  RunOptions Options;
  Options.Trace = &Trace;
  Options.Curves = &desktopCurves();
  Options.Objective = Metric::edp();
  SessionReport Bare = Session.run(SchemeKind::Eas, Options);

  obs::MetricsRegistry Registry;
  obs::FlightRecorder Flight;
  Options.Metrics = &Registry;
  Options.Eas.Flight = &Flight;
  SessionReport Observed = Session.run(SchemeKind::Eas, Options);

  // The telemetry is pure observation: const reads of the clock, the
  // emulated MSR, and table G. Attaching it must not move a single bit.
  expectSameMeasurement(Bare, Observed);
  EXPECT_EQ(Bare.ProfileRepetitions, Observed.ProfileRepetitions);
  EXPECT_EQ(Bare.AlphaSearches, Observed.AlphaSearches);

  // Table hits predict whatever sinks are attached, so the model
  // samples match too.
  EXPECT_GT(Bare.ModelSamples, 0u);
  EXPECT_EQ(Bare.ModelSamples, Observed.ModelSamples);
  EXPECT_EQ(Bare.ModelTimeRelError, Observed.ModelTimeRelError);
  EXPECT_EQ(Bare.ModelEnergyRelError, Observed.ModelEnergyRelError);
}

namespace {

/// A trace that takes every admitted path: first-seen kernels profile,
/// repeats hit table G, and invocations below the GPU profiling size
/// run CPU-alone.
InvocationTrace mixedPathTrace() {
  InvocationTrace Trace;
  for (unsigned I = 0; I != 12; ++I) {
    Trace.push_back({testKernel("sinks-large"), 2e6});
    Trace.push_back({testKernel("sinks-small"), 64});
    Trace.push_back({testKernel("sinks-varying"), 4e5 + 5e4 * I});
  }
  return Trace;
}

uint64_t bitsOf(double V) {
  uint64_t Bits;
  std::memcpy(&Bits, &V, sizeof Bits);
  return Bits;
}

void expectSameOutcome(const EasScheduler::InvocationOutcome &A,
                       const EasScheduler::InvocationOutcome &B) {
  EXPECT_EQ(bitsOf(A.AlphaUsed), bitsOf(B.AlphaUsed));
  EXPECT_EQ(A.PState, B.PState);
  EXPECT_EQ(bitsOf(A.Seconds), bitsOf(B.Seconds));
  EXPECT_EQ(A.Profiled, B.Profiled);
  EXPECT_EQ(A.CpuOnlyFastPath, B.CpuOnlyFastPath);
  EXPECT_EQ(A.Class.index(), B.Class.index());
  EXPECT_EQ(A.ProfileRepetitions, B.ProfileRepetitions);
  EXPECT_EQ(A.AlphaSearches, B.AlphaSearches);
  EXPECT_EQ(A.GpuQuarantined, B.GpuQuarantined);
  EXPECT_EQ(A.HangDetected, B.HangDetected);
  EXPECT_EQ(A.LaunchRetries, B.LaunchRetries);
  EXPECT_EQ(A.GpuReadmitted, B.GpuReadmitted);
  EXPECT_EQ(A.Rejected, B.Rejected);
  EXPECT_EQ(A.Cancelled, B.Cancelled);
  EXPECT_EQ(A.TableHit, B.TableHit);
  EXPECT_EQ(A.HasPrediction, B.HasPrediction);
  EXPECT_EQ(bitsOf(A.PredictedSeconds), bitsOf(B.PredictedSeconds));
  EXPECT_EQ(bitsOf(A.PredictedWatts), bitsOf(B.PredictedWatts));
  EXPECT_EQ(bitsOf(A.PredictedMetric), bitsOf(B.PredictedMetric));
  EXPECT_EQ(bitsOf(A.MeasuredSeconds), bitsOf(B.MeasuredSeconds));
  EXPECT_EQ(bitsOf(A.MeasuredJoules), bitsOf(B.MeasuredJoules));
  EXPECT_EQ(bitsOf(A.ProfileSeconds), bitsOf(B.ProfileSeconds));
  EXPECT_EQ(A.AlphaEvaluations, B.AlphaEvaluations);
}

} // namespace

// The decision record is the same whichever sinks watch it: every
// InvocationOutcome field — the table-hit prediction included — and the
// report's model-fidelity figures are bit-identical with nothing, each
// sink alone, and all three attached, at fixed frequency and with the
// joint (alpha, P-state) search.
// Replayed profiling repetitions are observed exactly as stepped ones
// are: one profile-rep span per repetition, at the virtual start and
// with the measured split of the stepped reference's sample, and the
// same eas_profile_rep_seconds series.
TEST(EasTelemetry, ReplayedRepetitionsEmitTheSteppedSpans) {
  PlatformSpec Spec = haswellDesktop();
  SimProcessor Proc(Spec);
  obs::FlightRecorder Recorder(obs::FlightRecorder::Unbounded);
  obs::MetricsRegistry Registry;
  EasConfig Config;
  Config.Trace = &Recorder;
  Config.Metrics = &Registry;
  EasScheduler Scheduler(desktopFamily(), Metric::edp(), Config);
  KernelDesc Kernel = testKernel();
  const double Iterations = 2e7;
  EasScheduler::InvocationOutcome Outcome =
      Scheduler.execute(Proc, Kernel, Iterations);
  ASSERT_TRUE(Outcome.Profiled);
  ASSERT_GT(Outcome.ProfileRepetitions, 10u);
  EXPECT_GT(Proc.repetitionsReplayed(), Outcome.ProfileRepetitions / 2);

  std::vector<const obs::TraceEvent *> Spans;
  obs::TraceLog Log = Recorder.drain().Trace;
  for (const obs::TraceEvent &E : Log.Events)
    if (std::string(E.Name) == "profile-rep")
      Spans.push_back(&E);
  ASSERT_EQ(Spans.size(), Outcome.ProfileRepetitions);

  // The stepped reference: the same repetitions from the same pool on a
  // fresh twin of the processor.
  SimProcessor Twin(Spec);
  double Nrem = Iterations;
  uint64_t Count = 0;
  double Sum = 0.0;
  for (const obs::TraceEvent *Span : Spans) {
    double Start = Twin.now();
    ProfileSample Sample = steppedRepetition(
        Twin, Kernel, Spec.defaultGpuProfileSize(), Nrem);
    EXPECT_EQ(std::bit_cast<uint64_t>(Span->VirtualSeconds),
              std::bit_cast<uint64_t>(Start));
    EXPECT_EQ(Span->Detail,
              formatString("cpu=%.0f gpu=%.0f elapsed=%.6fs",
                           Sample.CpuIterations, Sample.GpuIterations,
                           Sample.ElapsedSeconds));
    if (Sample.ElapsedSeconds > 0.0) {
      ++Count;
      Sum += Sample.ElapsedSeconds;
    }
  }
  obs::MetricsSnapshot Snap = Registry.snapshot();
  const obs::MetricSample *Reps = Snap.find(obs::names::ProfileRepSeconds);
  ASSERT_NE(Reps, nullptr);
  EXPECT_EQ(Reps->Hist.Count, Count);
  EXPECT_EQ(std::bit_cast<uint64_t>(Reps->Hist.Sum),
            std::bit_cast<uint64_t>(Sum));
}

TEST(EasTelemetry, AttachedSinksCannotChangeTheRecord) {
  InvocationTrace Trace = mixedPathTrace();
  for (unsigned NumPStates : {1u, 4u}) {
    SCOPED_TRACE(NumPStates);
    PlatformSpec Spec = haswellDesktop();
    PowerCurveFamily Family = desktopFamily();
    if (NumPStates > 1) {
      Spec.synthesizePStates(NumPStates);
      CharacterizerConfig CharConfig;
      CharConfig.AlphaStep = 0.5;
      CharConfig.PolyDegree = 2;
      Family = characterizeFamily(Spec, CharConfig);
    }
    ExecutionSession Session(Spec);

    std::vector<EasScheduler::InvocationOutcome> Baseline;
    SessionReport BaselineReport;
    struct Sinks {
      const char *Name;
      bool Trace, Metrics, Flight;
    };
    for (Sinks Attached : {Sinks{"none", false, false, false},
                           Sinks{"trace", true, false, false},
                           Sinks{"metrics", false, true, false},
                           Sinks{"flight", false, false, true},
                           Sinks{"all", true, true, true}}) {
      SCOPED_TRACE(Attached.Name);
      obs::FlightRecorder Recorder(obs::FlightRecorder::Unbounded);
      obs::MetricsRegistry Registry;
      obs::FlightRecorder Flight;
      EasConfig Config;
      Config.PStates = NumPStates > 1;
      Config.Trace = Attached.Trace ? &Recorder : nullptr;
      Config.Metrics = Attached.Metrics ? &Registry : nullptr;
      Config.Flight = Attached.Flight ? &Flight : nullptr;

      std::vector<EasScheduler::InvocationOutcome> Outcomes;
      {
        EasScheduler Scheduler(Family, Metric::edp(), Config);
        SimProcessor Proc(Spec);
        for (const KernelInvocation &Inv : Trace)
          Outcomes.push_back(
              Scheduler.execute(Proc, Inv.Kernel, Inv.Iterations));
      }
      RunOptions Options;
      Options.Trace = &Trace;
      Options.CurveFamily = &Family;
      Options.Objective = Metric::edp();
      Options.Eas = Config;
      SessionReport Report = Session.run(SchemeKind::Eas, Options);

      if (Baseline.empty()) {
        // The trace must exercise every admitted path, and the hits must
        // carry a prediction even with no sink attached.
        unsigned Hits = 0, Profiled = 0, CpuOnly = 0, PredictedHits = 0;
        for (const EasScheduler::InvocationOutcome &O : Outcomes) {
          Hits += O.TableHit;
          Profiled += O.Profiled;
          CpuOnly += O.CpuOnlyFastPath;
          PredictedHits += O.TableHit && O.HasPrediction;
        }
        EXPECT_GT(Hits, 0u);
        EXPECT_GT(Profiled, 0u);
        EXPECT_GT(CpuOnly, 0u);
        EXPECT_EQ(PredictedHits, Hits);
        Baseline = Outcomes;
        BaselineReport = Report;
        continue;
      }
      ASSERT_EQ(Outcomes.size(), Baseline.size());
      for (size_t I = 0; I != Outcomes.size(); ++I) {
        SCOPED_TRACE(I);
        expectSameOutcome(Baseline[I], Outcomes[I]);
      }
      expectSameMeasurement(BaselineReport, Report);
      EXPECT_EQ(Report.ModelSamples, BaselineReport.ModelSamples);
      EXPECT_EQ(bitsOf(Report.ModelTimeRelError),
                bitsOf(BaselineReport.ModelTimeRelError));
      EXPECT_EQ(bitsOf(Report.ModelEnergyRelError),
                bitsOf(BaselineReport.ModelEnergyRelError));
    }
  }
}

TEST(EasTelemetry, PStateLabelRendersAndRoundTrips) {
  // With a multi-state family the per-class error and alpha series gain
  // a "pstate" label; the strict Prometheus text codec must carry it
  // losslessly (satellite 6 of the OperatingPoint redesign).
  PlatformSpec Spec = haswellDesktop();
  Spec.synthesizePStates(3);
  CharacterizerConfig CharConfig;
  CharConfig.AlphaStep = 0.5;
  CharConfig.PolyDegree = 2;
  PowerCurveFamily Family = characterizeFamily(Spec, CharConfig);

  InvocationTrace Trace = singleClassTrace();
  ExecutionSession Session(Spec);
  obs::MetricsRegistry Registry;
  RunOptions Options;
  Options.Trace = &Trace;
  Options.CurveFamily = &Family;
  Options.Objective = Metric::energy();
  Options.Metrics = &Registry;
  Options.Eas.PStates = true;
  SessionReport Report = Session.run(SchemeKind::Eas, Options);
  ASSERT_GT(Report.Invocations, 0u);

  obs::MetricsSnapshot Snap = Registry.snapshot();
  const obs::MetricSample *Alpha = nullptr;
  for (const obs::MetricSample &S : Snap.Samples) {
    if (S.Name != obs::names::AlphaChosen || !S.Hist.Count)
      continue;
    Alpha = &S;
    break;
  }
  ASSERT_NE(Alpha, nullptr);
  bool SawPState = false;
  std::string PStateValue;
  for (const auto &[Key, Value] : Alpha->Labels) {
    if (Key != "pstate")
      continue;
    SawPState = true;
    PStateValue = Value;
  }
  EXPECT_TRUE(SawPState);

  // The per-class model-error series fan out by both class and pstate.
  for (const obs::MetricSample &S : Snap.Samples) {
    if (S.Name != obs::names::ModelTimeRelError || !S.Hist.Count)
      continue;
    bool HasClass = false, HasPState = false;
    for (const auto &[Key, Value] : S.Labels) {
      HasClass |= Key == "class";
      HasPState |= Key == "pstate";
    }
    EXPECT_TRUE(HasClass);
    EXPECT_TRUE(HasPState);
  }
  // The label holds a bare ladder index within the advertised table.
  ASSERT_FALSE(PStateValue.empty());
  unsigned Index = std::stoul(PStateValue);
  EXPECT_LT(Index, Spec.pstateCount());

  std::string Text = obs::renderPrometheus(Snap);
  EXPECT_NE(Text.find("pstate=\"" + PStateValue + "\""), std::string::npos);
  ErrorOr<obs::MetricsSnapshot> Parsed = obs::parsePrometheusText(Text);
  ASSERT_TRUE(Parsed.ok()) << Parsed.status().toString();
  const obs::MetricSample *Back =
      findSample(*Parsed, obs::names::AlphaChosen, Alpha->Labels);
  ASSERT_NE(Back, nullptr);
  EXPECT_EQ(Back->Hist.Count, Alpha->Hist.Count);
  EXPECT_EQ(obs::renderPrometheus(*Parsed), Text);
}

TEST(EasTelemetry, PStateResidencyGaugeAccumulates) {
  // Every completed invocation adds its virtual seconds to the gauge of
  // the P-state it ran in, so summed residency across the family equals
  // the work the scheduler actually placed — the statusz "pstate" lines
  // read these same instruments.
  PlatformSpec Spec = haswellDesktop();
  Spec.synthesizePStates(3);
  CharacterizerConfig CharConfig;
  CharConfig.AlphaStep = 0.5;
  CharConfig.PolyDegree = 2;
  PowerCurveFamily Family = characterizeFamily(Spec, CharConfig);

  InvocationTrace Trace = singleClassTrace();
  ExecutionSession Session(Spec);
  obs::MetricsRegistry Registry;
  RunOptions Options;
  Options.Trace = &Trace;
  Options.CurveFamily = &Family;
  Options.Objective = Metric::energy();
  Options.Metrics = &Registry;
  Options.Eas.PStates = true;
  SessionReport Report = Session.run(SchemeKind::Eas, Options);
  ASSERT_GT(Report.Invocations, 0u);

  obs::MetricsSnapshot Snap = Registry.snapshot();
  size_t ResidencySamples = 0;
  double TotalResidency = 0.0;
  for (const obs::MetricSample &S : Snap.Samples) {
    if (S.Name != obs::names::PStateResidencySeconds)
      continue;
    ++ResidencySamples;
    EXPECT_EQ(S.Kind, obs::MetricKind::Gauge);
    ASSERT_EQ(S.Labels.size(), 1u);
    EXPECT_EQ(S.Labels[0].first, "pstate");
    unsigned Index = std::stoul(S.Labels[0].second);
    EXPECT_LT(Index, Spec.pstateCount());
    EXPECT_GE(S.Value, 0.0);
    TotalResidency += S.Value;
  }
  // One gauge per ladder state, registered eagerly so the family is
  // complete (zero-valued states included), and the run left real
  // residency behind.
  EXPECT_EQ(ResidencySamples, size_t{Spec.pstateCount()});
  EXPECT_GT(TotalResidency, 0.0);
}
