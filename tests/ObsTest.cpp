//===-- tests/ObsTest.cpp - Observability layer ---------------------------===//
//
// Part of the ecas project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// Coverage of the observability tentpole: multi-threaded recording into
/// the per-thread buffers, ScopedSpan pairing, the Chrome trace-event
/// exporter and its parser (round trip + malformed-input rejection), the
/// CSV and summary sinks, the unified ExecutionSession::run() API with
/// SchemeKind, EasConfig::validate(), and the two invariants the design
/// stands on: a null recorder leaves scheduling bit-identical, and an
/// attached recorder never perturbs the decisions it observes.
///
//===----------------------------------------------------------------------===//

#include "ecas/core/ExecutionSession.h"
#include "ecas/hw/Presets.h"
#include "ecas/obs/ChromeTrace.h"
#include "ecas/obs/FlightRecorder.h"
#include "ecas/obs/MetricNames.h"
#include "ecas/obs/Metrics.h"
#include "ecas/obs/Sinks.h"
#include "ecas/obs/Trace.h"

#include "TestSupport.h"

#include <gtest/gtest.h>

#include <cmath>
#include <thread>
#include <vector>

using namespace ecas;

namespace {

KernelDesc testKernel(const char *Name = "obs-probe") {
  KernelDesc Kernel;
  Kernel.Name = Name;
  return Kernel.withAutoId();
}

InvocationTrace shortTrace(unsigned Invocations = 40,
                           double Iterations = 2e6) {
  InvocationTrace Trace;
  for (unsigned I = 0; I != Invocations; ++I)
    Trace.push_back({testKernel(), Iterations});
  return Trace;
}

/// The numeric fields two reports must share for runs to count as
/// bit-identical (the scheme Kind is checked separately).
void expectSameMeasurement(const SessionReport &A, const SessionReport &B) {
  EXPECT_EQ(A.Seconds, B.Seconds);
  EXPECT_EQ(A.Joules, B.Joules);
  EXPECT_EQ(A.MetricValue, B.MetricValue);
  EXPECT_EQ(A.MeanAlpha, B.MeanAlpha);
  EXPECT_EQ(A.Invocations, B.Invocations);
}

} // namespace

//===----------------------------------------------------------------------===//
// TraceRecorder
//===----------------------------------------------------------------------===//

TEST(TraceRecorder, RecordsSpansInstantsAndCounters) {
  obs::TraceRecorder Rec;
  Rec.beginSpan("t", "outer");
  Rec.instant("t", "tick", 1.5, "n=1");
  Rec.count("t.events", 2.0);
  Rec.count("t.events");
  Rec.endSpan("t", "outer");

  obs::TraceLog Log = Rec.drain();
  ASSERT_EQ(Log.Events.size(), 5u);
  EXPECT_EQ(Log.Events.front().Kind, obs::EventKind::SpanBegin);
  EXPECT_EQ(Log.Events.back().Kind, obs::EventKind::SpanEnd);
  EXPECT_EQ(Log.countNamed("tick"), 1u);
  EXPECT_DOUBLE_EQ(Log.counterTotal("t.events"), 3.0);
  EXPECT_DOUBLE_EQ(Log.counterTotal("never-fired"), 0.0);
  ASSERT_EQ(Log.Counters.size(), 1u);
  EXPECT_EQ(Log.Counters.front().Samples, 2u);
  EXPECT_EQ(Rec.eventsRecorded(), 5u);
}

TEST(TraceRecorder, VirtualTimestampsAreOptional) {
  obs::TraceRecorder Rec;
  Rec.instant("t", "with-virtual", 2.25);
  Rec.instant("t", "host-only");
  obs::TraceLog Log = Rec.drain();
  ASSERT_EQ(Log.Events.size(), 2u);
  EXPECT_TRUE(Log.Events[0].hasVirtualTime());
  EXPECT_DOUBLE_EQ(Log.Events[0].VirtualSeconds, 2.25);
  EXPECT_FALSE(Log.Events[1].hasVirtualTime());
}

TEST(TraceRecorder, ConcurrentWritersMergeInOrder) {
  obs::TraceRecorder Rec;
  constexpr unsigned Threads = 4;
  constexpr unsigned PerThread = 2000; // > one 512-event chunk each
  std::vector<std::thread> Writers;
  for (unsigned T = 0; T != Threads; ++T)
    Writers.emplace_back([&Rec] {
      for (unsigned I = 0; I != PerThread; ++I) {
        Rec.count("mt.count");
        Rec.instant("mt", "spin");
      }
    });
  for (std::thread &W : Writers)
    W.join();

  obs::TraceLog Log = Rec.drain();
  EXPECT_EQ(Log.Events.size(), size_t{2} * Threads * PerThread);
  EXPECT_DOUBLE_EQ(Log.counterTotal("mt.count"),
                   double(Threads) * PerThread);
  for (size_t I = 1; I < Log.Events.size(); ++I)
    EXPECT_LE(Log.Events[I - 1].HostSeconds, Log.Events[I].HostSeconds);
}

TEST(TraceRecorder, DrainWhileRecordingSeesAPrefix) {
  obs::TraceRecorder Rec;
  for (unsigned I = 0; I != 100; ++I)
    Rec.count("pre.drain");
  obs::TraceLog First = Rec.drain();
  for (unsigned I = 0; I != 50; ++I)
    Rec.count("pre.drain");
  obs::TraceLog Second = Rec.drain();
  EXPECT_DOUBLE_EQ(First.counterTotal("pre.drain"), 100.0);
  EXPECT_DOUBLE_EQ(Second.counterTotal("pre.drain"), 150.0);
}

TEST(ScopedSpan, NullRecorderIsANoOp) {
  obs::ScopedSpan Span(nullptr, "t", "nothing");
  Span.setEndDetail("ignored");
  // Nothing to assert beyond "does not crash": the null recorder is the
  // no-op path every un-traced call site takes.
}

TEST(ScopedSpan, EmitsPairedBeginEndWithVirtualClock) {
  obs::TraceRecorder Rec;
  double Virtual = 10.0;
  {
    obs::ScopedSpan Outer(&Rec, "t", "outer", [&Virtual] { return Virtual; });
    Virtual = 11.5; // the end edge must re-read the clock
    obs::ScopedSpan Inner(&Rec, "t", "inner");
    Inner.setEndDetail("done");
  }
  obs::TraceLog Log = Rec.drain();
  ASSERT_EQ(Log.Events.size(), 4u);
  EXPECT_STREQ(Log.Events[0].Name, "outer");
  EXPECT_STREQ(Log.Events[1].Name, "inner");
  EXPECT_STREQ(Log.Events[2].Name, "inner"); // inner ends first (RAII)
  EXPECT_STREQ(Log.Events[3].Name, "outer");
  EXPECT_EQ(Log.Events[2].Detail, "done");
  EXPECT_DOUBLE_EQ(Log.Events[0].VirtualSeconds, 10.0);
  EXPECT_DOUBLE_EQ(Log.Events[3].VirtualSeconds, 11.5);
}

//===----------------------------------------------------------------------===//
// Sinks
//===----------------------------------------------------------------------===//

TEST(Sinks, NullSinkTalliesAndCsvRendersEveryRow) {
  obs::TraceRecorder Rec;
  Rec.beginSpan("t", "work");
  Rec.count("t.n", 5.0);
  Rec.endSpan("t", "work");

  obs::NullSink Null;
  EXPECT_TRUE(Rec.drainTo(Null).ok());
  EXPECT_EQ(Null.consumed(), 3u);

  obs::CsvTraceSink Csv;
  ASSERT_TRUE(Rec.drainTo(Csv).ok());
  std::string Rendered = Csv.render();
  EXPECT_EQ(Rendered.rfind("kind,category,name,host_sec", 0), 0u);
  EXPECT_NE(Rendered.find("span-begin"), std::string::npos);
  EXPECT_NE(Rendered.find("counter-total"), std::string::npos);
  // Three events + one counter-total row (the header is separate).
  EXPECT_EQ(Csv.table().numRows(), 4u);
}

TEST(Sinks, SummaryReportsSpanDurationsAndCounters) {
  obs::TraceRecorder Rec;
  {
    obs::ScopedSpan Span(&Rec, "t", "phase");
  }
  Rec.instant("t", "blip");
  Rec.count("t.total", 7.0);
  obs::SummarySink Summary;
  ASSERT_TRUE(Rec.drainTo(Summary).ok());
  const std::string &Text = Summary.text();
  EXPECT_NE(Text.find("phase"), std::string::npos);
  EXPECT_NE(Text.find("blip"), std::string::npos);
  EXPECT_NE(Text.find("t.total"), std::string::npos);
  EXPECT_NE(Text.find("7 (1 samples)"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Chrome trace export
//===----------------------------------------------------------------------===//

TEST(ChromeTrace, RoundTripsSpansOnBothClockTracks) {
  obs::TraceRecorder Rec;
  {
    obs::ScopedSpan Span(&Rec, "eas", "invocation", [] { return 0.5; });
    Rec.instant("eas", "alpha-search", 0.6, "alpha=0.40");
  }
  Rec.completeSpan("profile", "profile-rep",
                   obs::TraceRecorder::hostSeconds(), 1e-3);
  Rec.count("eas.invocations");

  std::string Json = renderChromeTrace(Rec.drain());
  ErrorOr<obs::ChromeTraceData> Parsed = obs::parseChromeTrace(Json);
  ASSERT_TRUE(Parsed.ok()) << Parsed.status().toString();

  // Span begin/end appear on the host track (pid 1) and again on the
  // virtual track (pid 2) because the span carries virtual timestamps.
  EXPECT_EQ(Parsed->countPhase("B"), 2u);
  EXPECT_EQ(Parsed->countPhase("E"), 2u);
  EXPECT_EQ(Parsed->countPhase("X"), 1u);
  EXPECT_EQ(Parsed->countPhase("i"), 2u); // host + virtual instants
  EXPECT_EQ(Parsed->countPhase("C"), 1u);
  EXPECT_TRUE(Parsed->hasEventNamed("invocation"));
  EXPECT_TRUE(Parsed->hasEventNamed("alpha-search"));
  EXPECT_TRUE(Parsed->hasEventNamed("profile-rep"));
  bool SawHostPid = false, SawVirtualPid = false;
  for (const obs::ChromeTraceEvent &E : Parsed->Events) {
    SawHostPid = SawHostPid || E.Pid == 1;
    SawVirtualPid = SawVirtualPid || E.Pid == 2;
  }
  EXPECT_TRUE(SawHostPid);
  EXPECT_TRUE(SawVirtualPid);
}

TEST(ChromeTrace, EscapesHostileDetailPayloads) {
  obs::TraceRecorder Rec;
  Rec.instant("t", "hostile", std::numeric_limits<double>::quiet_NaN(),
              std::string("quote=\" backslash=\\ newline=\n tab=\t "
                          "ctrl=\x01 end"));
  std::string Json = renderChromeTrace(Rec.drain());
  ErrorOr<obs::ChromeTraceData> Parsed = obs::parseChromeTrace(Json);
  ASSERT_TRUE(Parsed.ok()) << Parsed.status().toString();
  EXPECT_TRUE(Parsed->hasEventNamed("hostile"));
}

TEST(ChromeTrace, ParserRejectsMalformedDocuments) {
  EXPECT_FALSE(obs::parseChromeTrace("").ok());
  EXPECT_FALSE(obs::parseChromeTrace("{").ok());
  EXPECT_FALSE(obs::parseChromeTrace("[{]").ok());
  // Trailing garbage after a well-formed document.
  EXPECT_FALSE(obs::parseChromeTrace("[] trailing").ok());
  // An event with no phase is not a trace event.
  EXPECT_FALSE(obs::parseChromeTrace("[{\"name\":\"x\"}]").ok());
  // Truncated mid-string: the escaping bug a round trip must catch.
  std::string Json = renderChromeTrace(obs::TraceLog());
  EXPECT_TRUE(obs::parseChromeTrace(Json).ok());
  EXPECT_FALSE(
      obs::parseChromeTrace(Json.substr(0, Json.size() / 2)).ok());
}

//===----------------------------------------------------------------------===//
// EasConfig::validate
//===----------------------------------------------------------------------===//

TEST(EasConfigValidate, DefaultConfigIsValid) {
  EXPECT_TRUE(EasConfig().validate().ok());
}

TEST(EasConfigValidate, RejectsEachBadTunable) {
  auto Expect = [](EasConfig Config, const char *Label) {
    Status S = Config.validate();
    EXPECT_FALSE(S.ok()) << Label;
    EXPECT_EQ(S.code(), ErrCode::InvalidArgument) << Label;
  };
  EasConfig C;
  C.AlphaStep = 0.0;
  Expect(C, "zero alpha step");
  C = EasConfig();
  C.AlphaStep = 1.5;
  Expect(C, "alpha step above 1");
  C = EasConfig();
  C.AlphaStep = -0.1;
  Expect(C, "negative alpha step");
  C = EasConfig();
  C.ProfileFraction = 0.0;
  Expect(C, "zero profile fraction");
  C = EasConfig();
  C.ProfileFraction = 1.1;
  Expect(C, "profile fraction above 1");
  C = EasConfig();
  C.MinProfileIters = -1.0;
  Expect(C, "negative min profile iters");
  C = EasConfig();
  C.GpuProfileSize = -64.0;
  Expect(C, "negative profile size");
  C = EasConfig();
  C.Health.MaxLaunchRetries = 0;
  Expect(C, "zero launch-retry budget");
  C = EasConfig();
  C.Health.WatchdogPollSec = 0.0;
  Expect(C, "zero watchdog poll");
  C = EasConfig();
  C.Health.InitialQuarantineSec = -0.5;
  Expect(C, "negative quarantine");
  C = EasConfig();
  C.Health.QuarantineBackoffMultiplier = 0.5;
  Expect(C, "shrinking quarantine backoff");
  C = EasConfig();
  C.Health.RetryBackoffMultiplier = 0.5;
  Expect(C, "shrinking retry backoff");
}

//===----------------------------------------------------------------------===//
// SchemeKind and the unified run() API
//===----------------------------------------------------------------------===//

TEST(SchemeKind, NamesAreStable) {
  EXPECT_STREQ(schemeKindName(SchemeKind::FixedAlpha), "fixed");
  EXPECT_STREQ(schemeKindName(SchemeKind::CpuOnly), "cpu");
  EXPECT_STREQ(schemeKindName(SchemeKind::GpuOnly), "gpu");
  EXPECT_STREQ(schemeKindName(SchemeKind::Oracle), "oracle");
  EXPECT_STREQ(schemeKindName(SchemeKind::Perf), "perf");
  EXPECT_STREQ(schemeKindName(SchemeKind::Eas), "eas");
}

TEST(UnifiedRun, NullRecorderIsBitIdentical) {
  // The regression the whole design hangs on: attaching no recorder must
  // reproduce the pre-observability numbers exactly, and attaching one
  // must not change a single scheduling decision — under every scheme,
  // each of which reports itself as the Kind that produced it.
  ExecutionSession Session(haswellDesktop());
  InvocationTrace Trace = shortTrace();
  RunOptions Options;
  Options.Trace = &Trace;
  Options.Curves = &desktopCurves();
  Options.Alpha = 0.3;
  Options.Step = 0.5;
  obs::TraceRecorder Recorder;

  for (SchemeKind Kind :
       {SchemeKind::FixedAlpha, SchemeKind::CpuOnly, SchemeKind::GpuOnly,
        SchemeKind::Oracle, SchemeKind::Perf, SchemeKind::Eas}) {
    SCOPED_TRACE(schemeKindName(Kind));
    Options.Recorder = nullptr;
    SessionReport Bare = Session.run(Kind, Options);
    EXPECT_EQ(Bare.TraceEventCount, 0u);

    Options.Recorder = &Recorder;
    SessionReport Observed = Session.run(Kind, Options);

    EXPECT_EQ(Bare.Kind, Kind);
    EXPECT_EQ(Observed.Kind, Kind);
    expectSameMeasurement(Bare, Observed);
    EXPECT_EQ(Bare.ProfileRepetitions, Observed.ProfileRepetitions);
    EXPECT_EQ(Bare.AlphaSearches, Observed.AlphaSearches);
    EXPECT_EQ(Bare.CpuOnlyFastPaths, Observed.CpuOnlyFastPaths);
    EXPECT_GT(Observed.TraceEventCount, 0u);
  }
}

//===----------------------------------------------------------------------===//
// Golden path: a traced EAS run
//===----------------------------------------------------------------------===//

TEST(GoldenPath, TracedEasRunEmitsTheSchedulingStory) {
  ExecutionSession Session(haswellDesktop());
  InvocationTrace Trace = shortTrace();
  obs::TraceRecorder Recorder;
  RunOptions Options;
  Options.Trace = &Trace;
  Options.Curves = &desktopCurves();
  Options.Recorder = &Recorder;
  SessionReport Report = Session.run(SchemeKind::Eas, Options);

  obs::TraceLog Log = Recorder.drain();
  // The spans and instants the issue's golden path names.
  EXPECT_GE(Log.countNamed("session"), 2u); // begin + end
  EXPECT_GE(Log.countNamed("invocation"), 2u);
  EXPECT_GE(Log.countNamed("profile"), 2u);
  EXPECT_GE(Log.countNamed("profile-rep"), 1u);
  EXPECT_GE(Log.countNamed("dispatch"), 2u);
  EXPECT_GE(Log.countNamed("classify"), 1u);
  EXPECT_GE(Log.countNamed("alpha-search"), 1u);
  EXPECT_GE(Log.countNamed("drain"), 2u); // shutdown drain span

  // Counter totals must agree with the report's aggregates.
  EXPECT_DOUBLE_EQ(Log.counterTotal("eas.invocations"),
                   double(Report.Invocations));
  EXPECT_DOUBLE_EQ(Log.counterTotal("eas.profile_reps"),
                   double(Report.ProfileRepetitions));
  EXPECT_DOUBLE_EQ(Log.counterTotal("eas.alpha_searches"),
                   double(Report.AlphaSearches));
  EXPECT_DOUBLE_EQ(Log.counterTotal("eas.cpu_only"),
                   double(Report.CpuOnlyFastPaths));
  EXPECT_GT(Report.AlphaSearches, 0u);
  EXPECT_GT(Report.ProfileRepetitions, 0u);

  // The alpha-search instant carries the evaluated grid.
  bool SawGrid = false;
  for (const obs::TraceEvent &E : Log.Events)
    if (std::string(E.Name) == "alpha-search")
      SawGrid = SawGrid || E.Detail.find("grid=") != std::string::npos;
  EXPECT_TRUE(SawGrid);

  // And the whole log must survive a Chrome-trace round trip.
  std::string Json = renderChromeTrace(Log);
  ErrorOr<obs::ChromeTraceData> Parsed = obs::parseChromeTrace(Json);
  ASSERT_TRUE(Parsed.ok()) << Parsed.status().toString();
  EXPECT_TRUE(Parsed->hasEventNamed("session"));
  EXPECT_TRUE(Parsed->hasEventNamed("profile"));
  EXPECT_TRUE(Parsed->hasEventNamed("alpha-search"));
  EXPECT_TRUE(Parsed->hasEventNamed("dispatch"));
  EXPECT_GT(Parsed->countPhase("C"), 0u);
}

TEST(GoldenPath, QuarantineArcShowsUpInTheTrace) {
  ExecutionSession Session(faultySpec("gpu-hang"));
  InvocationTrace Trace = shortTrace(60);
  obs::TraceRecorder Recorder;
  obs::MetricsRegistry Registry;
  obs::FlightRecorder Flight;
  RunOptions Options;
  Options.Trace = &Trace;
  Options.Curves = &desktopCurves();
  Options.Recorder = &Recorder;
  Options.Metrics = &Registry;
  Options.Eas.Flight = &Flight;
  SessionReport Report = Session.run(SchemeKind::Eas, Options);

  obs::TraceLog Log = Recorder.drain();
  // Health-state transitions: hang -> quarantine -> probe -> recovery.
  EXPECT_GE(Log.countNamed("hang"), 1u);
  EXPECT_GE(Log.countNamed("quarantine"), 1u);
  EXPECT_GE(Log.countNamed("recovery"), 1u);
  // The quarantined-run counter is read off each invocation's outcome,
  // so pre-dispatch and mid-dispatch quarantines both count.
  EXPECT_GE(Log.counterTotal("eas.quarantined_runs"), 1.0);
  EXPECT_DOUBLE_EQ(Log.counterTotal("eas.quarantined_runs"),
                   double(Report.Resilience.QuarantinedInvocations));
  EXPECT_GE(Log.counterTotal("eas.hangs"), 1.0);
  EXPECT_GE(Log.counterTotal("eas.cpu_only"), 1.0);
  EXPECT_TRUE(Report.Resilience.degraded());

  std::string Json = renderChromeTrace(Log);
  ErrorOr<obs::ChromeTraceData> Parsed = obs::parseChromeTrace(Json);
  ASSERT_TRUE(Parsed.ok()) << Parsed.status().toString();
  EXPECT_TRUE(Parsed->hasEventNamed("quarantine"));

  // One count, three consumers: each eas.* trace counter and its
  // eas_*_total metric come from the same InvocationOutcome field, and
  // the flight recorder holds one decision record per invocation.
  obs::MetricsSnapshot Snap = Registry.snapshot();
  const std::pair<const char *, const char *> Pairs[] = {
      {"eas.invocations", obs::names::InvocationsTotal},
      {"eas.table_hits", obs::names::TableHitsTotal},
      {"eas.cpu_only", obs::names::CpuOnlyTotal},
      {"eas.cancelled", obs::names::CancelledTotal},
      {"eas.quarantined_runs", obs::names::QuarantinedRunsTotal},
      {"eas.profile_reps", obs::names::ProfileRepsTotal},
      {"eas.launch_retries", obs::names::LaunchRetriesTotal},
      {"eas.hangs", obs::names::HangsTotal},
      {"eas.readmissions", obs::names::ReadmissionsTotal},
  };
  for (const auto &[TraceName, MetricName] : Pairs) {
    SCOPED_TRACE(TraceName);
    EXPECT_DOUBLE_EQ(Log.counterTotal(TraceName), Snap.total(MetricName));
  }
  EXPECT_DOUBLE_EQ(Log.counterTotal("eas.alpha_searches"),
                   double(Report.AlphaSearches));
  EXPECT_EQ(Flight.drain().DecisionsRecorded, uint64_t{Report.Invocations});
}
