//===-- tests/ObsTest.cpp - Observability layer ---------------------------===//
//
// Part of the ecas project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// Coverage of the observability tentpole: multi-threaded recording into
/// a capture recorder's per-thread rings (and its equivalence with a
/// bounded one), ScopedSpan pairing, the Chrome trace-event exporter and
/// its parser (round trip + malformed-input rejection), the trace
/// summary, the unified ExecutionSession::run() API with
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
#include "ecas/obs/Trace.h"

#include "TestSupport.h"

#include <gtest/gtest.h>

#include <atomic>
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
// Capture mode (FlightRecorder::Unbounded)
//===----------------------------------------------------------------------===//

TEST(CaptureRecorder, RecordsSpansInstantsAndCounters) {
  obs::FlightRecorder Rec(obs::FlightRecorder::Unbounded);
  Rec.beginSpan("t", "outer");
  Rec.instant("t", "tick", obs::VirtualTime(1.5), "n=1");
  Rec.count("t.events", 2.0);
  Rec.count("t.events");
  Rec.endSpan("t", "outer");

  obs::TraceLog Log = Rec.drain().Trace;
  ASSERT_EQ(Log.Events.size(), 5u);
  EXPECT_EQ(Log.Events.front().Kind, obs::EventKind::SpanBegin);
  EXPECT_EQ(Log.Events.back().Kind, obs::EventKind::SpanEnd);
  EXPECT_EQ(countNamed(Log, "tick"), 1u);
  EXPECT_EQ(Log.Events[1].Detail, "n=1");
  EXPECT_DOUBLE_EQ(counterTotal(Log, "t.events"), 3.0);
  EXPECT_DOUBLE_EQ(counterTotal(Log, "never-fired"), 0.0);
  ASSERT_EQ(Log.Counters.size(), 1u);
  EXPECT_EQ(Log.Counters.front().Samples, 2u);
  EXPECT_EQ(Rec.eventsRecorded(), 5u);
}

TEST(CaptureRecorder, VirtualTimestampsAreOptional) {
  obs::FlightRecorder Rec(obs::FlightRecorder::Unbounded);
  Rec.instant("t", "with-virtual", obs::VirtualTime(2.25));
  Rec.instant("t", "host-only");
  obs::TraceLog Log = Rec.drain().Trace;
  ASSERT_EQ(Log.Events.size(), 2u);
  EXPECT_TRUE(Log.Events[0].hasVirtualTime());
  EXPECT_DOUBLE_EQ(Log.Events[0].VirtualSeconds, 2.25);
  EXPECT_FALSE(Log.Events[1].hasVirtualTime());
}

TEST(CaptureRecorder, ConcurrentWritersMergeInOrder) {
  obs::FlightRecorder Rec(obs::FlightRecorder::Unbounded);
  constexpr unsigned Threads = 4;
  constexpr unsigned PerThread = 2000; // > the default bounded ring
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

  obs::FlightSnapshot Snap = Rec.drain();
  const obs::TraceLog &Log = Snap.Trace;
  EXPECT_EQ(Log.Events.size(), size_t{2} * Threads * PerThread);
  EXPECT_EQ(Snap.EventsDropped, 0u);
  EXPECT_DOUBLE_EQ(counterTotal(Log, "mt.count"),
                   double(Threads) * PerThread);
  for (size_t I = 1; I < Log.Events.size(); ++I)
    EXPECT_LE(Log.Events[I - 1].HostSeconds, Log.Events[I].HostSeconds);
}

TEST(CaptureRecorder, DrainWhileRecordingSeesAPrefix) {
  obs::FlightRecorder Rec(obs::FlightRecorder::Unbounded);
  for (unsigned I = 0; I != 100; ++I)
    Rec.count("pre.drain");
  obs::TraceLog First = Rec.drain().Trace;
  for (unsigned I = 0; I != 50; ++I)
    Rec.count("pre.drain");
  obs::TraceLog Second = Rec.drain().Trace;
  EXPECT_DOUBLE_EQ(counterTotal(First, "pre.drain"), 100.0);
  EXPECT_DOUBLE_EQ(counterTotal(Second, "pre.drain"), 150.0);

  // Drains racing a live writer (the race the TSan job repeats): each
  // sees a prefix of the writer's stream, so a later drain never holds
  // fewer events, and every Detail arrives whole.
  constexpr unsigned Late = 5000;
  std::atomic<bool> Done{false};
  std::thread Writer([&] {
    for (unsigned I = 0; I != Late; ++I)
      Rec.instant("t", "late", {}, "detail");
    Done.store(true, std::memory_order_release);
  });
  size_t Seen = 0, Shrinks = 0, TornDetails = 0;
  while (!Done.load(std::memory_order_acquire)) {
    obs::TraceLog Mid = Rec.drain().Trace;
    Shrinks += Mid.Events.size() < Seen ? 1 : 0;
    Seen = Mid.Events.size();
    for (const obs::TraceEvent &E : Mid.Events)
      TornDetails +=
          E.Kind == obs::EventKind::Instant && E.Detail != "detail" ? 1 : 0;
  }
  Writer.join();
  EXPECT_EQ(Shrinks, 0u);
  EXPECT_EQ(TornDetails, 0u);
  EXPECT_EQ(Rec.drain().Trace.Events.size(), 150u + Late);
}

// The two modes are one recorder: the same scripted sequence, fed from
// four threads into a capture recorder and into a bounded one that never
// wraps, drains to the same log in every field but Detail, which only
// capture keeps, and the host stamps, which are read from the clock at
// each call. The threads take turns, so every event has one place in
// the global order (and each thread one registration rank) in both.
TEST(CaptureRecorder, MatchesANeverWrappingBoundedRecorder) {
  constexpr unsigned Threads = 4;
  constexpr unsigned Rounds = 50;
  obs::FlightRecorder Capture(obs::FlightRecorder::Unbounded);
  obs::FlightRecorder Bounded(/*EventsPerThread=*/4096);
  std::atomic<unsigned> Turn{0};
  std::vector<std::thread> Writers;
  for (unsigned T = 0; T != Threads; ++T)
    Writers.emplace_back([&, T] {
      for (unsigned I = 0; I != Rounds; ++I) {
        while (Turn.load(std::memory_order_acquire) != I * Threads + T)
          std::this_thread::yield();
        // A complete span starting before any of this turn's events and
        // after all of the last turn's keeps the time order of each
        // log equal to the record order.
        double Start = obs::FlightRecorder::hostSeconds();
        obs::VirtualTime At(0.5 * I);
        for (obs::FlightRecorder *R : {&Capture, &Bounded}) {
          R->completeSpan("profile", "profile-rep", Start, 1e-6 * (I + 1),
                          At, "rep=1");
          obs::ScopedSpan Span(R, "eas", "invocation",
                               [I] { return 0.5 * I; }, "kernel=7");
          R->instant("health", "quarantine", At, "hang");
          R->instant("service", "shed", {}, {}, 0.25 * (T + 1));
          R->count("eas.invocations", T + 1.0);
        }
        Turn.store(I * Threads + T + 1, std::memory_order_release);
      }
    });
  for (std::thread &W : Writers)
    W.join();

  obs::FlightSnapshot A = Capture.drain();
  obs::FlightSnapshot B = Bounded.drain();
  EXPECT_EQ(A.EventsRecorded, B.EventsRecorded);
  EXPECT_EQ(A.EventsDropped, 0u);
  EXPECT_EQ(B.EventsDropped, 0u);
  ASSERT_EQ(A.Trace.Events.size(), size_t{6} * Threads * Rounds);
  ASSERT_EQ(A.Trace.Events.size(), B.Trace.Events.size());
  size_t WithDetail = 0;
  for (size_t I = 0; I != A.Trace.Events.size(); ++I) {
    const obs::TraceEvent &X = A.Trace.Events[I];
    const obs::TraceEvent &Y = B.Trace.Events[I];
    SCOPED_TRACE(I);
    EXPECT_EQ(X.Kind, Y.Kind);
    EXPECT_STREQ(X.Category, Y.Category);
    EXPECT_STREQ(X.Name, Y.Name);
    EXPECT_EQ(X.Value, Y.Value);
    EXPECT_EQ(X.ThreadId, Y.ThreadId);
    EXPECT_EQ(X.Seq, Y.Seq);
    EXPECT_EQ(X.hasVirtualTime(), Y.hasVirtualTime());
    if (X.hasVirtualTime()) {
      EXPECT_EQ(X.VirtualSeconds, Y.VirtualSeconds);
    }
    if (X.Kind == obs::EventKind::SpanComplete) {
      EXPECT_EQ(X.HostSeconds, Y.HostSeconds);
    }
    EXPECT_TRUE(Y.Detail.empty());
    WithDetail += X.Detail.empty() ? 0 : 1;
  }
  // Span begin, complete span and quarantine carry a Detail.
  EXPECT_EQ(WithDetail, size_t{3} * Threads * Rounds);
  ASSERT_EQ(A.Trace.Counters.size(), B.Trace.Counters.size());
  for (size_t I = 0; I != A.Trace.Counters.size(); ++I) {
    EXPECT_EQ(A.Trace.Counters[I].Name, B.Trace.Counters[I].Name);
    EXPECT_EQ(A.Trace.Counters[I].Total, B.Trace.Counters[I].Total);
    EXPECT_EQ(A.Trace.Counters[I].Samples, B.Trace.Counters[I].Samples);
  }
  EXPECT_DOUBLE_EQ(counterTotal(A.Trace, "eas.invocations"),
                   double(Rounds) * (1 + 2 + 3 + 4));
}

TEST(ScopedSpan, NullRecorderIsANoOp) {
  obs::ScopedSpan Span(nullptr, "t", "nothing");
  Span.setEndDetail("ignored");
  // Nothing to assert beyond "does not crash": the null recorder is the
  // no-op path every un-traced call site takes.
}

TEST(ScopedSpan, EmitsPairedBeginEndWithVirtualClock) {
  obs::FlightRecorder Rec(obs::FlightRecorder::Unbounded);
  double Virtual = 10.0;
  {
    obs::ScopedSpan Outer(&Rec, "t", "outer", [&Virtual] { return Virtual; });
    Virtual = 11.5; // the end edge must re-read the clock
    obs::ScopedSpan Inner(&Rec, "t", "inner");
    Inner.setEndDetail("done");
  }
  obs::TraceLog Log = Rec.drain().Trace;
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
// Trace summary
//===----------------------------------------------------------------------===//

TEST(Sinks, SummaryReportsSpanDurationsAndCounters) {
  obs::FlightRecorder Rec(obs::FlightRecorder::Unbounded);
  {
    obs::ScopedSpan Span(&Rec, "t", "phase");
  }
  Rec.instant("t", "blip");
  Rec.count("t.total", 7.0);
  std::string Text = obs::renderTraceSummary(Rec.drain().Trace);
  EXPECT_NE(Text.find("trace summary: 4 events"), std::string::npos);
  EXPECT_NE(Text.find("phase"), std::string::npos);
  EXPECT_NE(Text.find("blip"), std::string::npos);
  EXPECT_NE(Text.find("t.total"), std::string::npos);
  EXPECT_NE(Text.find("7 (1 samples)"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Chrome trace export
//===----------------------------------------------------------------------===//

TEST(ChromeTrace, RoundTripsSpansOnBothClockTracks) {
  obs::FlightRecorder Rec(obs::FlightRecorder::Unbounded);
  {
    obs::ScopedSpan Span(&Rec, "eas", "invocation", [] { return 0.5; });
    Rec.instant("eas", "alpha-search", obs::VirtualTime(0.6), "alpha=0.40");
  }
  Rec.completeSpan("profile", "profile-rep",
                   obs::FlightRecorder::hostSeconds(), 1e-3);
  Rec.count("eas.invocations");
  // A valued instant (the service's shed wait): its payload must reach
  // the document as args.value.
  Rec.instant("service", "shed", {}, {}, 0.125);

  std::string Json = renderChromeTrace(Rec.drain().Trace);
  ErrorOr<obs::ChromeTraceData> Parsed = obs::parseChromeTrace(Json);
  ASSERT_TRUE(Parsed.ok()) << Parsed.status().toString();

  // Span begin/end appear on the host track (pid 1) and again on the
  // virtual track (pid 2) because the span carries virtual timestamps.
  EXPECT_EQ(countPhase(*Parsed, "B"), 2u);
  EXPECT_EQ(countPhase(*Parsed, "E"), 2u);
  EXPECT_EQ(countPhase(*Parsed, "X"), 1u);
  // alpha-search on both tracks, shed on the host track only.
  EXPECT_EQ(countPhase(*Parsed, "i"), 3u);
  EXPECT_EQ(countPhase(*Parsed, "C"), 1u);
  EXPECT_TRUE(hasEventNamed(*Parsed, "invocation"));
  EXPECT_TRUE(hasEventNamed(*Parsed, "alpha-search"));
  EXPECT_TRUE(hasEventNamed(*Parsed, "profile-rep"));
  bool SawHostPid = false, SawVirtualPid = false;
  for (const obs::ChromeTraceEvent &E : Parsed->Events) {
    SawHostPid = SawHostPid || E.Pid == 1;
    SawVirtualPid = SawVirtualPid || E.Pid == 2;
    if (E.Phase == "i") {
      EXPECT_DOUBLE_EQ(E.Value, E.Name == "shed" ? 0.125 : 0.0) << E.Name;
    }
    if (E.Phase == "X") {
      EXPECT_DOUBLE_EQ(E.Value, 0.0) << "a span's duration is its dur";
    }
  }
  EXPECT_TRUE(SawHostPid);
  EXPECT_TRUE(SawVirtualPid);
}

TEST(ChromeTrace, EscapesHostileDetailPayloads) {
  obs::FlightRecorder Rec(obs::FlightRecorder::Unbounded);
  Rec.instant("t", "hostile", {},
              "quote=\" backslash=\\ newline=\n tab=\t "
              "ctrl=\x01 end");
  std::string Json = renderChromeTrace(Rec.drain().Trace);
  ErrorOr<obs::ChromeTraceData> Parsed = obs::parseChromeTrace(Json);
  ASSERT_TRUE(Parsed.ok()) << Parsed.status().toString();
  EXPECT_TRUE(hasEventNamed(*Parsed, "hostile"));
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
  obs::FlightRecorder Recorder(obs::FlightRecorder::Unbounded);

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
  obs::FlightRecorder Recorder(obs::FlightRecorder::Unbounded);
  RunOptions Options;
  Options.Trace = &Trace;
  Options.Curves = &desktopCurves();
  Options.Recorder = &Recorder;
  SessionReport Report = Session.run(SchemeKind::Eas, Options);

  obs::TraceLog Log = Recorder.drain().Trace;
  // The spans and instants the issue's golden path names.
  EXPECT_GE(countNamed(Log, "session"), 2u); // begin + end
  EXPECT_GE(countNamed(Log, "invocation"), 2u);
  EXPECT_GE(countNamed(Log, "profile"), 2u);
  EXPECT_GE(countNamed(Log, "profile-rep"), 1u);
  EXPECT_GE(countNamed(Log, "dispatch"), 2u);
  EXPECT_GE(countNamed(Log, "classify"), 1u);
  EXPECT_GE(countNamed(Log, "alpha-search"), 1u);
  EXPECT_GE(countNamed(Log, "drain"), 2u); // shutdown drain span

  // Counter totals must agree with the report's aggregates.
  EXPECT_DOUBLE_EQ(counterTotal(Log, "eas.invocations"),
                   double(Report.Invocations));
  EXPECT_DOUBLE_EQ(counterTotal(Log, "eas.profile_reps"),
                   double(Report.ProfileRepetitions));
  EXPECT_DOUBLE_EQ(counterTotal(Log, "eas.alpha_searches"),
                   double(Report.AlphaSearches));
  EXPECT_DOUBLE_EQ(counterTotal(Log, "eas.cpu_only"),
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
  EXPECT_TRUE(hasEventNamed(*Parsed, "session"));
  EXPECT_TRUE(hasEventNamed(*Parsed, "profile"));
  EXPECT_TRUE(hasEventNamed(*Parsed, "alpha-search"));
  EXPECT_TRUE(hasEventNamed(*Parsed, "dispatch"));
  EXPECT_GT(countPhase(*Parsed, "C"), 0u);
}

TEST(GoldenPath, QuarantineArcShowsUpInTheTrace) {
  ExecutionSession Session(faultySpec("gpu-hang"));
  InvocationTrace Trace = shortTrace(60);
  obs::FlightRecorder Recorder(obs::FlightRecorder::Unbounded);
  obs::MetricsRegistry Registry;
  obs::FlightRecorder Flight;
  RunOptions Options;
  Options.Trace = &Trace;
  Options.Curves = &desktopCurves();
  Options.Recorder = &Recorder;
  Options.Metrics = &Registry;
  Options.Eas.Flight = &Flight;
  SessionReport Report = Session.run(SchemeKind::Eas, Options);

  obs::TraceLog Log = Recorder.drain().Trace;
  // Health-state transitions: hang -> quarantine -> probe -> recovery.
  EXPECT_GE(countNamed(Log, "hang"), 1u);
  EXPECT_GE(countNamed(Log, "quarantine"), 1u);
  EXPECT_GE(countNamed(Log, "recovery"), 1u);
  // The quarantined-run counter is read off each invocation's outcome,
  // so pre-dispatch and mid-dispatch quarantines both count.
  EXPECT_GE(counterTotal(Log, "eas.quarantined_runs"), 1.0);
  EXPECT_DOUBLE_EQ(counterTotal(Log, "eas.quarantined_runs"),
                   double(Report.Resilience.QuarantinedInvocations));
  EXPECT_GE(counterTotal(Log, "eas.hangs"), 1.0);
  EXPECT_GE(counterTotal(Log, "eas.cpu_only"), 1.0);
  EXPECT_TRUE(Report.Resilience.degraded());

  std::string Json = renderChromeTrace(Log);
  ErrorOr<obs::ChromeTraceData> Parsed = obs::parseChromeTrace(Json);
  ASSERT_TRUE(Parsed.ok()) << Parsed.status().toString();
  EXPECT_TRUE(hasEventNamed(*Parsed, "quarantine"));

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
    EXPECT_DOUBLE_EQ(counterTotal(Log, TraceName), Snap.total(MetricName));
  }
  EXPECT_DOUBLE_EQ(counterTotal(Log, "eas.alpha_searches"),
                   double(Report.AlphaSearches));
  obs::FlightSnapshot FlightSnap = Flight.drain();
  EXPECT_EQ(FlightSnap.DecisionsRecorded, uint64_t{Report.Invocations});

  // The flight ring's health instants carry the observation's virtual
  // time, so an incident bundle's trace.json plots the arc on the
  // virtual-clock track (pid 2), not only on the host track.
  ErrorOr<obs::ChromeTraceData> FlightTrace =
      obs::parseChromeTrace(renderChromeTrace(FlightSnap.Trace));
  ASSERT_TRUE(FlightTrace.ok()) << FlightTrace.status().toString();
  bool HangOnVirtual = false, QuarantineOnVirtual = false;
  for (const obs::ChromeTraceEvent &E : FlightTrace->Events) {
    if (E.Phase == "M" || E.Pid != 2)
      continue;
    HangOnVirtual = HangOnVirtual || E.Name == "hang";
    QuarantineOnVirtual = QuarantineOnVirtual || E.Name == "quarantine";
  }
  EXPECT_TRUE(HangOnVirtual);
  EXPECT_TRUE(QuarantineOnVirtual);
}
