//===-- tests/ForensicsTest.cpp - Flight recorder + incident forensics -----===//
//
// Part of the ecas project, under the MIT License.
//
//===----------------------------------------------------------------------===//
//
// The forensics layer of DESIGN.md §16, tested piece by piece: the
// flight-recorder rings (wrap, drop accounting, multi-thread merge),
// the anomaly detector's edge cases (cold baselines, counter resets,
// coalesced triggers), the incident writer's commit protocol (manifest
// last, retention, rate limit, torn-bundle rejection), the control
// socket's line protocol, and the last-gasp crash write — the latter in
// a forked child that really dies on a fatal signal.
//
//===----------------------------------------------------------------------===//

#include "ecas/obs/Anomaly.h"
#include "ecas/obs/FlightRecorder.h"
#include "ecas/obs/Incident.h"
#include "ecas/obs/MetricNames.h"
#include "ecas/obs/Metrics.h"
#include "ecas/service/Control.h"
#include "ecas/support/AtomicFile.h"

#include "TestSupport.h"

#include <gtest/gtest.h>

#include <csignal>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include "ecas/obs/LastGasp.h"

using namespace ecas;
using namespace ecas::obs;

namespace {

/// Per-test scratch directory (created fresh, best-effort cleaned).
struct ScratchDir {
  explicit ScratchDir(const char *Name)
      : Path(::testing::TempDir() + "ecas-forensics-" + Name) {
    wipe();
    ::mkdir(Path.c_str(), 0755);
  }
  ~ScratchDir() { wipe(); }
  void wipe() {
    for (const std::string &Bundle : listBundles(Path))
      wipeFlat(Bundle);
    wipeFlat(Path);
  }
  // No recursion needed: bundles are flat and their file set is fixed.
  static void wipeFlat(const std::string &Dir) {
    for (const char *Name :
         {"MANIFEST.txt", "trace.json", "decisions.jsonl", "metrics.prom",
          "metrics.json", "tableg.txt", "status.txt", "lastgasp.txt"})
      (void)::unlink((Dir + "/" + Name).c_str());
    (void)::rmdir(Dir.c_str());
  }
  std::string Path;
};

DecisionRecord makeDecision(uint64_t KernelId, double Seconds) {
  DecisionRecord Rec;
  Rec.KernelId = KernelId;
  Rec.MeasuredSeconds = Seconds;
  Rec.TableHit = true;
  return Rec;
}

/// One-shot raw client for the control socket's line protocol.
std::string controlRequest(const std::string &SocketPath,
                           const std::string &Command) {
  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  EXPECT_GE(Fd, 0);
  sockaddr_un Addr{};
  Addr.sun_family = AF_UNIX;
  EXPECT_LT(SocketPath.size(), sizeof(Addr.sun_path));
  std::memcpy(Addr.sun_path, SocketPath.c_str(), SocketPath.size() + 1);
  if (::connect(Fd, reinterpret_cast<const sockaddr *>(&Addr),
                sizeof(Addr)) != 0) {
    ::close(Fd);
    return "<connect failed>";
  }
  std::string Line = Command + "\n";
  EXPECT_EQ(::send(Fd, Line.data(), Line.size(), 0),
            static_cast<ssize_t>(Line.size()));
  std::string Response;
  char Buffer[512];
  for (;;) {
    ssize_t N = ::recv(Fd, Buffer, sizeof(Buffer), 0);
    if (N <= 0)
      break;
    Response.append(Buffer, static_cast<size_t>(N));
  }
  ::close(Fd);
  return Response;
}

} // namespace

//===----------------------------------------------------------------------===//
// FlightRecorder rings
//===----------------------------------------------------------------------===//

TEST(FlightRecorder, EventRingKeepsNewestAndCountsDrops) {
  FlightRecorder Flight(/*EventsPerThread=*/8, /*DecisionCapacity=*/4);
  for (int I = 0; I != 20; ++I)
    Flight.instant("test", "tick", {}, {}, static_cast<double>(I));

  FlightSnapshot Snap = Flight.drain();
  EXPECT_EQ(Snap.EventsRecorded, 20u);
  EXPECT_EQ(Snap.EventsDropped, 12u);
  ASSERT_EQ(Snap.Trace.Events.size(), 8u);
  // The survivors are the newest 12..19, in record order.
  for (size_t I = 0; I != Snap.Trace.Events.size(); ++I)
    EXPECT_DOUBLE_EQ(Snap.Trace.Events[I].Value,
                     static_cast<double>(12 + I));
  EXPECT_EQ(Flight.eventsRecorded(), 20u);
}

TEST(FlightRecorder, DecisionRingWrapsOldestFirst) {
  FlightRecorder Flight(/*EventsPerThread=*/8, /*DecisionCapacity=*/4);
  for (uint64_t I = 0; I != 10; ++I)
    Flight.recordDecision(makeDecision(I, 0.001 * static_cast<double>(I)));

  FlightSnapshot Snap = Flight.drain();
  EXPECT_EQ(Snap.DecisionsRecorded, 10u);
  EXPECT_EQ(Snap.DecisionsDropped, 6u);
  ASSERT_EQ(Snap.Decisions.size(), 4u);
  // Oldest-first within the surviving tail, sequences stamped densely.
  for (size_t I = 0; I != 4; ++I) {
    EXPECT_EQ(Snap.Decisions[I].KernelId, 6 + I);
    if (I) {
      EXPECT_EQ(Snap.Decisions[I].Sequence,
                Snap.Decisions[I - 1].Sequence + 1);
    }
  }
}

TEST(FlightRecorder, CountersFoldIntoTotals) {
  FlightRecorder Flight(/*EventsPerThread=*/64, /*DecisionCapacity=*/4);
  for (int I = 0; I != 10; ++I)
    Flight.count("work-items", 2.0);
  FlightSnapshot Snap = Flight.drain();
  EXPECT_DOUBLE_EQ(counterTotal(Snap.Trace, "work-items"), 20.0);
}

TEST(FlightRecorder, MultiThreadedRecordingMergesInTimeOrder) {
  FlightRecorder Flight(/*EventsPerThread=*/256, /*DecisionCapacity=*/64);
  constexpr int Threads = 4;
  constexpr int PerThread = 100;
  std::vector<std::thread> Workers;
  for (int T = 0; T != Threads; ++T)
    Workers.emplace_back([&Flight] {
      for (int I = 0; I != PerThread; ++I)
        Flight.instant("worker", "step", {}, {}, static_cast<double>(I));
    });
  for (std::thread &W : Workers)
    W.join();

  FlightSnapshot Snap = Flight.drain();
  EXPECT_EQ(Snap.EventsRecorded,
            static_cast<uint64_t>(Threads * PerThread));
  EXPECT_EQ(Snap.EventsDropped, 0u);
  ASSERT_EQ(Snap.Trace.Events.size(),
            static_cast<size_t>(Threads * PerThread));
  for (size_t I = 1; I < Snap.Trace.Events.size(); ++I)
    EXPECT_LE(Snap.Trace.Events[I - 1].HostSeconds,
              Snap.Trace.Events[I].HostSeconds)
        << "drain must merge per-thread rings in time order";
}

//===----------------------------------------------------------------------===//
// AnomalyDetector edge cases
//===----------------------------------------------------------------------===//

TEST(AnomalyDetector, ColdBaselinesStaySilent) {
  MetricsRegistry Registry;
  Histogram &TimeErr = Registry.histogram(
      names::ModelTimeRelError, linearBuckets(0.0, 0.05, 20));
  // A handful of terrible samples — but fewer than the baseline floor,
  // so the drift rule must stay cold rather than fire on noise.
  for (int I = 0; I != 8; ++I)
    TimeErr.record(0.9);

  AnomalyDetector Detector;
  std::vector<AnomalyTrigger> Triggers =
      Detector.evaluate(Registry.snapshot(), 0.0);
  EXPECT_TRUE(Triggers.empty());

  // Still cold: had those 8 samples frozen a 0.9 baseline, a window of
  // far worse samples would fire now. Instead this evaluation is the
  // one that reaches the floor and freezes, and a freeze never fires.
  for (int I = 0; I != 40; ++I)
    TimeErr.record(5.0);
  EXPECT_TRUE(Detector.evaluate(Registry.snapshot(), 1.0).empty());
}

TEST(AnomalyDetector, BurnRateFiresOnNewMissesOnly) {
  MetricsRegistry Registry;
  Counter &Misses = Registry.counter(names::ServiceDeadlineMissTotal,
                                     {{"sla", "SLA0"}});
  AnomalyDetector Detector;
  // First sighting establishes the baseline — pre-existing misses are
  // old news, not an anomaly.
  Misses.add(3.0);
  EXPECT_TRUE(Detector.evaluate(Registry.snapshot(), 0.0).empty());

  Misses.add(1.0);
  std::vector<AnomalyTrigger> Triggers =
      Detector.evaluate(Registry.snapshot(), 1.0);
  ASSERT_EQ(Triggers.size(), 1u);
  EXPECT_EQ(Triggers[0].Rule, "sla0-burn-rate");
  EXPECT_DOUBLE_EQ(Triggers[0].Observed, 1.0);

  // No movement, no trigger.
  EXPECT_TRUE(Detector.evaluate(Registry.snapshot(), 2.0).empty());
}

TEST(AnomalyDetector, CounterResetRebasesWithoutFiring) {
  AnomalyDetector Detector;
  {
    MetricsRegistry Old;
    Old.counter(names::ServiceDeadlineMissTotal, {{"sla", "SLA0"}})
        .add(5.0);
    Old.counter(names::QuarantinesTotal).add(4.0);
    EXPECT_TRUE(Detector.evaluate(Old.snapshot(), 0.0).empty());
  }
  // The process behind the registry restarted: both counters now read
  // lower than the detector's remembered baseline. Re-base silently.
  MetricsRegistry Fresh;
  Counter &Misses =
      Fresh.counter(names::ServiceDeadlineMissTotal, {{"sla", "SLA0"}});
  Counter &Quarantines = Fresh.counter(names::QuarantinesTotal);
  Misses.add(1.0);
  Quarantines.add(1.0);
  EXPECT_TRUE(Detector.evaluate(Fresh.snapshot(), 1.0).empty());

  // And forward movement from the new base fires normally again.
  Misses.add(1.0);
  Quarantines.add(1.0);
  std::vector<AnomalyTrigger> Triggers =
      Detector.evaluate(Fresh.snapshot(), 2.0);
  ASSERT_EQ(Triggers.size(), 2u);
}

TEST(AnomalyDetector, DriftFiresAfterBaselineFreezes) {
  MetricsRegistry Registry;
  Histogram &TimeErr = Registry.histogram(
      names::ModelTimeRelError, linearBuckets(0.0, 0.05, 20));
  AnomalyDetector Detector;

  for (int I = 0; I != 40; ++I)
    TimeErr.record(0.02);
  EXPECT_TRUE(Detector.evaluate(Registry.snapshot(), 0.0).empty());

  // The model goes bad: new windows mean far above
  // max(2 * baseline, baseline + 0.05).
  for (int I = 0; I != 40; ++I)
    TimeErr.record(0.5);
  std::vector<AnomalyTrigger> Triggers =
      Detector.evaluate(Registry.snapshot(), 1.0);
  ASSERT_EQ(Triggers.size(), 1u);
  EXPECT_EQ(Triggers[0].Rule, "model-drift-time");
  EXPECT_GT(Triggers[0].Observed, Triggers[0].Threshold);
}

TEST(AnomalyDetector, HistogramShrinkResetsDriftState) {
  AnomalyDetector Detector;
  {
    MetricsRegistry Registry;
    Histogram &TimeErr = Registry.histogram(
        names::ModelTimeRelError, linearBuckets(0.0, 0.05, 20));
    for (int I = 0; I != 40; ++I)
      TimeErr.record(0.02);
    EXPECT_TRUE(Detector.evaluate(Registry.snapshot(), 0.0).empty());
  }
  // A fresh registry's histogram has fewer observations than the frozen
  // baseline ever saw — the old baseline is not comparable, so the rule
  // goes cold instead of judging the new process by a dead one's curve.
  MetricsRegistry Fresh;
  Histogram &TimeErr = Fresh.histogram(names::ModelTimeRelError,
                                       linearBuckets(0.0, 0.05, 20));
  for (int I = 0; I != 4; ++I)
    TimeErr.record(0.9);
  EXPECT_TRUE(Detector.evaluate(Fresh.snapshot(), 1.0).empty());

  // Cold, the next 40 samples freeze a new baseline near 0.5 instead of
  // firing against the dead process's 0.02, and more of the same stay
  // below that baseline's threshold.
  for (int I = 0; I != 40; ++I)
    TimeErr.record(0.5);
  EXPECT_TRUE(Detector.evaluate(Fresh.snapshot(), 2.0).empty());
  for (int I = 0; I != 40; ++I)
    TimeErr.record(0.5);
  EXPECT_TRUE(Detector.evaluate(Fresh.snapshot(), 3.0).empty());
}

TEST(AnomalyDetector, LatencyP99RegressionFires) {
  MetricsRegistry Registry;
  Histogram &Latency = Registry.histogram(
      names::InvocationSeconds, logBuckets(1e-5, 4.0, 16));
  AnomalyDetector Detector;

  for (int I = 0; I != 100; ++I)
    Latency.record(1e-4);
  EXPECT_TRUE(Detector.evaluate(Registry.snapshot(), 0.0).empty());

  // Swamp the distribution with samples 4 orders of magnitude slower;
  // the p99 climbs far past 3x the frozen baseline.
  for (int I = 0; I != 2000; ++I)
    Latency.record(1.0);
  std::vector<AnomalyTrigger> Triggers =
      Detector.evaluate(Registry.snapshot(), 1.0);
  ASSERT_EQ(Triggers.size(), 1u);
  EXPECT_EQ(Triggers[0].Rule, "latency-p99-regression");
}

//===----------------------------------------------------------------------===//
// IncidentWriter: commit protocol, retention, rate limit
//===----------------------------------------------------------------------===//

TEST(IncidentWriter, BundleRoundTripsThroughValidator) {
  ScratchDir Scratch("roundtrip");
  FlightRecorder Flight;
  Flight.instant("test", "event", {}, {}, 1.0);
  Flight.recordDecision(makeDecision(7, 0.002));
  MetricsRegistry Registry;
  Registry.counter(names::QuarantinesTotal).add(1.0);

  IncidentConfig Config;
  Config.Dir = Scratch.Path;
  IncidentWriter Writer(Config);

  IncidentInputs Inputs;
  Inputs.Flight = &Flight;
  Inputs.Metrics = &Registry;
  Inputs.TableDigest = "tableg entries=1\n";
  Inputs.ServiceStatus = "ecas-statusz v1\nend\n";

  // Two rules firing on one evaluation coalesce into ONE bundle whose
  // manifest lists both trigger lines.
  AnomalyTrigger A;
  A.Rule = "quarantine-entry";
  A.Metric = names::QuarantinesTotal;
  A.Threshold = 1.0;
  A.Observed = 1.0;
  AnomalyTrigger B;
  B.Rule = "sla0-burn-rate";
  B.Metric = names::ServiceDeadlineMissTotal;
  B.Threshold = 1.0;
  B.Observed = 2.0;
  ErrorOr<std::string> Bundle = Writer.write(Inputs, {A, B}, 10.0);
  ASSERT_TRUE(Bundle.ok()) << Bundle.status().toString();
  EXPECT_EQ(Writer.bundlesWritten(), 1u);

  ASSERT_TRUE(validateBundle(*Bundle).ok());
  std::string Manifest;
  bool Existed = false;
  ASSERT_TRUE(
      readFileBytes(*Bundle + "/MANIFEST.txt", Manifest, Existed).ok());
  EXPECT_NE(Manifest.find("reason anomaly"), std::string::npos);
  EXPECT_NE(Manifest.find("trigger quarantine-entry"), std::string::npos);
  EXPECT_NE(Manifest.find("trigger sla0-burn-rate"), std::string::npos);
  EXPECT_NE(Manifest.find("file trace.json"), std::string::npos);
  EXPECT_NE(Manifest.find("file metrics.prom"), std::string::npos);
}

TEST(IncidentWriter, RateLimitHoldsAndManualDumpBypasses) {
  ScratchDir Scratch("ratelimit");
  IncidentConfig Config;
  Config.Dir = Scratch.Path;
  Config.MinIntervalSec = 1.0;
  IncidentWriter Writer(Config);
  IncidentInputs Inputs;
  Inputs.ServiceStatus = "ecas-statusz v1\nend\n";

  ASSERT_TRUE(Writer.write(Inputs, {}, 0.0).ok());
  // A second anomaly inside the window is Overloaded, not an error...
  ErrorOr<std::string> Limited = Writer.write(Inputs, {}, 0.5);
  ASSERT_FALSE(Limited.ok());
  EXPECT_EQ(Limited.status().code(), ErrCode::Overloaded);
  // ...a manual dump goes through regardless...
  ASSERT_TRUE(Writer.write(Inputs, {}, 0.5, /*Force=*/true).ok());
  // ...and the window re-opens once the interval passes.
  ASSERT_TRUE(Writer.write(Inputs, {}, 2.0).ok());
  EXPECT_EQ(Writer.bundlesWritten(), 3u);
}

TEST(IncidentWriter, RetentionEvictsOldestFirst) {
  ScratchDir Scratch("retention");
  IncidentConfig Config;
  Config.Dir = Scratch.Path;
  Config.MaxBundles = 3;
  IncidentWriter Writer(Config);
  IncidentInputs Inputs;
  Inputs.TableDigest = "tableg entries=0\n";

  for (int I = 0; I != 5; ++I)
    ASSERT_TRUE(
        Writer.write(Inputs, {}, static_cast<double>(I), /*Force=*/true)
            .ok());

  std::vector<std::string> Bundles = listBundles(Scratch.Path);
  ASSERT_EQ(Bundles.size(), 3u);
  // The newest three sequences survive, in chronological order.
  EXPECT_NE(Bundles[0].find("incident-00000002"), std::string::npos);
  EXPECT_NE(Bundles[1].find("incident-00000003"), std::string::npos);
  EXPECT_NE(Bundles[2].find("incident-00000004"), std::string::npos);
  for (const std::string &Bundle : Bundles)
    EXPECT_TRUE(validateBundle(Bundle).ok());
}

TEST(IncidentWriter, SequenceNumberingResumesFromDisk) {
  ScratchDir Scratch("resume");
  IncidentConfig Config;
  Config.Dir = Scratch.Path;
  IncidentInputs Inputs;
  Inputs.TableDigest = "tableg entries=0\n";
  {
    IncidentWriter First(Config);
    ASSERT_TRUE(First.write(Inputs, {}, 0.0, true).ok());
    ASSERT_TRUE(First.write(Inputs, {}, 1.0, true).ok());
  }
  // A writer born over existing bundles numbers past them, so eviction
  // order stays chronological across restarts.
  IncidentWriter Second(Config);
  ErrorOr<std::string> Bundle = Second.write(Inputs, {}, 2.0, true);
  ASSERT_TRUE(Bundle.ok());
  EXPECT_NE(Bundle->find("incident-00000002"), std::string::npos);
}

TEST(IncidentWriter, TornBundlesAreRejected) {
  ScratchDir Scratch("torn");
  IncidentConfig Config;
  Config.Dir = Scratch.Path;
  IncidentWriter Writer(Config);
  FlightRecorder Flight;
  Flight.instant("test", "event");
  IncidentInputs Inputs;
  Inputs.Flight = &Flight;
  Inputs.ServiceStatus = "ecas-statusz v1\nend\n";
  ErrorOr<std::string> Bundle = Writer.write(Inputs, {}, 0.0, true);
  ASSERT_TRUE(Bundle.ok());
  ASSERT_TRUE(validateBundle(*Bundle).ok());

  // Truncate a listed file: byte count mismatch.
  ASSERT_TRUE(writeFileAtomic(*Bundle + "/status.txt", "short").ok());
  Status Truncated = validateBundle(*Bundle);
  ASSERT_FALSE(Truncated.ok());
  EXPECT_EQ(Truncated.code(), ErrCode::Truncated);

  // Restore the size but poison the structured payload: same length,
  // but trace.json no longer parses.
  ASSERT_TRUE(
      writeFileAtomic(*Bundle + "/status.txt", Inputs.ServiceStatus).ok());
  std::string Trace;
  bool Existed = false;
  ASSERT_TRUE(readFileBytes(*Bundle + "/trace.json", Trace, Existed).ok());
  std::string Garbage(Trace.size(), 'x');
  ASSERT_TRUE(writeFileAtomic(*Bundle + "/trace.json", Garbage).ok());
  EXPECT_FALSE(validateBundle(*Bundle).ok());

  // A deleted file is flat-out corrupt.
  ASSERT_TRUE(writeFileAtomic(*Bundle + "/trace.json", Trace).ok());
  ASSERT_EQ(::unlink((*Bundle + "/status.txt").c_str()), 0);
  Status Missing = validateBundle(*Bundle);
  ASSERT_FALSE(Missing.ok());
  EXPECT_EQ(Missing.code(), ErrCode::CorruptData);

  // And a manifest without its end marker was torn mid-write.
  ASSERT_TRUE(writeFileAtomic(*Bundle + "/status.txt",
                              Inputs.ServiceStatus)
                  .ok());
  std::string Manifest;
  ASSERT_TRUE(
      readFileBytes(*Bundle + "/MANIFEST.txt", Manifest, Existed).ok());
  size_t End = Manifest.rfind("end\n");
  ASSERT_NE(End, std::string::npos);
  ASSERT_TRUE(writeFileAtomic(*Bundle + "/MANIFEST.txt",
                              Manifest.substr(0, End))
                  .ok());
  Status NoEnd = validateBundle(*Bundle);
  ASSERT_FALSE(NoEnd.ok());
  EXPECT_EQ(NoEnd.code(), ErrCode::Truncated);
}

//===----------------------------------------------------------------------===//
// ControlServer line protocol
//===----------------------------------------------------------------------===//

TEST(ControlServer, ServesHandlersAndRejectsUnknownCommands) {
  std::string SocketPath = ::testing::TempDir() + "ecas-ctl-test.sock";
  service::ControlServer Server;
  Server.setHandler("statusz", [] { return std::string("status-ok\n"); });
  Server.setHandler("metricz", [] { return std::string("eas_x 1\n"); });
  ASSERT_TRUE(Server.start(SocketPath).ok());
  ASSERT_TRUE(Server.running());

  EXPECT_EQ(controlRequest(SocketPath, "statusz"), "status-ok\n");
  EXPECT_EQ(controlRequest(SocketPath, "metricz"), "eas_x 1\n");
  std::string Unknown = controlRequest(SocketPath, "bogus");
  EXPECT_NE(Unknown.find("err unknown command"), std::string::npos);

  Server.stop();
  EXPECT_FALSE(Server.running());
  // stop() unlinks the socket: a fresh connect must fail.
  EXPECT_EQ(controlRequest(SocketPath, "statusz"), "<connect failed>");
}

TEST(ControlServer, HandlersAreImmutableAfterStart) {
  std::string SocketPath = ::testing::TempDir() + "ecas-ctl-frozen.sock";
  service::ControlServer Server;
  Server.setHandler("ping", [] { return std::string("pong\n"); });
  ASSERT_TRUE(Server.start(SocketPath).ok());
  // Registration after start is rejected — the serve thread reads the
  // handler table without a lock, so it must never change underneath.
  Server.setHandler("late", [] { return std::string("nope\n"); });
  EXPECT_NE(controlRequest(SocketPath, "late").find("err unknown"),
            std::string::npos);
  EXPECT_EQ(controlRequest(SocketPath, "ping"), "pong\n");
  Server.stop();
}

//===----------------------------------------------------------------------===//
// Last gasp: render/validate and the real crash write
//===----------------------------------------------------------------------===//

TEST(LastGasp, RenderedDocumentValidatesAndTornOnesDoNot) {
  FlightRecorder Flight;
  Flight.instant("test", "event", {}, {}, 1.0);
  for (uint64_t I = 0; I != 5; ++I)
    Flight.recordDecision(makeDecision(I, 0.001));

  LastGaspContext Ctx;
  Ctx.UptimeSec = 12.5;
  Ctx.ServiceStatus = "ecas-statusz v1\nuptime_sec 12.5\nend\n";
  Ctx.Flight = &Flight;
  Ctx.MaxDecisionLines = 3;
  std::string Doc = renderLastGasp(Ctx);

  ASSERT_TRUE(validateLastGasp(Doc).ok());
  EXPECT_NE(Doc.find("uptime_sec 12.500"), std::string::npos);
  EXPECT_NE(Doc.find("decisions recorded=5 dropped=0 tail=3"),
            std::string::npos);
  // Exactly the requested tail, newest records, as JSON lines.
  size_t DecisionLines = 0;
  for (size_t Pos = Doc.find("decision {"); Pos != std::string::npos;
       Pos = Doc.find("decision {", Pos + 1))
    ++DecisionLines;
  EXPECT_EQ(DecisionLines, 3u);

  Status NoEnd = validateLastGasp(Doc.substr(0, Doc.size() - 4));
  ASSERT_FALSE(NoEnd.ok());
  EXPECT_EQ(NoEnd.code(), ErrCode::Truncated);
  Status BadHeader = validateLastGasp("garbage v9\nend\n");
  ASSERT_FALSE(BadHeader.ok());
  EXPECT_EQ(BadHeader.code(), ErrCode::VersionMismatch);
}

TEST(LastGasp, FatalSignalWritesPreSerializedDocument) {
  std::string Path = ::testing::TempDir() + "ecas-lastgasp-abort.txt";
  (void)::unlink(Path.c_str());

  // The whole point of the machinery is surviving a real fatal signal,
  // so run it in a child that genuinely dies on SIGABRT.
  pid_t Pid = fork();
  ASSERT_GE(Pid, 0);
  if (Pid == 0) {
    LastGaspContext Ctx;
    Ctx.UptimeSec = 1.0;
    Ctx.ServiceStatus = "ecas-statusz v1\nuptime_sec 1.0\nend\n";
    std::string Doc = renderLastGasp(Ctx);
    if (!LastGasp::instance().arm(Path).ok())
      _exit(99);
    LastGasp::instance().refresh(Doc);
    std::abort(); // handler writes the buffer, then the signal kills us
  }
  int WaitStatus = 0;
  ASSERT_EQ(waitpid(Pid, &WaitStatus, 0), Pid);
  ASSERT_TRUE(WIFSIGNALED(WaitStatus))
      << "child must die on the re-raised signal, not exit cleanly";
  EXPECT_EQ(WTERMSIG(WaitStatus), SIGABRT);

  std::string Written;
  bool Existed = false;
  ASSERT_TRUE(readFileBytes(Path, Written, Existed).ok());
  ASSERT_TRUE(Existed) << "crash handler did not write the document";
  EXPECT_TRUE(validateLastGasp(Written).ok());
  EXPECT_NE(Written.find("uptime_sec 1.000"), std::string::npos);
  (void)::unlink(Path.c_str());
}

TEST(LastGasp, ArmRejectsUnusablePaths) {
  EXPECT_FALSE(LastGasp::instance().arm("").ok());
  std::string TooLong(4096, 'p');
  EXPECT_FALSE(LastGasp::instance().arm(TooLong).ok());
}
