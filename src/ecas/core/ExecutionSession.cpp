//===-- ecas/core/ExecutionSession.cpp - Top-level public API -------------===//
//
// Part of the ecas project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "ecas/core/ExecutionSession.h"

#include "ecas/obs/MetricNames.h"
#include "ecas/support/Assert.h"
#include "ecas/support/Format.h"

#include <algorithm>

using namespace ecas;

const char *ecas::schemeKindName(SchemeKind Kind) {
  switch (Kind) {
  case SchemeKind::FixedAlpha:
    return "fixed";
  case SchemeKind::CpuOnly:
    return "cpu";
  case SchemeKind::GpuOnly:
    return "gpu";
  case SchemeKind::Oracle:
    return "oracle";
  case SchemeKind::Perf:
    return "perf";
  case SchemeKind::Eas:
    return "eas";
  }
  ECAS_UNREACHABLE("unknown SchemeKind");
}

ExecutionSession::ExecutionSession(const PlatformSpec &SpecIn)
    : Spec(SpecIn) {
  std::string Error;
  ECAS_CHECK(Spec.validate(Error), "ExecutionSession given an invalid spec");
}

SessionReport ExecutionSession::finishReport(SchemeKind Kind,
                                             const Metric &Objective,
                                             double Seconds, double Joules,
                                             double AlphaIterSum,
                                             double TotalIters,
                                             unsigned Invocations) const {
  SessionReport Report;
  Report.Kind = Kind;
  Report.Seconds = Seconds;
  Report.Joules = Joules;
  Report.MetricValue =
      Seconds > 0.0 ? Objective.fromMeasurement(Joules, Seconds) : 0.0;
  Report.MeanAlpha = TotalIters > 0.0 ? AlphaIterSum / TotalIters : 0.0;
  Report.Invocations = Invocations;
  return Report;
}

/// Folds one GPU health monitor's tallies plus the injector's (if any)
/// into a finished report.
static void attachResilience(SessionReport &Report,
                             const GpuHealthMonitor &Health,
                             const SimProcessor &Proc,
                             unsigned QuarantinedInvocations) {
  const GpuHealthMonitor::Stats Stats = Health.stats();
  Report.Resilience.LaunchRetries = Stats.LaunchFailures;
  Report.Resilience.LaunchesAbandoned = Stats.LaunchesAbandoned;
  Report.Resilience.HangsDetected = Stats.HangsDetected;
  Report.Resilience.Quarantines = Stats.Quarantines;
  Report.Resilience.QuarantinedInvocations = QuarantinedInvocations;
  Report.Resilience.Recoveries = Stats.Recoveries;
  if (const FaultInjector *Faults = Proc.faults()) {
    Report.Injected = Faults->stats();
    Report.FaultsEnabled = true;
  }
}

SessionReport ExecutionSession::run(SchemeKind Kind,
                                    const RunOptions &Options) const {
  ECAS_CHECK(Options.Trace, "run() requires RunOptions::Trace");
  ECAS_CHECK(Kind != SchemeKind::Eas || Options.Curves || Options.CurveFamily,
             "SchemeKind::Eas requires RunOptions::Curves or CurveFamily");
  SessionReport Report;
  {
    obs::ScopedSpan Session(Options.Recorder, "session", "session", {},
                            formatString("scheme=%s", schemeKindName(Kind)));
    switch (Kind) {
    case SchemeKind::FixedAlpha:
    case SchemeKind::CpuOnly:
    case SchemeKind::GpuOnly:
      Report = runFixedAlphaScheme(Kind, Options);
      break;
    case SchemeKind::Oracle:
    case SchemeKind::Perf:
      Report = runSweepScheme(Kind, Options);
      break;
    case SchemeKind::Eas:
      Report = runEasScheme(Options);
      break;
    }
    if (Options.Recorder) {
      Session.setEndDetail(formatString(
          "scheme=%s seconds=%.6f joules=%.3f invocations=%u",
          schemeKindName(Kind), Report.Seconds, Report.Joules,
          Report.Invocations));
      Report.TraceEventCount = Options.Recorder->eventsRecorded();
    }
  }
  return Report;
}

SessionReport
ExecutionSession::runFixedAlphaScheme(SchemeKind Kind,
                                      const RunOptions &Options) const {
  const double Alpha = Kind == SchemeKind::CpuOnly   ? 0.0
                       : Kind == SchemeKind::GpuOnly ? 1.0
                                                     : Options.Alpha;
  const InvocationTrace &Trace = *Options.Trace;
  SimProcessor Proc(Spec);
  GpuHealthMonitor Health;
  uint32_t MsrBefore = Proc.meter().readMsr();
  double Start = Proc.now();
  double AlphaIterSum = 0.0;
  unsigned Quarantined = 0;
  for (const KernelInvocation &Invocation : Trace) {
    PartitionOutcome Outcome = runPartitionedResilient(
        Proc, Health, Invocation.Kernel, Invocation.Iterations, Alpha);
    AlphaIterSum += Outcome.AlphaEffective * Invocation.Iterations;
    Quarantined += Outcome.QuarantineSkipped ? 1 : 0;
  }
  double Seconds = Proc.now() - Start;
  double Joules = Proc.meter().joulesSince(MsrBefore);
  double TotalIters = traceIterations(Trace);
  SessionReport Report = finishReport(Kind, Options.Objective, Seconds, Joules,
                                      AlphaIterSum, TotalIters,
                                      static_cast<unsigned>(Trace.size()));
  attachResilience(Report, Health, Proc, Quarantined);
  return Report;
}

SessionReport ExecutionSession::runSweepScheme(SchemeKind Kind,
                                               const RunOptions &Options) const {
  ECAS_CHECK(Options.Step > 0.0 && Options.Step <= 1.0,
             "sweep step must lie in (0, 1]");
  const bool ByTime = Kind == SchemeKind::Perf;
  RunOptions Point = Options;
  SessionReport Best;
  bool HaveBest = false;
  for (double Alpha = 0.0; Alpha <= 1.0 + 1e-9; Alpha += Options.Step) {
    Point.Alpha = std::min(Alpha, 1.0);
    SessionReport Candidate =
        runFixedAlphaScheme(SchemeKind::FixedAlpha, Point);
    bool Better = ByTime ? Candidate.Seconds < Best.Seconds
                         : Candidate.MetricValue < Best.MetricValue;
    if (!HaveBest || Better) {
      Best = Candidate;
      HaveBest = true;
    }
  }
  Best.Kind = Kind;
  return Best;
}

SessionReport ExecutionSession::runEasScheme(const RunOptions &Options) const {
  const InvocationTrace &Trace = *Options.Trace;
  const CancellationToken *Cancel = Options.Cancel;
  // The recorder rides into the scheduler through its config — unless
  // the caller already wired one there explicitly.
  EasConfig Config = Options.Eas;
  if (Options.Recorder && !Config.Trace)
    Config.Trace = Options.Recorder;
  if (Options.Metrics && !Config.Metrics)
    Config.Metrics = Options.Metrics;
  SimProcessor Proc(Spec);
  if (Config.Metrics)
    Proc.meter().setReadCounter(&Config.Metrics->counter(
        obs::names::MsrReadsTotal, {},
        "Emulated MSR_PKG_ENERGY_STATUS reads (sampling cadence the "
        "wrap-at-most-once contract depends on)"));
  EasScheduler Scheduler(
      Options.CurveFamily ? *Options.CurveFamily
                          : PowerCurveFamily::fromSingle(*Options.Curves),
      Options.Objective, Config);
  uint32_t MsrBefore = Proc.meter().readMsr();
  double Start = Proc.now();
  double AlphaIterSum = 0.0;
  WorkloadClass LastClass;
  bool Classified = false;
  unsigned Quarantined = 0;
  unsigned Completed = 0;
  unsigned ProfileReps = 0;
  unsigned AlphaSearches = 0;
  unsigned CpuOnlyFastPaths = 0;
  double TimeErrSum = 0.0;
  double EnergyErrSum = 0.0;
  unsigned ModelSamples = 0;
  bool Cancelled = false;
  for (const KernelInvocation &Invocation : Trace) {
    // Deadlines are judged against the virtual clock the run advances.
    if (Cancel && Cancel->shouldStop(Proc.now())) {
      Cancelled = true;
      break;
    }
    EasScheduler::InvocationOutcome Outcome = Scheduler.execute(
        Proc, Invocation.Kernel, Invocation.Iterations, Options.Request,
        Cancel);
    // Tally the work counters before judging cancellation so they agree
    // with the trace counters (a cancelled invocation may still have
    // profiled before the token fired).
    ProfileReps += Outcome.ProfileRepetitions;
    AlphaSearches += Outcome.AlphaSearches;
    CpuOnlyFastPaths += Outcome.CpuOnlyFastPath ? 1 : 0;
    // Invocation-order sums, the same fold a histogram performs — a
    // single-class run's means then match the registry's bitwise.
    if (Outcome.hasModelSample()) {
      TimeErrSum += Outcome.timeRelError();
      EnergyErrSum += Outcome.energyRelError();
      ++ModelSamples;
    }
    if (Outcome.Cancelled || Outcome.Rejected) {
      Cancelled = true;
      break;
    }
    ++Completed;
    AlphaIterSum += Outcome.AlphaUsed * Invocation.Iterations;
    Quarantined += Outcome.GpuQuarantined ? 1 : 0;
    if (Outcome.Profiled) {
      LastClass = Outcome.Class;
      Classified = true;
    }
  }
  double Seconds = Proc.now() - Start;
  double Joules = Proc.meter().joulesSince(MsrBefore);
  SessionReport Report = finishReport(SchemeKind::Eas, Options.Objective,
                                      Seconds, Joules, AlphaIterSum,
                                      traceIterations(Trace), Completed);
  Report.ClassifiedAs = LastClass;
  Report.WasClassified = Classified;
  Report.Cancelled = Cancelled;
  Report.ProfileRepetitions = ProfileReps;
  Report.AlphaSearches = AlphaSearches;
  Report.CpuOnlyFastPaths = CpuOnlyFastPaths;
  if (ModelSamples) {
    Report.ModelTimeRelError = TimeErrSum / ModelSamples;
    Report.ModelEnergyRelError = EnergyErrSum / ModelSamples;
    Report.ModelSamples = ModelSamples;
  }
  attachResilience(Report, Scheduler.health(), Proc, Quarantined);
  return Report;
}
