//===-- ecas/core/EasScheduler.cpp - The EAS algorithm (Fig. 7) -----------===//
//
// Part of the ecas project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "ecas/core/EasScheduler.h"

#include "ecas/core/Schedulers.h"
#include "ecas/core/TimeModel.h"
#include "ecas/hw/PlatformSpec.h"
#include "ecas/obs/MetricNames.h"
#include "ecas/support/Assert.h"
#include "ecas/support/Format.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <vector>

using namespace ecas;

// The P-state ordinal flows from the platform table through the power
// family into the decision core; one table size bounds all three.
static_assert(kMaxPStates == PlatformSpec::MaxPStates,
              "decision-core and platform P-state tables disagree");
static_assert(kMaxPStates == PowerCurveFamily::MaxPStates,
              "decision-core and power-family P-state tables disagree");

/// True when every field has the same bit pattern in both samples, so
/// +0 and -0 differ and a NaN equals only an identical NaN.
static bool bitwiseEqual(const ProfileSample &A, const ProfileSample &B) {
  auto Same = [](double X, double Y) {
    return std::bit_cast<uint64_t>(X) == std::bit_cast<uint64_t>(Y);
  };
  return Same(A.CpuThroughput, B.CpuThroughput) &&
         Same(A.GpuThroughput, B.GpuThroughput) &&
         Same(A.CpuIterations, B.CpuIterations) &&
         Same(A.GpuIterations, B.GpuIterations) &&
         Same(A.ElapsedSeconds, B.ElapsedSeconds) &&
         Same(A.CpuBusySeconds, B.CpuBusySeconds) &&
         Same(A.GpuBusySeconds, B.GpuBusySeconds) &&
         Same(A.MissPerLoadStore, B.MissPerLoadStore) &&
         Same(A.InstructionsRetired, B.InstructionsRetired) &&
         A.GpuLaunchFailed == B.GpuLaunchFailed && A.GpuHung == B.GpuHung;
}

Status EasConfig::validate() const {
  auto Invalid = [](std::string Message) {
    return Status::error(ErrCode::InvalidArgument, std::move(Message));
  };
  if (!(AlphaStep > 0.0 && AlphaStep <= 1.0))
    return Invalid(formatString("alpha step %g outside (0, 1]", AlphaStep));
  if (!(ProfileFraction > 0.0 && ProfileFraction <= 1.0))
    return Invalid(
        formatString("profile fraction %g outside (0, 1]", ProfileFraction));
  if (GpuProfileSize < 0.0)
    return Invalid(
        formatString("negative GPU profile size %g", GpuProfileSize));
  if (Health.MaxLaunchRetries == 0)
    return Invalid("zero-capacity launch-retry budget");
  if (!(Health.WatchdogPollSec > 0.0))
    return Invalid(formatString("non-positive watchdog poll interval %g",
                                Health.WatchdogPollSec));
  if (!(Health.InitialQuarantineSec > 0.0))
    return Invalid(formatString("non-positive quarantine backoff %g",
                                Health.InitialQuarantineSec));
  if (Health.QuarantineBackoffMultiplier < 1.0)
    return Invalid(formatString("shrinking quarantine backoff multiplier %g",
                                Health.QuarantineBackoffMultiplier));
  if (Health.RetryBackoffMultiplier < 1.0)
    return Invalid(formatString("shrinking retry backoff multiplier %g",
                                Health.RetryBackoffMultiplier));
  if (Policy == SchedulingPolicy::PaceToDeadline &&
      (!std::isfinite(DeadlineSeconds) || DeadlineSeconds <= 0.0))
    return Invalid(formatString(
        "pace-to-deadline requires a positive finite deadline, got %g",
        DeadlineSeconds));
  if (!std::isfinite(IdleWatts) || IdleWatts < 0.0)
    return Invalid(formatString("negative or non-finite idle watts %g",
                                IdleWatts));
  if (Journal.Enabled) {
    if (HistoryFile.empty())
      return Invalid("journaling requires a history file (the journal "
                     "appends to it)");
    if (Journal.GroupCommitRecords == 0)
      return Invalid("zero group-commit record threshold (1 means "
                     "per-record commit)");
    if (Journal.GroupCommitBytes == 0)
      return Invalid("zero group-commit byte threshold");
  }
  return Status::success();
}

double EasScheduler::InvocationOutcome::timeRelError() const {
  return std::abs(PredictedSeconds - MeasuredSeconds) / MeasuredSeconds;
}

double EasScheduler::InvocationOutcome::energyRelError() const {
  return std::abs(PredictedWatts * PredictedSeconds - MeasuredJoules) /
         MeasuredJoules;
}

EasScheduler::EasScheduler(PowerCurveFamily CurvesIn, Metric ObjectiveIn,
                           EasConfig ConfigIn)
    : Curves(std::move(CurvesIn)), Objective(std::move(ObjectiveIn)),
      Config(std::move(ConfigIn)), Monitor(Config.Health) {
  ECAS_CHECK(Curves.complete(),
             "EAS requires a complete 8-category power characterization "
             "for every P-state");
  // Misconfiguration is a usage error, not an environment failure:
  // callers with untrusted configs validate() first.
  if (Status Valid = Config.validate(); !Valid.ok())
    reportFatalError(Valid.toString().c_str(), __FILE__, __LINE__);
  registerInstruments();
  initDurability();
}

void EasScheduler::initDurability() {
  if (Config.HistoryFile.empty())
    return;

  // One restore path: one read and one scan of the history file. With
  // the journal on, recovery compacts the file to a fresh generation
  // before the journal reopens it for appending.
  obs::ScopedSpan RecoverySpan(Config.Trace, "eas", "recovery");
  Recovery = recoverKernelHistory(History, Config.HistoryFile,
                                  /*Compact=*/Config.Journal.Enabled);
  if (Config.Trace)
    RecoverySpan.setEndDetail(formatString(
        "outcome=%s base=%zu replayed=%zu truncated=%zu generation=%llu",
        recoveryOutcomeName(Recovery.Outcome), Recovery.BaseRecords,
        Recovery.ReplayedRecords, Recovery.TruncatedRecords,
        static_cast<unsigned long long>(Recovery.Generation)));
  if (Ins.ReplayedRecords && Recovery.ReplayedRecords)
    Ins.ReplayedRecords->add(Recovery.ReplayedRecords);
  if (Ins.TruncatedRecords && Recovery.TruncatedRecords)
    Ins.TruncatedRecords->add(Recovery.TruncatedRecords);
  if (Ins.RecoverySecondsGauge)
    Ins.RecoverySecondsGauge->set(Recovery.Seconds);
  if (obs::Counter *Outcome =
          Ins.RecoveryOutcomes[static_cast<unsigned>(Recovery.Outcome)])
    Outcome->add();

  if (!Config.Journal.Enabled)
    return;
  ErrorOr<std::unique_ptr<HistoryJournal>> Opened = HistoryJournal::open(
      {Config.Journal, Config.HistoryFile}, Recovery.Generation);
  if (!Opened) {
    // Shutdown-only durability: scheduling is unaffected, shutdown
    // still compacts the file, journalStatus() says why.
    noteJournalFailure(Opened.status());
    return;
  }
  Journal = std::move(*Opened);
  HistoryJournal::MetricHooks Hooks;
  Hooks.Appends = Ins.JournalAppends;
  Hooks.Bytes = Ins.JournalBytes;
  Journal->setMetrics(Hooks);
}

Status EasScheduler::journalStatus() const {
  LockGuard Lock(JournalStatusMutex);
  return JournalFailure;
}

void EasScheduler::noteJournalFailure(const Status &S) {
  // Error-path bookkeeping behind a leaf status mutex; reached from the
  // hot path only when an (opt-in) journal commit fails.
  LockGuard Lock(JournalStatusMutex); // ecas-hotpath: allow(lock)
  if (JournalFailure.ok())
    JournalFailure = S;
}

void EasScheduler::journalRecord(const HistoryDeltaRecord &Rec) {
  if (Journal)
    Journal->enqueue(Rec);
}

void EasScheduler::journalCommit() {
  if (!Journal)
    return;
  if (Status S = Journal->maybeFlush(); !S.ok())
    noteJournalFailure(S);
}

Status EasScheduler::flushJournal() {
  if (!Journal)
    return Status::success();
  Status S = Journal->flush();
  if (!S.ok())
    noteJournalFailure(S);
  return S;
}

EasScheduler::~EasScheduler() { shutdown(); }

void EasScheduler::registerInstruments() {
  obs::MetricsRegistry *M = Config.Metrics;
  // The health monitor's counters need a registry; its flight instants
  // do not, so a crash bundle carries the hang/quarantine timeline even
  // when metrics are off.
  GpuHealthMonitor::MetricHooks Hooks;
  Hooks.Trace = Config.Trace;
  Hooks.Flight = Config.Flight;
  if (M) {
    Hooks.Hangs = &M->counter(obs::names::HangsTotal, {},
                              "Hangs declared by the watchdog");
    Hooks.Quarantines = &M->counter(obs::names::QuarantinesTotal, {},
                                    "GPU quarantines entered");
    Hooks.Probes = &M->counter(obs::names::ProbesTotal, {},
                               "Post-quarantine re-probe dispatches granted");
    Hooks.Recoveries = &M->counter(obs::names::RecoveriesTotal, {},
                                   "Probes that re-admitted the GPU");
  }
  Monitor.setMetrics(Hooks);
  if (!M)
    return;
  // Rel errors are ratios spanning "model is exact" (1e-4) to "model is
  // off by an order of magnitude"; log buckets keep both ends resolved.
  const std::vector<double> RelErrBuckets = obs::logBuckets(1e-4, 2.0, 18);
  // Every per-state series carries its pstate label, one state or many,
  // so a scrape's label sets do not depend on the curve family.
  unsigned K = std::min(Curves.numPStates(), kMaxPStates);
  for (unsigned I = 0; I != WorkloadClass::NumClasses; ++I) {
    for (unsigned S = 0; S != K; ++S) {
      obs::MetricLabels ByClass{{"class", WorkloadClass::fromIndex(I).name()},
                                {"pstate", formatString("%u", S)}};
      Ins.TimeRelError[I][S] = &M->histogram(
          obs::names::ModelTimeRelError, RelErrBuckets, ByClass,
          "Relative error of the analytical T(alpha) prediction against the "
          "measured dispatch time");
      Ins.EnergyRelError[I][S] = &M->histogram(
          obs::names::ModelEnergyRelError, RelErrBuckets, ByClass,
          "Relative error of the predicted dispatch energy P(alpha)*T(alpha) "
          "against the measured joules");
    }
  }
  for (unsigned S = 0; S != K; ++S) {
    obs::MetricLabels ByState{{"pstate", formatString("%u", S)}};
    Ins.AlphaChosen[S] = &M->histogram(
        obs::names::AlphaChosen, obs::linearBuckets(0.0, 0.05, 20), ByState,
        "GPU offload ratio used by completed invocations");
    Ins.PStateResidency[S] = &M->gauge(
        obs::names::PStateResidencySeconds, ByState,
        "Cumulative virtual seconds of completed work in this P-state");
  }
  Ins.AlphaSearchEvals = &M->histogram(
      obs::names::AlphaSearchEvals, obs::linearBuckets(0.0, 8.0, 16), {},
      "Objective evaluations spent in one invocation's alpha searches");
  Ins.ProfileOverhead = &M->histogram(
      obs::names::ProfileOverheadFraction, obs::linearBuckets(0.0, 0.05, 20),
      {}, "Fraction of a profiled invocation spent profiling");
  Ins.InvocationSeconds =
      &M->histogram(obs::names::InvocationSeconds,
                    obs::logBuckets(1e-5, 4.0, 16), {},
                    "Virtual seconds per completed invocation");
  Ins.ProfileRepSeconds =
      &M->histogram(obs::names::ProfileRepSeconds,
                    obs::logBuckets(1e-6, 4.0, 16), {},
                    "Virtual seconds per online-profiling repetition");
  Ins.Invocations = &M->counter(obs::names::InvocationsTotal, {},
                                "Invocations admitted (including cancelled)");
  Ins.TableHits = &M->counter(obs::names::TableHitsTotal, {},
                              "Invocations served from a table-G hit");
  Ins.TableMisses = &M->counter(obs::names::TableMissesTotal, {},
                                "Invocations that had to profile");
  Ins.CpuOnly = &M->counter(obs::names::CpuOnlyTotal, {},
                            "Invocations on a CPU-only fast path");
  Ins.Cancelled = &M->counter(obs::names::CancelledTotal, {},
                              "Invocations cut short by a token");
  Ins.Rejected = &M->counter(obs::names::RejectedTotal, {},
                             "Invocations bounced by the admission gate");
  Ins.ProfileReps = &M->counter(obs::names::ProfileRepsTotal, {},
                                "Online-profiling repetitions performed");
  Ins.LaunchRetries = &M->counter(obs::names::LaunchRetriesTotal, {},
                                  "GPU enqueue attempts retried");
  Ins.Readmissions =
      &M->counter(obs::names::ReadmissionsTotal, {},
                  "Recovered-GPU re-admissions that forced a re-profile");
  Ins.QuarantinedRuns =
      &M->counter(obs::names::QuarantinedRunsTotal, {},
                  "Invocations pinned to the CPU by an active quarantine");
  Ins.ShutdownDrain =
      &M->gauge(obs::names::ShutdownDrainSeconds, {},
                "Host seconds the last shutdown spent draining");
  Ins.JournalAppends =
      &M->counter(obs::names::HistoryJournalAppendsTotal, {},
                  "Table-G delta records appended to the write-ahead journal");
  Ins.JournalBytes =
      &M->counter(obs::names::HistoryJournalBytesTotal, {},
                  "Bytes of framed records appended to the journal");
  Ins.ReplayedRecords =
      &M->counter(obs::names::HistoryReplayedRecordsTotal, {},
                  "Journal records replayed onto the snapshot at recovery");
  Ins.TruncatedRecords =
      &M->counter(obs::names::HistoryTruncatedRecordsTotal, {},
                  "Torn or corrupt journal records truncated at recovery");
  Ins.RecoverySecondsGauge =
      &M->gauge(obs::names::RecoverySeconds, {},
                "Host seconds the constructor's table-G recovery took");
  for (unsigned I = 0; I != 4; ++I)
    Ins.RecoveryOutcomes[I] = &M->counter(
        obs::names::HistoryRecoveryOutcome,
        {{"outcome", recoveryOutcomeName(static_cast<RecoveryOutcome>(I))}},
        "Recoveries by how they found the on-disk state");
}

void EasScheduler::recordInvocation(const KernelDesc &Kernel,
                                    const InvocationOutcome &Outcome) {
  // Each lifecycle tally is read off the outcome once and fans out to
  // the trace counter and the registry counter alike, so the two
  // cannot drift. A null name or instrument skips that sink.
  if (Config.Trace || Config.Metrics) {
    struct Tally {
      double Delta;
      const char *TraceName;
      obs::Counter *Metric;
    };
    const Tally Tallies[] = {
        {1.0, "eas.invocations", Ins.Invocations},
        {double(Outcome.TableHit), "eas.table_hits", Ins.TableHits},
        {double(Outcome.Profiled), nullptr, Ins.TableMisses},
        {double(Outcome.CpuOnlyFastPath), "eas.cpu_only", Ins.CpuOnly},
        {double(Outcome.Cancelled), "eas.cancelled", Ins.Cancelled},
        {double(Outcome.GpuQuarantined), "eas.quarantined_runs",
         Ins.QuarantinedRuns},
        {double(Outcome.ProfileRepetitions), "eas.profile_reps",
         Ins.ProfileReps},
        {double(Outcome.AlphaSearches), "eas.alpha_searches", nullptr},
        {double(Outcome.LaunchRetries), "eas.launch_retries",
         Ins.LaunchRetries},
        // The registry counts hangs where the watchdog declares them
        // (GpuHealthMonitor's eas_health_hangs_total hook).
        {double(Outcome.HangDetected), "eas.hangs", nullptr},
        {double(Outcome.GpuReadmitted), "eas.readmissions",
         Ins.Readmissions},
    };
    for (const Tally &Each : Tallies) {
      if (Each.Delta == 0.0)
        continue;
      if (Config.Trace && Each.TraceName)
        Config.Trace->count(Each.TraceName, Each.Delta);
      if (Each.Metric)
        Each.Metric->add(Each.Delta);
    }
  }

  if (Config.Flight) {
    obs::DecisionRecord Rec;
    Rec.KernelId = Kernel.Id;
    Rec.ClassIndex = Outcome.TableHit || Outcome.Profiled
                         ? static_cast<int>(Outcome.Class.index())
                         : -1;
    Rec.Alpha = Outcome.AlphaUsed;
    Rec.PState = Outcome.PState;
    Rec.HasPrediction = Outcome.HasPrediction;
    Rec.PredictedSeconds = Outcome.PredictedSeconds;
    Rec.PredictedWatts = Outcome.PredictedWatts;
    Rec.PredictedMetric = Outcome.PredictedMetric;
    Rec.MeasuredSeconds = Outcome.MeasuredSeconds;
    Rec.MeasuredJoules = Outcome.MeasuredJoules;
    Rec.TableHit = Outcome.TableHit;
    Rec.Profiled = Outcome.Profiled;
    Rec.CpuOnlyFastPath = Outcome.CpuOnlyFastPath;
    Rec.GpuQuarantined = Outcome.GpuQuarantined;
    Rec.Cancelled = Outcome.Cancelled;
    // Fixed-capacity overwrite ring: appending stays allocation-free
    // once warm, so the recorder may be armed on the hot path. Every
    // invocation lands in the decision ring; the event ring gets only
    // transitions (a warm table hit's instant would duplicate the
    // DecisionRecord and double the armed hot path's lock count).
    Config.Flight->recordDecision(Rec);
    if (Outcome.Profiled)
      Config.Flight->instant("eas", "profile", {}, {}, Outcome.Seconds);
    if (Outcome.GpuQuarantined)
      Config.Flight->instant("eas", "quarantined-run");
    if (Outcome.GpuReadmitted)
      Config.Flight->instant("eas", "readmission");
  }

  if (!Config.Metrics || Outcome.Cancelled)
    // Partial invocations keep their work counters (above) but stay out
    // of the completed-run distributions.
    return;
  Ins.InvocationSeconds->record(Outcome.Seconds);
  unsigned PIdx =
      std::min(Outcome.PState, std::min(Curves.numPStates(), kMaxPStates) - 1);
  Ins.AlphaChosen[PIdx]->record(Outcome.AlphaUsed);
  Ins.PStateResidency[PIdx]->add(Outcome.Seconds);
  if (Outcome.AlphaSearches)
    Ins.AlphaSearchEvals->record(Outcome.AlphaEvaluations);
  if (Outcome.Profiled && Outcome.Seconds > 0.0)
    Ins.ProfileOverhead->record(Outcome.ProfileSeconds / Outcome.Seconds);
  if (Outcome.hasModelSample()) {
    unsigned Idx = Outcome.Class.index();
    Ins.TimeRelError[Idx][PIdx]->record(Outcome.timeRelError());
    Ins.EnergyRelError[Idx][PIdx]->record(Outcome.energyRelError());
  }
}

unsigned EasScheduler::buildPStateViews(const SimProcessor &Proc,
                                        WorkloadClass Class,
                                        PStateView *Views) const {
  unsigned K = 1;
  if (Config.PStates)
    K = std::min({Proc.spec().pstateCount(), Curves.numPStates(),
                  kMaxPStates});
  PStateSpec Full = Proc.spec().pstateAt(0);
  for (unsigned S = 0; S != K; ++S) {
    PStateSpec State = Proc.spec().pstateAt(S);
    Views[S].Curve = &Curves.stateCurves(S).curveFor(Class);
    // State 0 is the reference the profiler measured at; its scales are
    // exactly 1 so a single-state search reuses the caller's TimeModel
    // object (the wrapper bit-identity guarantee).
    Views[S].CpuFreqScale =
        S == 0 || Full.CpuFreqGHz <= 0.0 ? 1.0
                                         : State.CpuFreqGHz / Full.CpuFreqGHz;
    Views[S].GpuFreqScale =
        S == 0 || Full.GpuFreqGHz <= 0.0 ? 1.0
                                         : State.GpuFreqGHz / Full.GpuFreqGHz;
  }
  return K;
}

double EasScheduler::memBoundFraction(double MissPerLoadStore) const {
  double Threshold = Config.Thresholds.MemoryIntensity;
  if (!(Threshold > 0.0) || !(MissPerLoadStore > 0.0))
    return 0.0;
  return std::min(MissPerLoadStore / Threshold, 1.0);
}

bool EasScheduler::stopRequested(double NowSec,
                                 const CancellationToken *Cancel) const {
  return DrainToken.cancelled() || (Cancel && Cancel->shouldStop(NowSec));
}

void EasScheduler::endInvocation() {
  if (InFlight.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    // Take the lifecycle mutex so a shutdown() thread between its
    // predicate check and its wait cannot miss this notification.
    LockGuard Lock(LifecycleMutex);
    Drained.notify_all();
  }
}

Status EasScheduler::shutdown(double DrainGraceSec) {
  bool WasAdmitting = true;
  if (!Admitting.compare_exchange_strong(WasAdmitting, false,
                                         std::memory_order_acq_rel)) {
    // Someone else is (or finished) shutting down; wait for their
    // verdict so shutdown() is idempotent. (Explicit loop: the analysis
    // sees the guarded reads under the held capability.)
    UniqueLock Lock(LifecycleMutex);
    while (!ShutdownComplete)
      Drained.wait(Lock.native());
    return ShutdownResult;
  }

  // Phase 1: drain. New invocations already bounce off the admission
  // gate; give the in-flight ones the grace period to finish cleanly.
  std::chrono::steady_clock::time_point DrainStart =
      std::chrono::steady_clock::now();
  {
    obs::ScopedSpan DrainSpan(Config.Trace, "eas", "drain");
    UniqueLock Lock(LifecycleMutex);
    bool Clean = Drained.wait_for(
        Lock.native(),
        std::chrono::duration<double>(std::max(DrainGraceSec, 0.0)),
        [this] { return InFlight.load(std::memory_order_acquire) == 0; });
    if (!Clean) {
      // Phase 2: cancel. Stragglers observe the drain token at their
      // next cooperative point; every point is reached in bounded time,
      // so this wait terminates.
      DrainToken.cancel();
      Drained.wait(Lock.native(), [this] {
        return InFlight.load(std::memory_order_acquire) == 0;
      });
    }
  }
  if (Ins.ShutdownDrain)
    Ins.ShutdownDrain->set(std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - DrainStart)
                               .count());

  // Phase 3: compact table G into the history file — one atomic
  // rewrite as a base image. The journal's flushed tail makes the file
  // whole if the rewrite fails; its compaction drops what the image
  // already holds.
  Status S = Status::success();
  if (!Config.HistoryFile.empty()) {
    obs::ScopedSpan SnapshotSpan(Config.Trace, "eas", "snapshot");
    if (Journal) {
      if (Status FlushS = Journal->flush(); !FlushS.ok())
        noteJournalFailure(FlushS);
      S = Journal->compact(History);
    } else {
      S = writeHistoryFile(History, Config.HistoryFile,
                           Recovery.Generation + 1);
    }
    if (Config.Trace)
      SnapshotSpan.setEndDetail(S.toString());
  }

  {
    LockGuard Lock(LifecycleMutex);
    ShutdownComplete = true;
    ShutdownResult = S;
  }
  Drained.notify_all();
  return S;
}

Status EasScheduler::snapshot(const std::string &Path) const {
  return writeHistoryFile(History, Path,
                          Journal ? Journal->generation()
                                  : Recovery.Generation);
}

EasScheduler::InvocationOutcome
EasScheduler::execute(SimProcessor &Proc, const KernelDesc &Kernel,
                      double Iterations, const RequestContext &Request,
                      const CancellationToken *Cancel) {
  InFlight.fetch_add(1, std::memory_order_acq_rel);
  if (!Admitting.load(std::memory_order_acquire)) {
    endInvocation();
    if (Config.Trace) {
      Config.Trace->instant("eas", "rejected",
                            obs::VirtualTime(Proc.now()));
      Config.Trace->count("eas.rejected");
    }
    if (Ins.Rejected)
      Ins.Rejected->add();
    InvocationOutcome Outcome;
    Outcome.Rejected = true;
    return Outcome;
  }
  InvocationOutcome Outcome = executeAdmitted(
      Proc, Kernel, Iterations,
      namespacedKernelKey(Request.TenantId, Kernel.Id), Cancel);
  recordInvocation(Kernel, Outcome);
  endInvocation();
  return Outcome;
}

EasScheduler::InvocationOutcome
EasScheduler::executeAdmitted(SimProcessor &Proc, const KernelDesc &Kernel,
                              double Iterations, uint64_t HistoryKey,
                              const CancellationToken *Cancel) {
  ECAS_CHECK(Kernel.Id != 0, "kernel requires a stable nonzero id");
  ECAS_CHECK(HistoryKey != 0, "history key must be nonzero");
  InvocationOutcome Outcome;
  // Joint (alpha, f) mode: profiling and the CPU-only paths run at full
  // speed (the throughputs table G learns are the state-0 reference);
  // the winning P-state re-caps the clocks just before dispatch.
  if (Config.PStates)
    Proc.pcu().clearFrequencyCap();
  double Start = Proc.now();
  // Energy sample for the measured-window telemetry. A const read of the
  // emulated MSR: harmless without a registry, so it is not gated.
  uint32_t StartMsr = Proc.meter().readMsr();

  // The whole invocation is one span on the virtual-clock track. All
  // recording below is observation-only: with T == nullptr every helper
  // no-ops, and with a recorder attached the scheduling decisions are
  // bit-identical (ObsTest's null-sink regression).
  obs::FlightRecorder *T = Config.Trace;
  obs::ScopedSpan Invocation(
      T, "eas", "invocation",
      T ? std::function<double()>([&Proc] { return Proc.now(); })
        : std::function<double()>(),
      T ? formatString("kernel=%llu n=%.0f",
                       static_cast<unsigned long long>(Kernel.Id), Iterations)
        : std::string());

  // Cancellation point 1: invocation entry.
  if (stopRequested(Proc.now(), Cancel)) {
    Outcome.Cancelled = true;
    if (T)
      T->instant("eas", "cancelled", obs::VirtualTime(Proc.now()),
                 "at-entry");
    return Outcome;
  }

  // The CPU-alone exits (external GPU owner, quarantine, small N) share
  // one tail: the whole invocation is the measured window, and what
  // table G learns from it — CpuOnlyDelta, empty for an external owner —
  // is applied and journaled through the code replay runs. Its fields
  // commute with every other record (counters add, CpuOnly only ever
  // becomes true), so it may enqueue outside the shard lock.
  HistoryDeltaRecord CpuOnlyDelta;
  CpuOnlyDelta.Key = HistoryKey;
  auto CpuOnlyExit = [&] {
    if (!CpuOnlyDelta.empty()) {
      applyDeltaRecord(History, CpuOnlyDelta);
      journalRecord(CpuOnlyDelta);
      journalCommit();
    }
    Outcome.CpuOnlyFastPath = true;
    Outcome.Seconds = Proc.now() - Start;
    Outcome.MeasuredSeconds = Outcome.Seconds;
    Outcome.MeasuredJoules = Proc.meter().joulesSince(StartMsr);
    return Outcome;
  };

  // Section 5: when the GPU is busy with another client (performance
  // counter A26 on the paper's machines), run entirely on the CPU.
  if (externalGpuBusy()) {
    if (T)
      T->instant("eas", "external-gpu-busy", obs::VirtualTime(Proc.now()));
    runPartitioned(Proc, Kernel, Iterations, /*Alpha=*/0.0);
    return CpuOnlyExit();
  }

  // Graceful degradation: a quarantined GPU pins the invocation to
  // CPU-alone (alpha = 0) without consulting table G. gpuUsable() also
  // ends an expired quarantine — the dispatch below then doubles as the
  // re-probe that can re-admit the device.
  if (!Monitor.gpuUsable(Proc.now())) {
    obs::ScopedSpan Dispatch(
        T, "eas", "dispatch",
        T ? std::function<double()>([&Proc] { return Proc.now(); })
          : std::function<double()>(),
        "alpha=0.00 quarantined");
    runPartitionedResilient(Proc, Monitor, Kernel, Iterations,
                            /*Alpha=*/0.0);
    Outcome.GpuQuarantined = true;
    CpuOnlyDelta.QuarantinedDelta = 1;
    CpuOnlyDelta.InvocationsDelta = 1;
    return CpuOnlyExit();
  }

  // A recovery since the last invocation means the device coming back
  // may not be the device that left (thermal state, clocks); force a
  // re-profile so alpha is re-optimized against the recovered GPU. The
  // demand is sticky across small-N invocations that cannot profile.
  // The CAS makes exactly one client raise the demand per recovery.
  unsigned Recoveries = Monitor.recoveries();
  unsigned Seen = LastSeenRecoveries.load(std::memory_order_acquire);
  if (Recoveries != Seen &&
      LastSeenRecoveries.compare_exchange_strong(Seen, Recoveries,
                                                 std::memory_order_acq_rel))
    PendingReadmitReprofile.store(true, std::memory_order_release);

  double GpuProfileSize = Config.GpuProfileSize > 0.0
                              ? Config.GpuProfileSize
                              : Proc.spec().defaultGpuProfileSize();

  double ConfidentIters = GpuProfileSize / 4.0;

  OperatingPoint Point;
  double Nrem = Iterations;
  bool ProfileHang = false;
  // Profiling's contribution to table G: Local is the looked-up sample
  // with every usable repetition accumulated onto it in order, Fresh the
  // same repetitions alone.
  ProfileSample Local;
  ProfileSample Fresh;
  bool Measured = false;
  KernelRecord KnownRec;
  bool Known = History.lookup(HistoryKey, KnownRec);

  // Periodic re-profiling for kernels whose behaviour drifts over time
  // (Section 3.1: "we repeat profiling step since our online profiling
  // has low overhead").
  bool ReprofileDue =
      Config.ReprofileEveryInvocations > 0 && Known &&
      KnownRec.Invocations >= Config.ReprofileEveryInvocations &&
      KnownRec.Invocations % Config.ReprofileEveryInvocations == 0 &&
      Iterations >= GpuProfileSize;
  if (Iterations >= GpuProfileSize &&
      PendingReadmitReprofile.exchange(false, std::memory_order_acq_rel)) {
    Outcome.GpuReadmitted = true;
    ReprofileDue = true;
    if (T)
      T->instant("eas", "readmit-reprofile", obs::VirtualTime(Proc.now()));
  }

  // Decide: a table-G hit, the small-N CPU exit, or profile and search.
  if (Known && KnownRec.Alpha.hasValue() && !ReprofileDue &&
      (KnownRec.Confident || Iterations < GpuProfileSize)) {
    // Steps 2-4: multiple invocations of f reuse the learned ratio.
    // This steady-state hit is the lock-free path: one lookup, the
    // partitioned run, one counter bump. Its decision, dispatch and
    // finish are ECAS_HOT roots, so the hot-path analyzer and the
    // AllocGuard regression pin it.
    Point = decideTableHit(Proc, KnownRec, Iterations, Outcome);
    if (T)
      T->instant("eas", "table-hit", obs::VirtualTime(Proc.now()),
                 formatString("alpha=%.3f", Point.Alpha));
  } else if (Iterations < GpuProfileSize) {
    // Steps 6-10: not enough parallelism to fill the GPU — run this
    // invocation on the multicore CPU alone. The kernel is not pinned:
    // a later invocation large enough to fill the GPU still profiles
    // (graph kernels routinely open with a tiny frontier).
    if (T)
      T->instant("eas", "small-invocation", obs::VirtualTime(Proc.now()),
                 formatString("n=%.0f below profile size %.0f", Iterations,
                              GpuProfileSize));
    runPartitioned(Proc, Kernel, Iterations, /*Alpha=*/0.0);
    CpuOnlyDelta.SetCpuOnly = true;
    CpuOnlyDelta.InvocationsDelta = 1;
    return CpuOnlyExit();
  } else {
    // Steps 11-22: repeat profiling for half of the iterations. The
    // measurements fold into the kernel's record, so a kernel whose
    // first large invocation starved one device (a growing BFS frontier
    // barely above GPU_PROFILE_SIZE) keeps refining across invocations
    // until both devices have been properly observed. Profiling works
    // on a private copy of the record; the merge below folds it into the
    // shared record once, at the end.
    Outcome.Profiled = true;
    double ProfileStart = Proc.now();
    obs::ScopedSpan Profile(
        T, "eas", "profile",
        T ? std::function<double()>([&Proc] { return Proc.now(); })
          : std::function<double()>());
    OnlineProfiler Profiler(Proc, GpuProfileSize);
    Profiler.setWatchdogPollSec(Config.Health.WatchdogPollSec);
    Profiler.setTrace(T);
    Profiler.setRepSeconds(Ins.ProfileRepSeconds);
    Local = KnownRec.Sample;
    // Every repetition offloads the same GPU_PROFILE_SIZE chunk whatever
    // alpha a search would pick, so only the last usable repetition's
    // classify-and-search decides anything. The loop records the two
    // values that search reads; steps 17-20 run once, after it.
    ProfileSample SearchSample;
    double SearchNrem = 0.0;
    bool Searchable = false;
    double ProfileFloor = Iterations * Config.ProfileFraction;
    while (Nrem > ProfileFloor) {
      // Cancellation point 2: between profiling repetitions.
      if (stopRequested(Proc.now(), Cancel)) {
        Outcome.Cancelled = true;
        if (T)
          T->instant("eas", "cancelled", obs::VirtualTime(Proc.now()),
                     "mid-profile");
        break;
      }
      ProfileSample Sample = Profiler.profileOnce(Kernel, Nrem);
      ++Outcome.ProfileRepetitions;
      if (Sample.GpuLaunchFailed) {
        // The driver refused the profiling enqueue. Stop measuring; the
        // remainder execution below retries with backoff and degrades
        // if the device stays unavailable.
        Monitor.noteLaunchFailure(Proc.now());
        ++Outcome.LaunchRetries;
        break;
      }
      if (Sample.GpuHung) {
        // Quarantine the device and discard the repetition: a hung
        // chunk's near-zero "throughput" is a property of the fault,
        // not the kernel, and must not poison table G. The remainder
        // runs CPU-alone.
        Monitor.noteHang(Proc.now());
        Outcome.HangDetected = true;
        ProfileHang = true;
        break;
      }
      if (Sample.GpuIterations > 0.0)
        Monitor.noteGpuSuccess(Proc.now());
      if (Sample.ElapsedSeconds <= 0.0)
        break;
      Local.accumulate(Sample);
      Fresh.accumulate(Sample);
      Measured = true;
      if (Local.CpuThroughput <= 0.0 && Local.GpuThroughput <= 0.0)
        break;
      // The steady repetitions after this one run in one batch that
      // keeps this loop's steps for each: the stop check (cancellation
      // point 2), the pool update and both accumulations, in order. Each
      // measured a GPU chunk. Noting their successes once, after the
      // batch, is noting each with a racing quarantine landing before
      // the last.
      if (unsigned Batch = Profiler.profileReplayed(
              Kernel, Nrem, ProfileFloor, Local, Fresh,
              [&] { return stopRequested(Proc.now(), Cancel); })) {
        Outcome.ProfileRepetitions += Batch;
        Monitor.noteGpuSuccess(Proc.now());
        if (Local.CpuThroughput <= 0.0 && Local.GpuThroughput <= 0.0)
          break;
      }
      SearchSample = Local;
      SearchNrem = Nrem;
      Searchable = true;
    }

    if (Searchable) {
      // Steps 17-19: classify and pick the matching power curves.
      Outcome.Class =
          Profiler.classify(SearchSample, SearchNrem, Config.Thresholds);
      if (T)
        T->instant("eas", "classify", obs::VirtualTime(Proc.now()),
                   Outcome.Class.name());

      // Step 20, extended along the DVFS axis: minimize OBJ over the
      // (alpha, P-state) grid. Profiling may have consumed every
      // iteration (small invocations); the argmin of P(a)*T(a)^k is
      // independent of N, so clamping N away from zero keeps the
      // objective non-degenerate without changing the answer. With
      // P-states off this is exactly the paper's fixed-frequency alpha
      // grid (one view, unit scales).
      TimeModel Model(SearchSample.CpuThroughput, SearchSample.GpuThroughput);
      PStateView Views[kMaxPStates];
      unsigned NumViews = buildPStateViews(Proc, Outcome.Class, Views);
      OperatingPointSearchConfig Search;
      Search.Step = Config.AlphaStep;
      Search.Refine = Config.RefineAlpha;
      Search.Policy = Config.Policy;
      Search.DeadlineSeconds = Config.DeadlineSeconds;
      Search.IdleWatts = Config.IdleWatts;
      Search.MemBoundFraction = memBoundFraction(SearchSample.MissPerLoadStore);
      std::vector<std::pair<double, double>> Grid;
      if (T)
        Search.GridOut = &Grid;
      Decision Choice = chooseOperatingPoint(
          Model, Views, NumViews, Objective, std::max(SearchNrem, 1.0), Search);
      // A hang discards the alpha (the remainder runs CPU-alone) but
      // keeps the last search's P-state, class and prediction.
      Point.Alpha = ProfileHang ? 0.0 : Choice.Point.Alpha;
      Point.PState = Choice.Point.PState;
      Outcome.AlphaSearches = 1;
      Outcome.AlphaEvaluations = Choice.Evaluations;
      // Profiling decrements Nrem before the state is recorded, so the
      // search's prediction covers exactly the remainder dispatched
      // below — it is the fidelity sample this invocation yields.
      Outcome.HasPrediction = true;
      Outcome.PredictedSeconds = Choice.PredictedSeconds;
      Outcome.PredictedWatts = Choice.PredictedWatts;
      Outcome.PredictedMetric = Choice.PredictedMetric;
      if (T) {
        std::string Detail = formatString(
            "alpha=%.3f obj=%.6g evals=%u grid=", Choice.Point.Alpha,
            Choice.PredictedMetric, Choice.Evaluations);
        if (NumViews > 1)
          Detail = formatString("pstate=%u ", Choice.Point.PState) + Detail;
        for (size_t I = 0; I != Grid.size(); ++I)
          Detail += formatString(I ? ",%.2f:%.4g" : "%.2f:%.4g",
                                 Grid[I].first, Grid[I].second);
        T->instant("eas", "alpha-search", obs::VirtualTime(Proc.now()),
                   Detail);
      }
    }
    Outcome.ProfileSeconds = Proc.now() - ProfileStart;
  }

  // Cancellation point 3: before the remainder execution. A cancelled
  // invocation keeps its completed measurements (merged below) but runs
  // nothing further.
  if (!Outcome.Cancelled && stopRequested(Proc.now(), Cancel)) {
    Outcome.Cancelled = true;
    if (T)
      T->instant("eas", "cancelled", obs::VirtualTime(Proc.now()),
                 "before-dispatch");
  }

  if (Nrem > 0.0 && !Outcome.Cancelled)
    dispatchRemainder(Proc, Kernel, Nrem, Point, Outcome);

  // Step 26: sample-weighted accumulation across invocations. Only
  // freshly computed alphas are samples; a table-G reuse feeds back the
  // accumulator's own value and must not inflate its weight. A
  // profiling round ended by a hang produced a fault artifact, not a
  // kernel property, and is kept out of table G — as is the alpha of a
  // cancelled invocation, whose partial profiling must not be weighted
  // like a finished one.
  if (Outcome.Profiled) {
    bool AddAlpha = !ProfileHang && !Outcome.Cancelled;
    double AlphaWeight = std::max(Nrem, 1.0);
    History.update(HistoryKey, [&](KernelRecord &Rec) {
      // The merge is one delta, built against the locked record and
      // applied by the code replay runs. It is enqueued before the shard
      // lock releases, so journal order equals merge order per key and
      // replay is order-exact (the merged sample and the confident
      // transition do not commute). enqueue() buffers without IO, so no
      // fsync runs under the lock.
      HistoryDeltaRecord Delta;
      Delta.Key = HistoryKey;
      // One fixed-size sample however many repetitions ran; replay
      // assigns it. When no other client merged into this key since the
      // lookup (always, for a cold key without a racing writer), Local
      // already holds the locked record plus each repetition, added in
      // order: the sequential result, bit for bit. Otherwise the
      // invocation's repetitions land as one running sum. That keeps
      // every iteration and busy second, but the floating-point sums
      // associate differently than per-repetition accumulates would, so
      // only concurrent profiling of one key can see that difference.
      Delta.HasMergedSample = Measured;
      if (bitwiseEqual(Rec.Sample, KnownRec.Sample)) {
        Delta.MergedSample = Local;
      } else {
        Delta.MergedSample = Rec.Sample;
        Delta.MergedSample.accumulate(Fresh);
      }
      // First trustworthy measurement: discard the provisional alphas
      // accumulated while one device was starved of observations.
      Delta.BecameConfident =
          !Rec.Confident &&
          Delta.MergedSample.CpuIterations >= ConfidentIters &&
          Delta.MergedSample.GpuIterations >= ConfidentIters;
      if (AddAlpha) {
        Delta.HasAlphaSample = true;
        Delta.AlphaValue = Point.Alpha;
        Delta.AlphaWeight = AlphaWeight;
        // The P-state rides the same gate: a hang- or cancel-tainted
        // decision must not steer future invocations' clocks either.
        Delta.HasPState = true;
        Delta.PState = Point.PState;
      }
      Delta.HasClass = true;
      Delta.ClassIndex = Outcome.Class.index();
      applyDeltaFields(Rec, Delta);
      journalRecord(Delta);
    });
  }

  finishInvocation(Proc, HistoryKey, Point, Start, Invocation, Outcome);
  return Outcome;
}

OperatingPoint EasScheduler::decideTableHit(const SimProcessor &Proc,
                                            const KernelRecord &KnownRec,
                                            double Iterations,
                                            InvocationOutcome &Outcome) const {
  double Alpha = KnownRec.Alpha.value();
  // Replay the frequency half of the learned operating point too,
  // clamped to what this platform and characterization actually cover
  // (a snapshot can migrate between machines). With P-states off the
  // record's state is ignored and the hit runs at full speed, exactly
  // like a pre-DVFS build.
  unsigned PState = 0;
  if (Config.PStates)
    PState = std::min({KnownRec.PState, Proc.spec().pstateCount() - 1,
                       Curves.numPStates() - 1, kMaxPStates - 1});
  Outcome.Class = KnownRec.Class;
  Outcome.TableHit = true;
  if (KnownRec.Sample.CpuThroughput > 0.0 ||
      KnownRec.Sample.GpuThroughput > 0.0) {
    // Re-evaluate the analytical model from the stored record so hit
    // invocations carry the prediction that justifies them, whatever
    // sinks are attached. Observation only and allocation-free: neither
    // Alpha nor PState is read back from it. At a reduced P-state the
    // stored full-speed throughputs are rescaled through the same
    // Amdahl model the search used.
    TimeModel Model(KnownRec.Sample.CpuThroughput,
                    KnownRec.Sample.GpuThroughput);
    const PowerCurveSet &StateSet = Curves.stateCurves(
        std::min(PState, Curves.numPStates() - 1));
    if (PState > 0) {
      PStateSpec Full = Proc.spec().pstateAt(0);
      PStateSpec State = Proc.spec().pstateAt(PState);
      Model = Model.scaledTo(
          Full.CpuFreqGHz > 0.0 ? State.CpuFreqGHz / Full.CpuFreqGHz : 1.0,
          Full.GpuFreqGHz > 0.0 ? State.GpuFreqGHz / Full.GpuFreqGHz : 1.0,
          memBoundFraction(KnownRec.Sample.MissPerLoadStore));
    }
    Outcome.HasPrediction = true;
    Outcome.PredictedSeconds = Model.totalTime(Iterations, Alpha);
    Outcome.PredictedWatts = StateSet.curveFor(KnownRec.Class).powerAt(Alpha);
    Outcome.PredictedMetric =
        Objective.evaluate(Outcome.PredictedWatts, Outcome.PredictedSeconds);
  }
  return OperatingPoint{Alpha, PState};
}

void EasScheduler::dispatchRemainder(SimProcessor &Proc,
                                     const KernelDesc &Kernel, double Nrem,
                                     OperatingPoint Point,
                                     InvocationOutcome &Outcome) {
  // Steps 23-25: execute the remainder at the chosen split, optionally
  // telling the governor what is coming (future-work extension). The
  // resilient primitive handles launch retries, hang detection, and
  // quarantine-stranding; on a healthy platform it is exactly
  // runPartitioned.
  obs::FlightRecorder *T = Config.Trace;
  obs::ScopedSpan Dispatch(
      T, "eas", "dispatch",
      T ? std::function<double()>([&Proc] { return Proc.now(); }) // ecas-hotpath: allow(alloc)
        : std::function<double()>(),
      T ? formatString("alpha=%.3f n=%.0f", Point.Alpha, Nrem) // ecas-hotpath: allow(alloc)
        : std::string());
  if (Config.PStates) {
    // Actuate the frequency half of the operating point: cap the PCU
    // at the chosen state's clocks for the remainder dispatch. A warmed
    // hit does this with two PCU calls — no search, no allocation (the
    // AllocGuard regression covers it with a multi-state family).
    PStateSpec Cap = Proc.spec().pstateAt(Point.PState);
    Proc.pcu().setFrequencyCap(Cap.CpuFreqGHz, Cap.GpuFreqGHz);
  }
  if (Config.PcuHints)
    Proc.pcu().hintUpcomingSplit(Point.Alpha);
  double DispatchStart = Proc.now();
  uint32_t DispatchMsr = Proc.meter().readMsr();
  PartitionOutcome Partition =
      runPartitionedResilient(Proc, Monitor, Kernel, Nrem, Point.Alpha);
  Outcome.MeasuredSeconds = Proc.now() - DispatchStart;
  Outcome.MeasuredJoules = Proc.meter().joulesSince(DispatchMsr);
  Outcome.LaunchRetries += Partition.LaunchRetries;
  Outcome.HangDetected = Outcome.HangDetected || Partition.HangDetected;
  Outcome.GpuQuarantined =
      Outcome.GpuQuarantined || Partition.QuarantineSkipped;
  if (T && (Partition.LaunchRetries || Partition.HangDetected ||
            Partition.QuarantineSkipped))
    Dispatch.setEndDetail(formatString( // ecas-hotpath: allow(alloc)
        "retries=%u%s%s", Partition.LaunchRetries,
        Partition.HangDetected ? " hang" : "",
        Partition.QuarantineSkipped ? " quarantine-skipped" : ""));
}

void EasScheduler::finishInvocation(const SimProcessor &Proc,
                                    uint64_t HistoryKey, OperatingPoint Point,
                                    double Start, obs::ScopedSpan &Invocation,
                                    InvocationOutcome &Outcome) {
  // A prediction encodes the healthy-platform assumption; a hang or a
  // quarantine-stranded GPU share broke it mid-flight, so the measured
  // window no longer answers "how good is the model".
  if (Outcome.HangDetected || Outcome.GpuQuarantined)
    Outcome.HasPrediction = false;

  // A cancelled invocation did not complete; counting it would make
  // periodic re-profiling cadence drift under cancellation storms.
  if (!Outcome.Cancelled) {
    History.bumpInvocations(HistoryKey);
    if (Journal) {
      HistoryDeltaRecord Delta;
      Delta.Key = HistoryKey;
      Delta.InvocationsDelta = 1;
      journalRecord(Delta); // ecas-hotpath: allow(alloc)
    }
  }
  journalCommit(); // ecas-hotpath: allow(io)

  Outcome.AlphaUsed = Point.Alpha;
  Outcome.PState = Point.PState;
  Outcome.Seconds = Proc.now() - Start;
  if (Config.Trace)
    Invocation.setEndDetail(formatString( // ecas-hotpath: allow(alloc)
        "alpha=%.3f seconds=%.6f%s", Point.Alpha, Outcome.Seconds,
        Outcome.Cancelled ? " cancelled" : ""));
}
