//===-- ecas/core/EasScheduler.h - The EAS algorithm (Fig. 7) --*- C++ -*-===//
//
// Part of the ecas project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's primary contribution: the energy-aware scheduling
/// algorithm of Fig. 7. For a first-seen kernel it repeats online
/// profiling for half of the iterations (size-based strategy of [12]),
/// classifies the workload into one of the eight power-characterization
/// categories, and grid-searches the offload ratio minimizing the target
/// metric under the analytical time model; subsequent invocations reuse
/// the table-G entry, refined by sample-weighted accumulation.
///
/// The scheduler is a concurrent service: any number of client threads
/// (each with its own SimProcessor) may call execute() against one
/// shared table G. The steady-state hit — lookup alpha, run, count the
/// invocation — is lock-free. Invocations accept an optional
/// deadline/cancellation token, honoured at cooperative points between
/// profiling repetitions and before the remainder execution; shutdown()
/// closes admission, drains in-flight work against a grace period, and
/// writes table G to the configured history file.
///
//===----------------------------------------------------------------------===//

#ifndef ECAS_CORE_EASSCHEDULER_H
#define ECAS_CORE_EASSCHEDULER_H

#include "ecas/core/HistoryJournal.h"
#include "ecas/core/OperatingPoint.h"
#include "ecas/core/KernelHistory.h"
#include "ecas/core/Metric.h"
#include "ecas/core/RequestContext.h"
#include "ecas/fault/GpuHealth.h"
#include "ecas/obs/FlightRecorder.h"
#include "ecas/obs/Metrics.h"
#include "ecas/power/PowerCurve.h"
#include "ecas/profile/OnlineProfiler.h"
#include "ecas/sim/SimProcessor.h"
#include "ecas/support/Cancellation.h"
#include "ecas/support/Error.h"
#include "ecas/support/HotPath.h"
#include "ecas/support/ThreadAnnotations.h"

#include <atomic>
#include <condition_variable>
#include <string>

namespace ecas {

/// Tunables of the EAS algorithm.
struct EasConfig {
  /// GPU profiling chunk (Fig. 7 step 31). 0 selects the platform
  /// default, PlatformSpec::defaultGpuProfileSize(). A kernel's learned
  /// alpha is trusted and reused only once each device has executed a
  /// quarter of this chunk during profiling; below that the next
  /// large-enough invocation profiles again.
  double GpuProfileSize = 0.0;
  /// Offload-ratio grid increment for step 20.
  double AlphaStep = 0.1;
  /// Optional golden-section refinement of the grid answer (extension).
  bool RefineAlpha = false;
  /// Profiling repeats until fewer than this fraction of the invocation's
  /// iterations remain (step 13: "while N_rem > N/2").
  double ProfileFraction = 0.5;
  /// Announce the chosen split to the PCU before executing it (the
  /// paper's future-work extension): the governor jumps to the matching
  /// steady state instead of re-discovering it through wake resets and
  /// ramps. Benchmarked by bench/abl_pcu_hints.
  bool PcuHints = false;
  /// Re-profile a confident kernel every this many invocations, for
  /// kernels "where the same kernel behaves differently over time"
  /// (Section 3.1's repeated profiling). 0 disables periodic
  /// re-profiling; the sample-weighted accumulator then blends the new
  /// measurement with history.
  unsigned ReprofileEveryInvocations = 0;
  /// Joint (alpha, frequency) optimization: when true and both the
  /// platform and the characterization describe more than one P-state,
  /// the decision core searches the full OperatingPoint grid and
  /// actuates the winning state through the PCU's frequency cap before
  /// dispatch. Off (the default) searches alpha alone at full speed,
  /// the paper's fixed-frequency step 20.
  bool PStates = false;
  /// What the search minimizes (core/OperatingPoint.h): the metric
  /// itself, race-to-idle, or pace-to-deadline.
  SchedulingPolicy Policy = SchedulingPolicy::MinimizeMetric;
  /// Deadline for PaceToDeadline, in predicted virtual seconds per
  /// invocation. Must be positive and finite under that policy.
  double DeadlineSeconds = 0.0;
  /// Platform idle draw subtracted by RaceToIdle (0 reduces it to plain
  /// energy).
  double IdleWatts = 0.0;
  /// Classification thresholds (0.33 miss ratio, 100 ms).
  ClassifierThresholds Thresholds;
  /// Degradation policy: launch-retry budget, quarantine backoff, and
  /// the hang watchdog's poll interval. Only consulted when something
  /// goes wrong; with a healthy platform the scheduler never deviates
  /// from Fig. 7.
  GpuHealthConfig Health;
  /// Durable table-G file (DESIGN.md §13). When non-empty the
  /// constructor recovers the table from it (corruption degrades to the
  /// records before the tear, reported by restoreStatus()) and
  /// shutdown()/the destructor rewrite it atomically, so learned alphas
  /// survive restarts.
  std::string HistoryFile;
  /// Journaling of table-G merges: each one is appended to HistoryFile
  /// as it happens, not only at shutdown. Off by default; the serve
  /// front end turns it on whenever --history-file is set.
  struct JournalConfig : GroupCommitOptions {
    /// Append every table-G mutation, and compact the recovered file at
    /// construction. Requires HistoryFile.
    bool Enabled = false;
  };
  JournalConfig Journal;
  /// Optional trace recorder (not owned; must outlive the scheduler),
  /// normally in capture mode (obs::FlightRecorder::Unbounded) so it
  /// keeps every event and its Detail text. When set, every invocation
  /// emits spans and instants through it — admission, profiling
  /// repetitions, classification, the alpha search (with the evaluated
  /// grid), the remainder dispatch, health transitions, and the
  /// shutdown drain/snapshot phases — plus the eas.* counters, which
  /// recordInvocation() derives from the InvocationOutcome exactly like
  /// the eas_*_total metrics.
  obs::FlightRecorder *Trace = nullptr;
  /// Optional metrics registry (not owned; must outlive the scheduler).
  /// When set, the constructor pre-registers every instrument of the
  /// eas_* taxonomy (DESIGN.md §11) and each invocation folds its
  /// telemetry in — model rel-error histograms per workload class, the
  /// chosen-alpha distribution, profile overhead, lifecycle counters,
  /// and the health monitor's transition counters.
  obs::MetricsRegistry *Metrics = nullptr;
  /// Optional always-on flight recorder in bounded mode (not owned,
  /// DESIGN.md §16) and the one home of per-decision audit records:
  /// every admitted invocation appends its DecisionRecord to the
  /// recorder's overwrite-oldest ring, plus a handful of instant events
  /// (profile, hang, quarantine, readmission) — all fixed-capacity and
  /// allocation-free once warm, so arming it keeps the hot path's
  /// zero-allocation contract (HotPathTest's regression).
  ///
  /// All three sinks only observe. Each invocation's InvocationOutcome
  /// — predictions included — is the same whichever of them are
  /// attached, and null pointers no-op every hook (ObsTest's and
  /// MetricsTest's regressions).
  obs::FlightRecorder *Flight = nullptr;

  /// Checks every tunable for sanity: AlphaStep outside (0, 1],
  /// non-positive ProfileFraction (or above 1), negative
  /// GpuProfileSize, and zero-capacity Health budgets
  /// (no launch retries, non-positive quarantine or watchdog intervals,
  /// shrinking backoff multipliers) are all InvalidArgument. The
  /// EasScheduler constructor calls this and treats a failure as a
  /// fatal usage error; callers assembling configs from external input
  /// should validate first and surface the Status instead.
  Status validate() const;
};

/// The energy-aware scheduler. One instance owns a table G and serves
/// every kernel invocation of an application run — from any number of
/// threads.
class EasScheduler {
public:
  /// \p Curves holds one characterization per P-state, indexed like the
  /// platform's P-state table (PowerCurveFamily::fromSingle wraps a
  /// fixed-frequency characterization as state 0). Every state present
  /// must be complete (all eight categories) for the platform that
  /// \p Objective-optimized runs will execute on. The family is copied
  /// in; the scheduler owns its curves.
  EasScheduler(PowerCurveFamily Curves, Metric Objective,
               EasConfig Config = {});

  /// Drains and writes table G via shutdown() if the caller has not
  /// already.
  ~EasScheduler();

  /// What one invocation did.
  struct InvocationOutcome {
    double AlphaUsed = 0.0;
    /// P-state half of the operating point the dispatch ran at; 0 (full
    /// speed) whenever Config.PStates is off or the path never reached
    /// a joint decision (CPU-only, quarantine, rejection).
    unsigned PState = 0;
    double Seconds = 0.0;
    bool Profiled = false;
    bool CpuOnlyFastPath = false;
    WorkloadClass Class;
    /// Profiling repetitions performed (0 when table G was hit).
    unsigned ProfileRepetitions = 0;
    /// Operating-point searches performed: 1 when profiling produced a
    /// usable sample (the search runs once, on the last one), else 0.
    unsigned AlphaSearches = 0;
    /// The GPU was quarantined, so this invocation degraded to
    /// CPU-alone without attempting a dispatch.
    bool GpuQuarantined = false;
    /// A hang was detected (during profiling or execution) and the GPU
    /// share stranded back onto the CPU.
    bool HangDetected = false;
    /// Failed GPU enqueue attempts retried during this invocation.
    unsigned LaunchRetries = 0;
    /// First invocation after a recovery: the GPU was re-admitted and
    /// the kernel re-profiled so alpha reflects the recovered device.
    bool GpuReadmitted = false;
    /// The scheduler is shutting down; nothing ran and nothing was
    /// learned.
    bool Rejected = false;
    /// The deadline/cancellation token fired mid-invocation. Completed
    /// profiling measurements were still merged into table G, but no
    /// alpha sample was added and the invocation was not counted, so a
    /// partial run cannot poison the learned ratio.
    bool Cancelled = false;
    /// The ratio came straight from a table-G hit (steps 2-4).
    bool TableHit = false;

    //===------------------------------------------------------------===//
    // Model-validation telemetry. Filled from pure observation — const
    // reads of the virtual clock, the energy meter, and table G — and
    // never fed back into scheduling. Computed on every admitted
    // invocation whatever sinks are attached.
    //===------------------------------------------------------------===//
    /// A T(alpha)/P(alpha) prediction backed the dispatch: either the
    /// alpha search's winning point (profiled path) or the analytical
    /// model re-evaluated from the table-G record (hit path). Cleared
    /// when a fault (hang, quarantine-stranding) invalidated the
    /// healthy-platform assumption the prediction encodes.
    bool HasPrediction = false;
    double PredictedSeconds = 0.0;
    double PredictedWatts = 0.0;
    /// Objective value the prediction implied.
    double PredictedMetric = 0.0;
    /// Measured window the prediction covers: the remainder dispatch on
    /// the profiled/hit paths, the whole invocation on CPU-only paths.
    double MeasuredSeconds = 0.0;
    double MeasuredJoules = 0.0;
    /// Virtual seconds spent inside profiling repetitions.
    double ProfileSeconds = 0.0;
    /// Objective evaluations of this invocation's search (0 without
    /// one).
    unsigned AlphaEvaluations = 0;

    /// True when this invocation yields one model-fidelity sample: a
    /// prediction existed and the measured window completed with
    /// nonzero time and energy.
    bool hasModelSample() const {
      return HasPrediction && !Cancelled && MeasuredSeconds > 0.0 &&
             MeasuredJoules > 0.0;
    }
    /// |T_pred - T_meas| / T_meas; call only when hasModelSample().
    double timeRelError() const;
    /// |P_pred*T_pred - E_meas| / E_meas; call only when
    /// hasModelSample().
    double energyRelError() const;
  };

  /// Fig. 7's EAS(): schedules and executes one invocation of \p Kernel
  /// with \p Iterations parallel iterations on \p Proc. Thread-safe;
  /// concurrent callers must each bring their own \p Proc. Table-G
  /// lookups and updates use namespacedKernelKey(Request.TenantId,
  /// Kernel.Id), so one tenant's pathological kernels cannot poison
  /// another's learned alphas; the default tenant 0 keys by Kernel.Id
  /// alone. \p Cancel, when non-null, bounds the invocation (deadlines
  /// are measured against \p Proc's clock): it is checked at entry,
  /// between profiling repetitions, and before the remainder execution.
  InvocationOutcome execute(SimProcessor &Proc, const KernelDesc &Kernel,
                            double Iterations,
                            const RequestContext &Request = {},
                            const CancellationToken *Cancel = nullptr);

  /// Marks the GPU as claimed by another client (the paper tests GPU
  /// performance counter A26: "in that case, we execute the application
  /// entirely on the CPU"). While set, every invocation runs CPU-alone
  /// and nothing is learned into table G.
  void setExternalGpuBusy(bool Busy) {
    ExternalGpuBusy.store(Busy, std::memory_order_release);
  }
  bool externalGpuBusy() const {
    return ExternalGpuBusy.load(std::memory_order_acquire);
  }

  const KernelHistory &history() const { return History; }
  const Metric &objective() const { return Objective; }

  /// The GPU health monitor backing this scheduler's degradation policy.
  const GpuHealthMonitor &health() const { return Monitor; }

  /// Graceful shutdown: stop admitting invocations (new calls return
  /// Rejected), wait up to \p DrainGraceSec (host wall-clock) for
  /// in-flight invocations to finish, then fire the internal drain
  /// token so stragglers stop at their next cancellation point, and
  /// finally compact table G into EasConfig::HistoryFile (when set).
  /// Idempotent — later calls wait for and return the first call's
  /// result. \returns the compaction status (success when no history
  /// file is configured).
  Status shutdown(double DrainGraceSec = 5.0);

  /// False once shutdown() has begun; new invocations are rejected.
  bool acceptingWork() const {
    return Admitting.load(std::memory_order_acquire);
  }

  /// Outcome of the constructor's restore: success when the history
  /// file was missing or read cleanly; an error when it was corrupt,
  /// truncated, or version-mismatched, and the table holds only the
  /// records before the damage (none for a bad header).
  const Status &restoreStatus() const { return Recovery.ReadStatus; }
  /// Records in table G after the constructor's restore.
  size_t restoredRecords() const { return Recovery.Records; }

  /// What the constructor's recovery did. Without a journal the same
  /// recovery runs without compacting the file.
  const RecoveryReport &recoveryReport() const { return Recovery; }
  /// Non-success when journaling was requested but the journal could
  /// not be opened (or a flush failed); the scheduler keeps running
  /// with shutdown-only durability.
  Status journalStatus() const;
  /// True while the write-ahead journal is live.
  bool journaling() const { return Journal != nullptr; }
  /// Append-side counters (zeros without a live journal).
  HistoryJournal::Stats journalStats() const {
    return Journal ? Journal->stats() : HistoryJournal::Stats{};
  }
  /// Durably commits every journaled record enqueued so far (the
  /// service's idle-flush hook). No-op without a live journal.
  Status flushJournal();

  /// Writes table G as a base image to \p Path now (atomic tmp+rename):
  /// a complete table-G file that a scheduler with that HistoryFile
  /// restores. \p Path must not be the live HistoryFile of a journaling
  /// scheduler, whose appends would then go to the replaced file.
  Status snapshot(const std::string &Path) const;

  /// Forgets all table-G state (a fresh application run). Health state
  /// persists — a quarantine outlives application restarts the way a
  /// broken device does.
  void reset() { History.clear(); }

private:
  /// Fig. 7 in order: decide (a table-G hit, the small-N CPU exit, or
  /// profile and search), then one dispatch tail shared by the hit and
  /// the profiled paths — cancellation point 3, dispatchRemainder(), the
  /// profiled merge, finishInvocation(). The three CPU-alone exits
  /// (external GPU owner, quarantine, small N) share one tail of their
  /// own. decideTableHit(), dispatchRemainder() and finishInvocation()
  /// are a warmed hit's whole per-invocation work: ECAS_HOT marks them
  /// as roots for tools/ecas_hotpath.py, and with observability and
  /// journaling off they must stay allocation-free (the AllocGuard
  /// regression).
  InvocationOutcome executeAdmitted(SimProcessor &Proc,
                                    const KernelDesc &Kernel,
                                    double Iterations, uint64_t HistoryKey,
                                    const CancellationToken *Cancel);
  /// Steps 2-4: the learned alpha and the record's P-state, clamped to
  /// what this platform and characterization cover. Stamps the class
  /// and TableHit into \p Outcome, plus the analytical model's
  /// prediction re-evaluated from the stored sample (fidelity telemetry
  /// only; nothing reads it back).
  ECAS_HOT OperatingPoint decideTableHit(const SimProcessor &Proc,
                                         const KernelRecord &KnownRec,
                                         double Iterations,
                                         InvocationOutcome &Outcome) const;
  /// Steps 23-25: caps the PCU at \p Point's P-state, dispatches \p Nrem
  /// iterations at its alpha through the resilient primitive, and folds
  /// the measured window and the PartitionOutcome into \p Outcome.
  ECAS_HOT void dispatchRemainder(SimProcessor &Proc, const KernelDesc &Kernel,
                                  double Nrem, OperatingPoint Point,
                                  InvocationOutcome &Outcome);
  /// Clears a fault-tainted prediction, counts and journals the
  /// invocation unless it was cancelled, group-commits the journal, and
  /// stamps AlphaUsed, PState, Seconds and the invocation span's end.
  ECAS_HOT void finishInvocation(const SimProcessor &Proc, uint64_t HistoryKey,
                                 OperatingPoint Point, double Start,
                                 obs::ScopedSpan &Invocation,
                                 InvocationOutcome &Outcome);
  /// Fills \p Views with one PStateView per searchable state — curve
  /// for \p Class plus the state's frequency scales relative to state 0
  /// — and returns the count. 1 (full speed only) unless Config.PStates
  /// is on and both the platform table and the characterization family
  /// cover more. \p Views must hold kMaxPStates entries.
  ECAS_HOT unsigned buildPStateViews(const SimProcessor &Proc,
                                     WorkloadClass Class,
                                     PStateView *Views) const;
  /// Amdahl memory-bound fraction for TimeModel::scaledTo, estimated
  /// from the profiled miss ratio against the classifier's
  /// memory-intensity threshold.
  ECAS_HOT double memBoundFraction(double MissPerLoadStore) const;
  /// True when the caller's token or the shutdown drain token fired.
  bool stopRequested(double NowSec, const CancellationToken *Cancel) const;
  void endInvocation();
  /// Pre-registers every instrument when Config.Metrics is set, so the
  /// execute() fast path never touches the registry mutex.
  void registerInstruments();
  /// The one place an admitted invocation becomes observations: its
  /// outcome turns into the eas.* trace counters, the flight recorder's
  /// DecisionRecord and instants, and the registry's eas_* counters and
  /// histograms. Each sink is optional; with none attached it no-ops.
  void recordInvocation(const KernelDesc &Kernel,
                        const InvocationOutcome &Outcome);

  /// P(alpha, f): one curve set per P-state (a single-state family for
  /// fixed-frequency callers). Owned by value — the family is immutable
  /// after construction, so the decision paths read it without locks.
  PowerCurveFamily Curves;
  Metric Objective;
  EasConfig Config;
  KernelHistory History;
  GpuHealthMonitor Monitor;

  /// Instruments cached at construction (all null without a registry).
  /// Per-class histograms are indexed by WorkloadClass::index(); the
  /// second axis is the chosen P-state. Every per-state series carries
  /// its pstate label; a single-state family fills only column 0
  /// (pstate="0").
  struct MetricInstruments {
    obs::Histogram *TimeRelError[WorkloadClass::NumClasses][kMaxPStates] = {};
    obs::Histogram *EnergyRelError[WorkloadClass::NumClasses][kMaxPStates] =
        {};
    obs::Histogram *AlphaChosen[kMaxPStates] = {};
    obs::Histogram *AlphaSearchEvals = nullptr;
    obs::Histogram *ProfileOverhead = nullptr;
    obs::Histogram *InvocationSeconds = nullptr;
    obs::Histogram *ProfileRepSeconds = nullptr;
    obs::Counter *Invocations = nullptr;
    obs::Counter *TableHits = nullptr;
    obs::Counter *TableMisses = nullptr;
    obs::Counter *CpuOnly = nullptr;
    obs::Counter *Cancelled = nullptr;
    obs::Counter *Rejected = nullptr;
    obs::Counter *ProfileReps = nullptr;
    obs::Counter *LaunchRetries = nullptr;
    obs::Counter *Readmissions = nullptr;
    obs::Counter *QuarantinedRuns = nullptr;
    obs::Gauge *ShutdownDrain = nullptr;
    obs::Counter *JournalAppends = nullptr;
    obs::Counter *JournalBytes = nullptr;
    obs::Counter *ReplayedRecords = nullptr;
    obs::Counter *TruncatedRecords = nullptr;
    obs::Gauge *RecoverySecondsGauge = nullptr;
    /// One counter per RecoveryOutcome, labelled outcome=<name>.
    obs::Counter *RecoveryOutcomes[4] = {};
    /// Cumulative wall seconds spent executing in each P-state,
    /// labelled pstate=<n> (no label for single-state families).
    obs::Gauge *PStateResidency[kMaxPStates] = {};
  };
  MetricInstruments Ins;

  //===--------------------------------------------------------------===//
  // Durability (DESIGN.md §13). The journal pointer is set once in the
  // constructor and cleared only by the destructor, so the execute()
  // paths read it without synchronization. Flush failures are sticky:
  // the first one is kept for journalStatus() and the journal keeps
  // accepting appends (best-effort durability, never a scheduling
  // failure).
  //===--------------------------------------------------------------===//
  /// Runs the constructor's recovery + journal open; never throws —
  /// failures degrade to shutdown-only durability, reported by
  /// journalStatus().
  void initDurability();
  /// Buffers one delta record into the journal (no IO; legal inside the
  /// table-G shard-locked merge closure). No-op without a live journal.
  void journalRecord(const HistoryDeltaRecord &Rec);
  /// Group-commits when a threshold is crossed. Called outside shard
  /// locks, once per journaled invocation path.
  void journalCommit();
  void noteJournalFailure(const Status &S);

  std::unique_ptr<HistoryJournal> Journal;
  RecoveryReport Recovery;
  mutable AnnotatedMutex JournalStatusMutex{"EasScheduler.JournalStatus"};
  Status JournalFailure ECAS_GUARDED_BY(JournalStatusMutex) =
      Status::success();

  /// Recovery count at the last execute(); a difference means the GPU
  /// was re-admitted and the next large invocation must re-profile.
  std::atomic<unsigned> LastSeenRecoveries{0};
  /// Sticky re-profile demand raised by a recovery, so the forced
  /// re-optimization survives intervening small-N invocations. Consumed
  /// by exactly one large invocation (atomic exchange).
  std::atomic<bool> PendingReadmitReprofile{false};
  std::atomic<bool> ExternalGpuBusy{false};

  //===--------------------------------------------------------------===//
  // Lifecycle (admission gate + drain). Lock order: LifecycleMutex is a
  // leaf — nothing else is acquired while holding it.
  //===--------------------------------------------------------------===//
  std::atomic<bool> Admitting{true};
  std::atomic<unsigned> InFlight{0};
  /// Fired by shutdown() when the drain grace expires; every in-flight
  /// invocation observes it at its next cancellation point.
  CancellationToken DrainToken;
  AnnotatedMutex LifecycleMutex{"EasScheduler.Lifecycle"};
  std::condition_variable Drained;
  bool ShutdownComplete ECAS_GUARDED_BY(LifecycleMutex) = false;
  Status ShutdownResult ECAS_GUARDED_BY(LifecycleMutex) = Status::success();
};

} // namespace ecas

#endif // ECAS_CORE_EASSCHEDULER_H
