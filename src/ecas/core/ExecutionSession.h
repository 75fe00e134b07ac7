//===-- ecas/core/ExecutionSession.h - Top-level public API ----*- C++ -*-===//
//
// Part of the ecas project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The library's front door. An ExecutionSession binds a platform and
/// executes invocation traces under every comparison scheme of Section 5
/// — CPU-alone, GPU-alone, a fixed ratio, the exhaustive Oracle,
/// best-performance PERF, and EAS — reporting time, energy, and the
/// chosen metric for each.
///
/// The entry point is run(): pick a SchemeKind and bundle everything
/// else — the invocation trace, the power curves, the objective metric,
/// the fixed alpha or sweep step, the EasConfig, a cancellation token,
/// and an observability recorder — into one RunOptions:
///
/// \code
///   ecas::PlatformSpec Spec = ecas::haswellDesktop();
///   ecas::PowerCurveSet Curves = ecas::Characterizer(Spec).characterize();
///   ecas::ExecutionSession Session(Spec);
///
///   ecas::RunOptions Options;
///   Options.Trace = &Trace;                  // the invocation sequence
///   Options.Curves = &Curves;                // required for Eas/alpha search
///   Options.Objective = ecas::Metric::edp();
///   ecas::obs::FlightRecorder Recorder(      // optional observability,
///       ecas::obs::FlightRecorder::Unbounded); // in capture mode
///   Options.Recorder = &Recorder;
///   ecas::SessionReport Report = Session.run(ecas::SchemeKind::Eas, Options);
///
///   ecas::obs::TraceLog Log = Recorder.drain().Trace;
///   ecas::writeFileAtomic("run.trace.json", // open in Perfetto
///                         ecas::obs::renderChromeTrace(Log));
/// \endcode
///
/// Attaching a Recorder never changes scheduling decisions: with
/// Options.Recorder == nullptr the run is bit-identical to the
/// pre-observability library (enforced by ObsTest).
///
//===----------------------------------------------------------------------===//

#ifndef ECAS_CORE_EXECUTIONSESSION_H
#define ECAS_CORE_EXECUTIONSESSION_H

#include "ecas/core/EasScheduler.h"
#include "ecas/core/Schedulers.h"
#include "ecas/hw/PlatformSpec.h"
#include "ecas/obs/FlightRecorder.h"

namespace ecas {

/// The comparison schemes of Section 5.
enum class SchemeKind {
  /// One fixed offload ratio (RunOptions::Alpha) for the whole trace.
  FixedAlpha,
  /// CPU-alone (TBB-style multicore baseline); alpha pinned to 0.
  CpuOnly,
  /// GPU-alone (vendor-OpenCL-style baseline); alpha pinned to 1.
  GpuOnly,
  /// Exhaustive sweep over fixed ratios, best by the objective metric.
  Oracle,
  /// Exhaustive sweep, best by execution time, reported under the
  /// objective metric.
  Perf,
  /// The energy-aware scheduler of Fig. 7.
  Eas,
};

/// Stable lowercase name ("fixed", "cpu", "gpu", "oracle", "perf",
/// "eas") for CSV and bench output.
const char *schemeKindName(SchemeKind Kind);

/// Everything one run() needs besides the scheme. Pointer members are
/// borrowed, never owned, and must outlive the call.
struct RunOptions {
  /// The invocation sequence to execute (required).
  const InvocationTrace *Trace = nullptr;
  /// Power characterization; required for SchemeKind::Eas (unless
  /// CurveFamily is set), ignored by the fixed-ratio schemes.
  const PowerCurveSet *Curves = nullptr;
  /// Per-P-state characterization family. When set it supersedes Curves
  /// and the EAS scheme runs the joint (alpha, frequency) search;
  /// typically paired with Eas.PStates = true.
  const PowerCurveFamily *CurveFamily = nullptr;
  /// The metric every scheme optimizes and reports.
  Metric Objective = Metric::edp();
  /// Fixed offload ratio for SchemeKind::FixedAlpha.
  double Alpha = 0.0;
  /// Sweep increment for Oracle/Perf.
  double Step = 0.1;
  /// Tunables for SchemeKind::Eas.
  EasConfig Eas;
  /// Optional deadline/cancellation token (Eas only): checked between
  /// invocations and at the scheduler's cooperative points; a fired
  /// token ends the run early with Report.Cancelled set.
  const CancellationToken *Cancel = nullptr;
  /// Optional observability recorder, normally a capture one
  /// (FlightRecorder::Unbounded). When set, the run emits a "session"
  /// span, wires the recorder through the EAS scheduler (unless
  /// Eas.Trace is already set), and fills the report's TraceEventCount.
  /// Never changes scheduling.
  obs::FlightRecorder *Recorder = nullptr;
  /// Optional metrics registry, wired through the EAS scheduler like the
  /// recorder (unless Eas.Metrics is already set). An EAS run also
  /// attaches eas_msr_reads_total to the processor's energy meter. Null
  /// keeps the run bit-identical — the same contract as Recorder.
  obs::MetricsRegistry *Metrics = nullptr;
  /// Who this run belongs to (Eas only). The default — anonymous tenant,
  /// SLA1, no deadline — schedules bit-identically to the pre-service
  /// library; a nonzero TenantId namespaces every table-G key so the
  /// run's learned alphas stay private to the tenant.
  RequestContext Request;
};

/// What the degradation machinery did during one run (all zeros on a
/// healthy platform).
struct ResilienceSummary {
  unsigned LaunchRetries = 0;
  unsigned LaunchesAbandoned = 0;
  unsigned HangsDetected = 0;
  unsigned Quarantines = 0;
  /// Invocations that ran CPU-alone because the GPU was quarantined.
  unsigned QuarantinedInvocations = 0;
  unsigned Recoveries = 0;

  /// True when any fault forced the run off its nominal schedule.
  bool degraded() const {
    return LaunchesAbandoned || HangsDetected || Quarantines ||
           QuarantinedInvocations;
  }
};

/// Outcome of running one trace under one scheme.
struct SessionReport {
  /// Which scheme produced this report.
  SchemeKind Kind = SchemeKind::FixedAlpha;
  double Seconds = 0.0;
  double Joules = 0.0;
  /// The session metric computed from the measured totals.
  double MetricValue = 0.0;
  /// Iteration-weighted mean offload ratio actually used.
  double MeanAlpha = 0.0;
  unsigned Invocations = 0;
  /// EAS only: classification of the (last profiled) kernel.
  WorkloadClass ClassifiedAs;
  bool WasClassified = false;
  /// Reaction side: what the degradation policy did.
  ResilienceSummary Resilience;
  /// Cause side: what the injector introduced (zeros when no fault plan
  /// was attached to the platform spec).
  FaultStats Injected;
  bool FaultsEnabled = false;
  /// A cancellation token cut the run short; the totals cover only the
  /// invocations that ran (Invocations counts completed ones).
  bool Cancelled = false;

  //===--------------------------------------------------------------===//
  // Aggregate observability counters (EAS runs; zero elsewhere). Each
  // mirrors a trace counter so a drained TraceLog can be cross-checked
  // against the report: eas.profile_reps, eas.alpha_searches,
  // eas.cpu_only.
  //===--------------------------------------------------------------===//
  /// Total online-profiling repetitions across the run.
  unsigned ProfileRepetitions = 0;
  /// Total operating-point searches performed: one per profiled
  /// invocation whose profiling produced a usable sample.
  unsigned AlphaSearches = 0;
  /// Invocations that took a CPU-only fast path (small N, external GPU
  /// owner, or quarantine).
  unsigned CpuOnlyFastPaths = 0;
  /// Events the attached recorder had captured when the run finished
  /// (0 without a recorder).
  uint64_t TraceEventCount = 0;

  //===--------------------------------------------------------------===//
  // Model-fidelity aggregates (EAS runs with model samples; zero
  // elsewhere). Means over every invocation that produced a prediction
  // and a completed measured window, folded in invocation order — for a
  // single-class run they equal the mean of the matching
  // eas_model_*_rel_error histogram exactly (MetricsTest asserts it).
  //===--------------------------------------------------------------===//
  /// Mean |T_pred - T_meas| / T_meas across model samples.
  double ModelTimeRelError = 0.0;
  /// Mean |E_pred - E_meas| / E_meas across model samples.
  double ModelEnergyRelError = 0.0;
  /// Invocations contributing to the two means.
  unsigned ModelSamples = 0;

  double averageWatts() const { return Seconds > 0.0 ? Joules / Seconds : 0.0; }
};

/// Executes invocation traces on simulated processors of one platform.
/// Every run uses a fresh processor, so schemes never contaminate each
/// other's PCU or energy state.
class ExecutionSession {
public:
  explicit ExecutionSession(const PlatformSpec &Spec);

  const PlatformSpec &spec() const { return Spec; }

  /// Runs \p Options.Trace under \p Kind. See the file comment for the
  /// full contract.
  SessionReport run(SchemeKind Kind, const RunOptions &Options) const;

private:
  SessionReport runFixedAlphaScheme(SchemeKind Kind,
                                    const RunOptions &Options) const;
  SessionReport runSweepScheme(SchemeKind Kind,
                               const RunOptions &Options) const;
  SessionReport runEasScheme(const RunOptions &Options) const;
  SessionReport finishReport(SchemeKind Kind, const Metric &Objective,
                             double Seconds, double Joules,
                             double AlphaIterSum, double TotalIters,
                             unsigned Invocations) const;

  PlatformSpec Spec;
};

} // namespace ecas

#endif // ECAS_CORE_EXECUTIONSESSION_H
