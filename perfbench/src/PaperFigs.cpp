//===-- perfbench/src/PaperFigs.cpp - The paper's evaluation --------------===//
//
// Part of the ecas project, under the MIT License.
//
// paper-figs: Figs. 9-12 of the paper as bench/fig09-fig12 run them -
// four single-thread, fixed-frequency EAS passes (desktop EDP, desktop
// energy, tablet EDP, tablet energy), each over every input of the suite
// with a cold table G per input - plus bench_frontier's desktop 4-P-state
// joint DVFS pass over the eight micro-benchmark classes. It is the only
// workload that measures scheduling quality; its host time goes to
// profiling repetitions, the single-state search and sim integration.
// Characterization, the suites and the Oracle / fixed-frequency
// reference runs are set-up.
//
//===----------------------------------------------------------------------===//

#include "Common.h"

#include "ecas/hw/Presets.h"
#include "ecas/obs/FlightRecorder.h"
#include "ecas/obs/MetricNames.h"
#include "ecas/power/Characterizer.h"
#include "ecas/power/MicroBenchmarks.h"

#include <algorithm>
#include <cmath>

using namespace ecas;
using namespace perfbench;

namespace {

constexpr unsigned NumPStates = 4;
constexpr unsigned MicroInvocations = 24;

struct Fig {
  const char *Quality;
  const char *Objective;
  const char *Platform;
};

const Fig Figs[] = {
    {"quality.eas_edp_eff_desktop", "edp", "desktop"},
    {"quality.eas_energy_eff_desktop", "energy", "desktop"},
    {"quality.eas_edp_eff_tablet", "edp", "tablet"},
    {"quality.eas_energy_eff_tablet", "energy", "tablet"},
};
constexpr unsigned NumFigs = 4;

struct Inputs {
  PlatformSpec Desktop = haswellDesktop();
  PlatformSpec Tablet = bayTrailTablet();
  PlatformSpec Dvfs = haswellDesktop();
  PowerCurveSet DesktopCurves, TabletCurves;
  PowerCurveFamily Family;
  std::vector<Workload> DesktopSuite, TabletSuite;
  std::vector<InvocationTrace> Micro;
  /// Oracle metric per fig and input; fixed-frequency joules per class.
  std::vector<double> Oracle[NumFigs];
  std::vector<double> FixedJoules;

  bool desktop(unsigned F) const { return std::string(Figs[F].Platform) == "desktop"; }
  const PlatformSpec &spec(unsigned F) const { return desktop(F) ? Desktop : Tablet; }
  const std::vector<Workload> &suite(unsigned F) const {
    return desktop(F) ? DesktopSuite : TabletSuite;
  }
  const PowerCurveSet &curves(unsigned F) const {
    return desktop(F) ? DesktopCurves : TabletCurves;
  }
};

Metric objectiveOf(unsigned F) {
  return std::string(Figs[F].Objective) == "edp" ? Metric::edp()
                                                 : Metric::energy();
}

SessionReport runDvfsClass(const Inputs &In, const InvocationTrace &Trace,
                           bool PStates) {
  ExecutionSession Session(In.Dvfs);
  RunOptions Options;
  Options.Trace = &Trace;
  Options.CurveFamily = &In.Family;
  Options.Objective = Metric::energy();
  Options.Eas.PStates = PStates;
  return Session.run(SchemeKind::Eas, Options);
}

std::unique_ptr<Inputs> setUp(uint64_t Seed, SetupTimes &Times) {
  auto In = std::make_unique<Inputs>();
  Clock::time_point T0 = Clock::now();
  In->Dvfs.synthesizePStates(NumPStates);
  In->DesktopCurves = Characterizer(In->Desktop).characterize();
  In->TabletCurves = Characterizer(In->Tablet).characterize();
  In->Family = characterizeFamily(In->Dvfs);
  Times.Characterize = secondsSince(T0);

  T0 = Clock::now();
  In->DesktopSuite = desktopSuite(suiteConfig(Seed));
  In->TabletSuite = tabletSuite(suiteConfig(Seed));
  for (unsigned C = 0; C != WorkloadClass::NumClasses; ++C) {
    MicroBenchmark Micro =
        makeMicroBenchmark(In->Dvfs, WorkloadClass::fromIndex(C));
    In->Micro.emplace_back(MicroInvocations,
                           KernelInvocation{Micro.Kernel, Micro.Iterations});
  }
  Times.Inputs = secondsSince(T0);

  T0 = Clock::now();
  for (unsigned F = 0; F != NumFigs; ++F)
    In->Oracle[F] = oracleMetrics(In->spec(F), In->suite(F), objectiveOf(F));
  for (const InvocationTrace &Trace : In->Micro)
    In->FixedJoules.push_back(runDvfsClass(*In, Trace, false).Joules);
  Times.ReferenceRuns = secondsSince(T0);
  return In;
}

/// One sweep's outcome: the metric of every EAS pass and the joint
/// joules of every DVFS class.
struct Sweep {
  std::vector<double> Metric[NumFigs];
  std::vector<double> JointJoules;
  double ModelTimeErrSum = 0.0;
  double ModelEnergyErrSum = 0.0;
  unsigned ModelSamples = 0;
  unsigned AlphaSearches = 0;
};

struct Phase {
  Samples CallUs;
  uint64_t Invocations = 0;
  double Wall = 0.0;
  uint64_t Passes = 0;
  uint64_t Failed = 0;
  unsigned Sweeps = 0;
  /// Each pass's fastest host time over the run's sweeps, in us, by the
  /// pass's place in a sweep.
  std::vector<double> BestPassUs;
  std::vector<double> SweepHeapMb;
  bool Deterministic = true;
  Sweep First;

  /// Host seconds of a sweep made of every pass at its fastest.
  double bestSweepSec() const {
    double Us = 0.0;
    for (double PassUs : BestPassUs)
      Us += PassUs;
    return Us / 1e6;
  }
  /// Kernel invocations one sweep schedules (the same in every sweep).
  double invocationsPerSweep() const {
    return Sweeps ? static_cast<double>(Invocations) / Sweeps : 0.0;
  }
  double rate() const { return invocationsPerSweep() / bestSweepSec(); }
};

Sweep sweepOnce(const Inputs &In, Phase &P, SpanLog *Log,
                obs::MetricsRegistry *Metrics) {
  Sweep S;
  ScopedSpan SweepSpan(Log, "sweep", P.Sweeps);
  unsigned Pass = 0;
  auto Account = [&](const SessionReport &R, double Us) {
    P.CallUs.add(Us);
    if (P.BestPassUs.size() == Pass)
      P.BestPassUs.push_back(Us);
    P.BestPassUs[Pass] = std::min(P.BestPassUs[Pass], Us);
    ++Pass;
    P.Invocations += R.Invocations;
    ++P.Passes;
    P.Failed += R.Cancelled || R.Resilience.degraded();
    S.ModelTimeErrSum += R.ModelTimeRelError * R.ModelSamples;
    S.ModelEnergyErrSum += R.ModelEnergyRelError * R.ModelSamples;
    S.ModelSamples += R.ModelSamples;
    S.AlphaSearches += R.AlphaSearches;
  };
  for (unsigned F = 0; F != NumFigs; ++F) {
    ExecutionSession Session(In.spec(F));
    for (const Workload &W : In.suite(F)) {
      ScopedSpan PassSpan(Log, "eas-pass", P.Sweeps * 64 + Pass,
                          SweepSpan.index());
      RunOptions Options;
      Options.Trace = &W.Trace;
      Options.Curves = &In.curves(F);
      Options.Objective = objectiveOf(F);
      Options.Metrics = Metrics;
      Clock::time_point T0 = Clock::now();
      SessionReport R = Session.run(SchemeKind::Eas, Options);
      Account(R, nsSince(T0) / 1e3);
      S.Metric[F].push_back(R.MetricValue);
    }
  }
  for (const InvocationTrace &Trace : In.Micro) {
    ScopedSpan PassSpan(Log, "dvfs-pass", P.Sweeps * 64 + Pass,
                        SweepSpan.index());
    Clock::time_point T0 = Clock::now();
    SessionReport R = runDvfsClass(In, Trace, true);
    Account(R, nsSince(T0) / 1e3);
    S.JointJoules.push_back(R.Joules);
  }
  return S;
}

Phase measure(const Inputs &In, double Seconds, SpanLog *Log) {
  Phase P;
  // The host's other tenants load some of this machine's CPUs more than
  // others at any one time. Each sweep runs on the next CPU, so every
  // pass meets the least loaded one.
  std::vector<int> Cpus = allowedCpus();
  ScopedAffinity Pin;
  Clock::time_point Start = Clock::now();
  do {
    if (!Cpus.empty())
      Pin.set({Cpus[P.Sweeps % Cpus.size()]});
    Sweep S = sweepOnce(In, P, Log, nullptr);
    P.SweepHeapMb.push_back(liveHeapMb());
    // EAS is deterministic: every sweep must reproduce the first one's
    // results bit for bit.
    if (P.Sweeps == 0) {
      P.First = S;
    } else {
      for (unsigned F = 0; F != NumFigs; ++F)
        P.Deterministic &= S.Metric[F] == P.First.Metric[F];
      P.Deterministic &= S.JointJoules == P.First.JointJoules;
    }
    ++P.Sweeps;
  } while (secondsSince(Start) < Seconds);
  P.Wall = secondsSince(Start);
  return P;
}

void reportQuality(const Inputs &In, const Phase &P, RunResult &Result) {
  double QualitySum = 0.0;
  for (unsigned F = 0; F != NumFigs; ++F) {
    const std::vector<Workload> &Suite = In.suite(F);
    double EffSum = 0.0;
    for (size_t I = 0; I != Suite.size(); ++I) {
      double Eff = In.Oracle[F][I] / P.First.Metric[F][I];
      Result.check(std::isfinite(Eff) && Eff > 0.0,
                   std::string("paper-figs: non-positive efficiency for ") +
                       Figs[F].Objective + "/" + Figs[F].Platform + "/" +
                       Suite[I].Abbrev);
      std::string Name = std::string("eff.") + Figs[F].Objective + "." +
                         Figs[F].Platform + "." + Suite[I].Abbrev;
      const std::vector<std::string> &Known = efficiencyMetricNames();
      Result.check(std::find(Known.begin(), Known.end(), Name) != Known.end(),
                   "paper-figs: " + Name + " is not in the metric catalogue");
      Result.set(Name, 100.0 * Eff);
      EffSum += Eff;
    }
    double Avg = 100.0 * EffSum / static_cast<double>(Suite.size());
    Result.set(Figs[F].Quality, Avg);
    QualitySum += Avg;
  }
  Result.set("quality_pct", QualitySum / NumFigs);

  double SavedSum = 0.0;
  for (size_t C = 0; C != In.FixedJoules.size(); ++C) {
    double Saved = 100.0 * (In.FixedJoules[C] - P.First.JointJoules[C]) /
                   In.FixedJoules[C];
    Result.check(std::isfinite(Saved),
                 "paper-figs: non-finite DVFS energy saving");
    SavedSum += Saved;
  }
  Result.set("quality.dvfs_energy_saved_pct",
             SavedSum / static_cast<double>(In.FixedJoules.size()));
}

/// One sweep with a metrics registry attached (observation only; the
/// decisions are bit-identical) to count hits, profiled invocations and
/// profiling repetitions at the scheduler's own boundaries.
void reportCounts(const Inputs &In, RunResult &Result) {
  obs::MetricsRegistry Registry;
  Phase Scratch;
  Sweep S = sweepOnce(In, Scratch, nullptr, &Registry);
  obs::MetricsSnapshot Snap = Registry.snapshot();
  double Invocations = Snap.total(obs::names::InvocationsTotal);
  double Hits = Snap.total(obs::names::TableHitsTotal);
  double Profiled = Snap.total(obs::names::TableMissesTotal);
  double Reps = Snap.total(obs::names::ProfileRepsTotal);
  Result.set("core.table_hit_frac", Invocations ? Hits / Invocations : 0.0);
  Result.set("core.searches_per_profiled",
             Profiled ? S.AlphaSearches / Profiled : 0.0);
  Result.set("profile.reps_per_profiled", Profiled ? Reps / Profiled : 0.0);
  std::printf("  counts: %.0f invocations, %.0f table hits, %.0f profiled, "
              "%.0f profile reps, %u searches\n",
              Invocations, Hits, Profiled, Reps, S.AlphaSearches);
}

void reportPhase(Phase &P, RunResult &Result) {
  // The host's other tenants slow a pass by up to 1.9x for up to tens of
  // seconds, so a sweep's time, and the median sweep of a run, moves with
  // them. Each input's fastest pass over the run is what the code costs
  // without them; both figures are built from those.
  Result.set("inv_per_s", P.rate());
  // The passes are 46 different inputs, so a percentile over them sits on
  // whichever input ranks in the middle and jumps when two of them swap;
  // the mean pass does not.
  Result.set("call_us_p50", 1e6 * P.bestSweepSec() /
                                static_cast<double>(P.BestPassUs.size()));
  Result.set("call.us_p99", P.CallUs.tail(0.99));
  Result.set("heap_mb", median(P.SweepHeapMb));
}

} // namespace

void perfbench::runPaperFigs(const Options &Opts, RunResult &Result) {
  std::vector<SetupTimes> Setups(SetupRepeats);
  std::unique_ptr<Inputs> In;
  for (SetupTimes &Times : Setups)
    In = setUp(Opts.Seed, Times);
  reportSetup(Setups, Result);
  Result.check(In->DesktopSuite.size() == 12 && In->TabletSuite.size() == 7,
               "paper-figs: unexpected suite sizes");

  Phase Untraced = measure(*In, Opts.Trace ? Opts.Seconds / 2 : Opts.Seconds,
                           nullptr);
  Result.check(Untraced.Deterministic,
               "paper-figs: a sweep did not reproduce the first sweep");
  Result.Attempted += Untraced.Passes;
  Result.Failed += Untraced.Failed;
  reportQuality(*In, Untraced, Result);
  std::printf("paper-figs: %u sweeps, %llu passes, %llu invocations in "
              "%.2f s; eas_run_s (every pass at its fastest) %.4f s\n",
              Untraced.Sweeps,
              static_cast<unsigned long long>(Untraced.Passes),
              static_cast<unsigned long long>(Untraced.Invocations),
              Untraced.Wall, Untraced.bestSweepSec());
  reportPhase(Untraced, Result);
  if (!Opts.Trace)
    return;

  Tracer Spans(true, 1);
  Phase Traced = measure(*In, Opts.Seconds / 2, Spans.log(0));
  Result.Attempted += Traced.Passes;
  Result.Failed += Traced.Failed;
  Result.set("trace.overhead_pct",
             100.0 * (Untraced.rate() / Traced.rate() - 1.0));
  Result.set("trace.spans", static_cast<double>(Spans.spanCount()));
  Result.set("core.model_time_rel_err",
             Traced.First.ModelSamples
                 ? Traced.First.ModelTimeErrSum / Traced.First.ModelSamples
                 : 0.0);
  Result.set("core.model_energy_rel_err",
             Traced.First.ModelSamples
                 ? Traced.First.ModelEnergyErrSum / Traced.First.ModelSamples
                 : 0.0);
  reportCounts(*In, Result);

  // Replays run against one warmed desktop-EDP scheduler, the fig09
  // configuration, with its sinks armed.
  obs::MetricsRegistry Registry;
  obs::FlightRecorder Flight;
  EasConfig Config;
  Config.Metrics = &Registry;
  Config.Flight = &Flight;
  PowerCurveFamily Family = PowerCurveFamily::fromSingle(In->DesktopCurves);
  EasScheduler Armed(Family, Metric::edp(), Config);
  InvocationTrace Work = flatWorkList(In->DesktopSuite);
  SimProcessor WarmProc(In->Desktop);
  for (const KernelInvocation &Inv : Work)
    Armed.execute(WarmProc, Inv.Kernel, Inv.Iterations);
  ReplayInputs Replay;
  Replay.Armed = &Armed;
  Replay.Curves = &Family;
  Replay.Objective = Metric::edp();
  Replay.Spec = In->Desktop;
  Replay.Work = &Work;
  Replay.Tenants = {0};
  Replay.Seed = Opts.Seed;
  Replay.SnapshotPath = Opts.OutDir + "/paper-figs-replay.tblg";
  replayLayers(Replay, Result);

  for (const std::string &Line : Spans.selfTimeSummary())
    std::printf("  span %s\n", Line.c_str());
  std::string SpanPath = Opts.OutDir + "/spans-paper-figs.csv";
  Result.check(Spans.write(SpanPath), "paper-figs: cannot write " + SpanPath);
}
