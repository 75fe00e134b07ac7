//===-- tools/ecas_cli.cpp - Command-line front end ------------------------===//
//
// Part of the ecas project, under the MIT License.
//
// The operational entry point a downstream user drives:
//
//   ecas-cli platforms
//   ecas-cli characterize --platform=haswell-desktop --out=curves.txt
//   ecas-cli run --platform=haswell-desktop --workload=CC --scheme=eas
//            --metric=edp [--curves=curves.txt] [--scale=0.3]
//   ecas-cli sweep --platform=baytrail-tablet --workload=MM
//   ecas-cli suite --platform=haswell-desktop --metric=edp
//   ecas-cli serve --platform=haswell-desktop --tenants=8
//            --requests=200 --history-file=tableg.bin
//
// Exit codes: 0 success, 1 runtime failure (I/O, snapshot corruption,
// drain failure), 2 usage error (unknown command/platform/workload/
// scenario, a flag the command does not accept, or a malformed or
// out-of-range flag value).
//
//===----------------------------------------------------------------------===//

#include "ecas/core/ExecutionSession.h"
#include "ecas/fault/FaultPlan.h"
#include "ecas/hw/Presets.h"
#include "ecas/obs/Anomaly.h"
#include "ecas/obs/ChromeTrace.h"
#include "ecas/obs/FlightRecorder.h"
#include "ecas/obs/Incident.h"
#include "ecas/obs/LastGasp.h"
#include "ecas/obs/Metrics.h"
#include "ecas/obs/MetricsExport.h"
#include "ecas/power/Characterizer.h"
#include "ecas/service/Service.h"
#include "ecas/support/AtomicFile.h"
#include "ecas/support/Cancellation.h"
#include "ecas/support/Flags.h"
#include "ecas/support/Format.h"
#include "ecas/support/Random.h"
#include "ecas/support/ThreadAnnotations.h"
#include "ecas/workloads/Registry.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <climits>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <optional>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

using namespace ecas;

namespace {

/// Distinct exit codes so scripts can tell operator mistakes from
/// failures of the run itself.
constexpr int ExitOk = 0;
constexpr int ExitRuntime = 1;
constexpr int ExitUsage = 2;

int usage() {
  std::fprintf(
      stderr,
      "usage: ecas-cli <command> [--flags]\n"
      "commands:\n"
      "  platforms                         list platform presets\n"
      "  characterize --platform=NAME      run the one-time power\n"
      "               [--out=FILE]         characterization\n"
      "               [--pstates=N]        sweep an N-entry frequency\n"
      "                                    ladder (family output)\n"
      "  run  --platform=NAME --workload=ABBR [--scheme=eas|cpu|gpu|perf|\n"
      "       oracle|fixed] [--alpha=A] [--metric=energy|edp|ed2p]\n"
      "       [--curves=FILE] [--scale=S] [--fault-plan=PLAN]\n"
      "       [--history-file=FILE] [--deadline-ms=N]\n"
      "       [--pstates=N]                joint (alpha, frequency) search\n"
      "                                    over an N-entry DVFS ladder\n"
      "       [--policy=minimize|race-to-idle|pace-to-deadline]\n"
      "       [--idle-watts=W]             race-to-idle's idle floor\n"
      "       [--trace-out=FILE]           write a Chrome trace-event\n"
      "                                    JSON (Perfetto-loadable)\n"
      "       [--metrics]                  print span/counter summary\n"
      "       [--metrics-out=FILE]         write a Prometheus-text snapshot\n"
      "       [--metrics-json=FILE]        write a JSON metrics snapshot\n"
      "       [--decision-log=FILE]        dump the per-decision audit ring\n"
      "                                    (.csv renders CSV, else JSONL)\n"
      "  sweep --platform=NAME --workload=ABBR [--metric=M] [--scale=S]\n"
      "        [--fault-plan=PLAN]\n"
      "  suite --platform=NAME [--metric=M] [--scale=S]\n"
      "        [--fault-plan=PLAN]\n"
      "  faults --platform=NAME [--scenario=NAME] [--workload=ABBR]\n"
      "         [--metric=M] [--scale=S]   replay fault scenarios and\n"
      "                                    report the degradation policy\n"
      "  serve --platform=NAME [--tenants=N] [--requests=M]\n"
      "        [--workers=W] [--queue-cap=C] [--sla-mix=A:B:C]\n"
      "        [--qps=Q]                   multi-tenant service: N synthetic\n"
      "        [--sla0-deadline-ms=N]      tenants submit M requests each\n"
      "        [--sla1-deadline-ms=N]      through the SLA-class queue and\n"
      "        [--shed-threshold=F]        admission controller, retrying\n"
      "        [--metric=M] [--scale=S]    rejections with capped backoff\n"
      "        [--fault-plan=PLAN] [--history-file=FILE]\n"
      "        [--pstates=N] [--policy=NAME] [--idle-watts=W]\n"
      "        [--no-journal]              with --history-file, table-G\n"
      "                                    merges append to that file and\n"
      "                                    restarts replay them;\n"
      "                                    --no-journal writes it only at\n"
      "                                    shutdown\n"
      "        [--drain-grace-ms=N] [--trace-out=FILE] [--metrics]\n"
      "        [--metrics-out=FILE] [--metrics-interval-ms=N]\n"
      "        [--metrics-json=FILE] [--decision-log=FILE]\n"
      "        [--control-socket=PATH]      UNIX-socket introspection\n"
      "                                     endpoint (statusz/metricz/dump)\n"
      "        [--incident-dir=DIR]         arm the anomaly detectors and\n"
      "        [--incident-keep=K]          write triggered forensic\n"
      "        [--detector-interval-ms=N]   bundles (newest K kept) plus a\n"
      "                                     crash-time last-gasp document\n"
      "        [--no-flight-recorder]       disarm the always-on black box\n"
      "                                     (--decision-log keeps it armed)\n"
      "        (exit 1 when any SLA0 deadline missed or shed fraction\n"
      "        exceeds --shed-threshold)\n"
      "  inspect SOCKET [COMMAND]          query a live serve's control\n"
      "                                    endpoint (default statusz)\n"
      "  inspect --validate=DIR            validate one incident bundle\n"
      "  inspect --validate-lastgasp=FILE  validate a last-gasp document\n"
      "  stats FILE                        pretty-print a Prometheus-text\n"
      "                                    snapshot (from --metrics-out)\n"
      "exit codes: 0 success, 1 runtime failure, 2 usage error\n");
  return ExitUsage;
}

/// Reports a malformed command line, then prints usage: exit code 2.
int usageError(const std::string &Why) {
  std::fprintf(stderr, "error: %s\n", Why.c_str());
  return usage();
}

constexpr double Inf = std::numeric_limits<double>::infinity();

/// One flag a command accepts. Numeric flags are range-checked before
/// the command runs, so a command reads them with number() and never
/// sees a malformed value.
struct FlagSpec {
  enum KindT { Text, Real, Integer };
  const char *Name;
  KindT Kind = Text;
  double Min = -Inf;
  double Max = Inf;
};

/// The flags \p Command accepts, or nullopt for an unknown command.
std::optional<std::vector<FlagSpec>>
acceptedFlags(const std::string &Command) {
  using F = FlagSpec;
  const F PStates{"pstates", F::Integer, 0, PlatformSpec::MaxPStates};
  const std::vector<F> Suite = {{"platform"}, {"scale", F::Real},
                                {"metric"},   {"fault-plan"}};
  const std::vector<F> Eas = {PStates,
                              {"policy"},
                              {"idle-watts", F::Real, 0, Inf},
                              {"deadline-ms", F::Real, 0, Inf},
                              {"curves"},
                              {"history-file"},
                              {"trace-out"},
                              {"metrics"},
                              {"metrics-out"},
                              {"metrics-json"},
                              {"decision-log"}};
  auto Join = [](std::vector<F> A, const std::vector<F> &B) {
    A.insert(A.end(), B.begin(), B.end());
    return A;
  };
  if (Command == "platforms" || Command == "stats")
    return std::vector<F>{};
  if (Command == "characterize")
    return std::vector<F>{{"platform"}, {"out"}, PStates};
  if (Command == "run")
    return Join(Join(Suite, Eas),
                {{"workload"}, {"scheme"}, {"alpha", F::Real, 0, 1}});
  if (Command == "sweep")
    return Join(Suite, {{"workload"}});
  if (Command == "suite")
    return Join(Suite, {{"curves"}});
  if (Command == "faults")
    return std::vector<F>{{"platform"}, {"scale", F::Real}, {"metric"},
                          {"workload"}, {"scenario"}};
  if (Command == "serve")
    return Join(Join(Suite, Eas),
                {{"tenants", F::Integer, 1, 1024},
                 {"requests", F::Integer, 1, Inf},
                 {"workers", F::Integer, 1, 256},
                 {"queue-cap", F::Integer, 0, Inf},
                 {"sla-mix"},
                 {"qps", F::Real, 0, Inf},
                 {"sla0-deadline-ms", F::Real, 0, Inf},
                 {"sla1-deadline-ms", F::Real, 0, Inf},
                 {"shed-threshold", F::Real, 0, 1},
                 {"drain-grace-ms", F::Real, 0, Inf},
                 {"control-socket"},
                 {"incident-dir"},
                 {"incident-keep", F::Integer, 1, Inf},
                 {"detector-interval-ms", F::Real, 1e-3, Inf},
                 {"no-flight-recorder"},
                 {"no-journal"},
                 {"metrics-interval-ms", F::Real, 0, Inf}});
  if (Command == "inspect")
    return std::vector<F>{{"validate"}, {"validate-lastgasp"}};
  return std::nullopt;
}

/// Checks \p Args against \p Accepted: every flag known, every numeric
/// flag a finite value in range.
Status checkFlags(const Flags &Args, const std::vector<FlagSpec> &Accepted) {
  std::vector<std::string> Names;
  for (const FlagSpec &Spec : Accepted)
    Names.push_back(Spec.Name);
  if (Status S = Args.checkAccepted(Names); !S)
    return S;
  for (const FlagSpec &Spec : Accepted) {
    if (Spec.Kind == FlagSpec::Real) {
      ErrorOr<double> V = Args.getNumber(Spec.Name, 0.0, Spec.Min, Spec.Max);
      if (!V)
        return V.status();
    } else if (Spec.Kind == FlagSpec::Integer) {
      auto Bound = [](double X, long long Clamp) {
        return std::isinf(X) ? Clamp : static_cast<long long>(X);
      };
      ErrorOr<long long> V = Args.getNumber<long long>(
          Spec.Name, 0, Bound(Spec.Min, LLONG_MIN), Bound(Spec.Max, LLONG_MAX));
      if (!V)
        return V.status();
    }
  }
  return Status::success();
}

/// A numeric flag checkFlags() already accepted, or \p Default.
template <typename T>
T number(const Flags &Args, const char *Name, T Default) {
  return Args.getNumber<T>(Name, Default).value();
}

/// Resolves --platform: a preset name, or a path to a serialized spec.
/// Returns nullopt after saying why on stderr: an unknown name, or the
/// spec file's first bad line.
std::optional<PlatformSpec> platformByName(const std::string &Name) {
  for (PlatformSpec &Spec : allPresets())
    if (Spec.Name == Name)
      return Spec;
  std::ifstream File(Name);
  if (!File) {
    std::fprintf(stderr, "error: unknown platform\n");
    return std::nullopt;
  }
  std::ostringstream Buffer;
  Buffer << File.rdbuf();
  ErrorOr<PlatformSpec> Loaded = PlatformSpec::load(Buffer.str());
  if (!Loaded) {
    std::fprintf(stderr, "error: %s: %s\n", Name.c_str(),
                 Loaded.status().message().c_str());
    return std::nullopt;
  }
  return *Loaded;
}

/// Attaches --fault-plan=FILE|SCENARIO to \p Spec when present: a path
/// to a serialized plan, or (when no such file exists) a built-in
/// scenario name from `ecas-cli faults`. Returns false on an unreadable
/// or malformed plan (already reported to stderr).
bool applyFaultPlan(PlatformSpec &Spec, const Flags &Args) {
  std::string Path = Args.getString("fault-plan", "");
  if (Path.empty())
    return true;
  ErrorOr<FaultPlan> Plan = FaultPlan::scenario(Path);
  std::ifstream File(Path);
  if (File) {
    std::ostringstream Buffer;
    Buffer << File.rdbuf();
    Plan = FaultPlan::load(Buffer.str());
    if (!Plan) {
      std::fprintf(stderr, "error: %s: %s\n", Path.c_str(),
                   Plan.status().message().c_str());
      return false;
    }
  } else if (!Plan) {
    std::fprintf(stderr,
                 "error: fault plan %s is neither a readable file nor a "
                 "built-in scenario (have:",
                 Path.c_str());
    for (const std::string &Known : FaultPlan::scenarioNames())
      std::fprintf(stderr, " %s", Known.c_str());
    std::fprintf(stderr, ")\n");
    return false;
  }
  Spec.Faults = *Plan;
  std::printf("fault plan '%s': %zu events, seed %llu\n",
              Plan->name().c_str(), Plan->events().size(),
              static_cast<unsigned long long>(Plan->seed()));
  return true;
}

/// Cause (injected faults) and effect (degradation policy) side by side.
void printDegradation(const SessionReport &R) {
  if (R.FaultsEnabled) {
    const FaultStats &F = R.Injected;
    std::printf("  injected: %llu launch-fail, %llu hang-query, "
                "%llu throttle-query, %llu rapl-drop, %llu rapl-jump, "
                "%llu counter-noise\n",
                static_cast<unsigned long long>(F.LaunchFailures),
                static_cast<unsigned long long>(F.HangQueries),
                static_cast<unsigned long long>(F.ThrottleQueries),
                static_cast<unsigned long long>(F.RaplSamplesDropped),
                static_cast<unsigned long long>(F.RaplCounterJumps),
                static_cast<unsigned long long>(F.NoisyCounterReads));
  }
  const ResilienceSummary &S = R.Resilience;
  std::printf("  reaction: %u retries, %u abandoned, %u hangs, "
              "%u quarantines, %u cpu-only invocations, %u recoveries%s\n",
              S.LaunchRetries, S.LaunchesAbandoned, S.HangsDetected,
              S.Quarantines, S.QuarantinedInvocations, S.Recoveries,
              S.degraded() ? "  [degraded]" : "");
}

std::optional<SchemeKind> schemeByName(const std::string &Name) {
  if (Name == "eas")
    return SchemeKind::Eas;
  if (Name == "cpu")
    return SchemeKind::CpuOnly;
  if (Name == "gpu")
    return SchemeKind::GpuOnly;
  if (Name == "perf")
    return SchemeKind::Perf;
  if (Name == "oracle")
    return SchemeKind::Oracle;
  if (Name == "fixed")
    return SchemeKind::FixedAlpha;
  return std::nullopt;
}

/// True when either observability flag asks for a recorder.
bool wantsObservability(const Flags &Args) {
  return !Args.getString("trace-out", "").empty() ||
         Args.getBool("metrics", false);
}

/// Drains \p Recorder once and renders the log into whatever the
/// --trace-out / --metrics flags requested. Returns false on an I/O
/// failure (already reported).
bool drainObservability(const obs::FlightRecorder &Recorder,
                        const Flags &Args) {
  obs::TraceLog Log = Recorder.drain().Trace;
  std::string TraceOut = Args.getString("trace-out", "");
  if (!TraceOut.empty()) {
    if (Status S = writeFileAtomic(TraceOut, obs::renderChromeTrace(Log));
        !S) {
      std::fprintf(stderr, "error: %s\n", S.message().c_str());
      return false;
    }
    std::printf("wrote %s (%zu events; load in Perfetto or "
                "chrome://tracing)\n",
                TraceOut.c_str(), Log.Events.size());
  }
  if (Args.getBool("metrics", false))
    std::fputs(obs::renderTraceSummary(Log).c_str(), stdout);
  return true;
}

/// True when any flag asks for a metrics registry.
bool wantsMetricsRegistry(const Flags &Args) {
  return !Args.getString("metrics-out", "").empty() ||
         !Args.getString("metrics-json", "").empty();
}

/// Decision-ring capacity when --decision-log is given: the newest 1024
/// records reach the file.
constexpr size_t DecisionLogCapacity = 1024;

/// Writes the registry snapshot and the flight recorder's decision ring
/// wherever --metrics-out, --metrics-json, and --decision-log point
/// (each write atomic: tmp + rename). Returns false on an I/O failure
/// (reported).
bool writeMetricsOutputs(const obs::MetricsRegistry &Registry,
                         const obs::FlightRecorder &Flight,
                         const Flags &Args) {
  std::string Out = Args.getString("metrics-out", "");
  std::string Json = Args.getString("metrics-json", "");
  if (!Out.empty() || !Json.empty()) {
    obs::MetricsSnapshot Snap = Registry.snapshot();
    if (!Out.empty()) {
      if (Status S = writeFileAtomic(Out, obs::renderPrometheus(Snap));
          !S) {
        std::fprintf(stderr, "error: %s: %s\n", Out.c_str(),
                     S.message().c_str());
        return false;
      }
      std::printf("wrote %s (%zu series; render with `ecas-cli stats %s`)\n",
                  Out.c_str(), Snap.Samples.size(), Out.c_str());
    }
    if (!Json.empty()) {
      if (Status S =
              writeFileAtomic(Json, obs::renderMetricsJson(Snap));
          !S) {
        std::fprintf(stderr, "error: %s: %s\n", Json.c_str(),
                     S.message().c_str());
        return false;
      }
      std::printf("wrote %s (%zu series, JSON)\n", Json.c_str(),
                  Snap.Samples.size());
    }
  }
  std::string LogPath = Args.getString("decision-log", "");
  if (!LogPath.empty()) {
    obs::FlightSnapshot Snap = Flight.drain();
    if (Status S = obs::DecisionLogSink::write(Snap.Decisions, LogPath); !S) {
      std::fprintf(stderr, "error: %s: %s\n", LogPath.c_str(),
                   S.message().c_str());
      return false;
    }
    std::printf("wrote %s (%llu decisions, newest %zu resident)\n",
                LogPath.c_str(),
                static_cast<unsigned long long>(Snap.DecisionsRecorded),
                Snap.Decisions.size());
  }
  return true;
}

Metric metricByName(const std::string &Name) {
  if (Name == "energy")
    return Metric::energy();
  if (Name == "ed2p")
    return Metric::ed2p();
  return Metric::edp();
}

/// Applies the DVFS flags shared by run/serve: --pstates=N synthesizes
/// an N-entry frequency ladder on \p Spec and turns the joint
/// (alpha, frequency) search on; --policy=NAME picks the scheduling
/// policy (pace-to-deadline reuses --deadline-ms as its target);
/// --idle-watts=W shapes race-to-idle. Returns false (after reporting)
/// on a malformed flag.
bool applyDvfsFlags(PlatformSpec &Spec, EasConfig &Config,
                    const Flags &Args) {
  if (auto PStates = static_cast<unsigned>(
          number<long long>(Args, "pstates", 0))) {
    Spec.synthesizePStates(PStates);
    Config.PStates = true;
  }
  if (std::string Name = Args.getString("policy", ""); !Name.empty()) {
    std::optional<SchedulingPolicy> Policy = schedulingPolicyByName(Name);
    if (!Policy) {
      std::fprintf(stderr, "error: unknown policy (have: minimize "
                           "race-to-idle pace-to-deadline)\n");
      return false;
    }
    Config.Policy = *Policy;
  }
  Config.IdleWatts = number(Args, "idle-watts", 0.0);
  if (Config.Policy == SchedulingPolicy::PaceToDeadline) {
    Config.DeadlineSeconds = number(Args, "deadline-ms", 0.0) / 1e3;
    if (Config.DeadlineSeconds <= 0.0) {
      std::fprintf(stderr, "error: --policy=pace-to-deadline needs a "
                           "positive --deadline-ms\n");
      return false;
    }
  }
  return true;
}

PowerCurveSet curvesFor(const PlatformSpec &Spec, const Flags &Args) {
  std::string Path = Args.getString("curves", "");
  if (!Path.empty()) {
    std::string Why = "unreadable file";
    std::ifstream File(Path);
    if (File) {
      std::ostringstream Buffer;
      Buffer << File.rdbuf();
      ErrorOr<PowerCurveSet> Loaded =
          PowerCurveSet::load(Buffer.str(), /*RequireComplete=*/true);
      if (Loaded) {
        std::printf("loaded curves from %s (platform %s)\n", Path.c_str(),
                    Loaded->platformName().c_str());
        return *Loaded;
      }
      Why = Loaded.status().message();
    }
    std::fprintf(stderr, "warning: cannot load %s: %s; characterizing "
                         "instead\n",
                 Path.c_str(), Why.c_str());
  }
  return Characterizer(Spec).characterize();
}

/// Family analogue of curvesFor, used when the joint (alpha, frequency)
/// search is on: --curves=FILE loads a serialized family (a legacy
/// single-set file loads as state 0), anything else characterizes every
/// P-state the spec advertises.
PowerCurveFamily familyFor(const PlatformSpec &Spec, const Flags &Args) {
  std::string Path = Args.getString("curves", "");
  if (!Path.empty()) {
    std::string Why = "unreadable file";
    std::ifstream File(Path);
    if (File) {
      std::ostringstream Buffer;
      Buffer << File.rdbuf();
      auto Loaded =
          PowerCurveFamily::load(Buffer.str(), /*RequireComplete=*/true);
      if (Loaded) {
        std::printf("loaded %u-state curve family from %s (platform %s)\n",
                    Loaded->numPStates(), Path.c_str(),
                    Loaded->platformName().c_str());
        return *Loaded;
      }
      Why = Loaded.status().message();
    }
    std::fprintf(stderr, "warning: cannot load %s: %s; characterizing "
                         "instead\n",
                 Path.c_str(), Why.c_str());
  }
  return characterizeFamily(Spec);
}

std::vector<Workload> suiteFor(const PlatformSpec &Spec,
                               const Flags &Args) {
  WorkloadConfig Config;
  Config.Scale = number(Args, "scale", 0.3);
  return Spec.Name == "baytrail-tablet" ? tabletSuite(Config)
                                        : desktopSuite(Config);
}

void printReport(const SessionReport &R) {
  std::printf("%-7s time %-10s energy %-10s avg %8.3f W  %s %.6g  "
              "alpha %.2f\n",
              schemeKindName(R.Kind), formatDuration(R.Seconds).c_str(),
              formatEnergy(R.Joules).c_str(), R.averageWatts(), "metric",
              R.MetricValue, R.MeanAlpha);
}

int cmdPlatforms() {
  for (const PlatformSpec &Spec : allPresets())
    std::printf("%-18s %u cores @ %.2f-%.2f GHz, %u EUs @ %.3f-%.3f GHz, "
                "%.1f GB/s, TDP %.1f W\n",
                Spec.Name.c_str(), Spec.Cpu.Cores, Spec.Cpu.MinFreqGHz,
                Spec.Cpu.MaxTurboGHz, Spec.Gpu.ExecutionUnits,
                Spec.Gpu.MinFreqGHz, Spec.Gpu.MaxFreqGHz,
                Spec.Memory.BandwidthGBs, Spec.Pcu.TdpWatts);
  return ExitOk;
}

int cmdCharacterize(const Flags &Args) {
  auto Spec = platformByName(Args.getString("platform", "haswell-desktop"));
  if (!Spec)
    return ExitUsage;
  // --pstates=N characterizes every rung of an N-entry synthesized
  // ladder and writes the delimited family format; without it the
  // output stays the legacy single-state set, byte for byte.
  std::string Text;
  if (auto PStates = static_cast<unsigned>(
          number<long long>(Args, "pstates", 0))) {
    Spec->synthesizePStates(PStates);
    Text = characterizeFamily(*Spec).serialize();
  } else {
    Text = Characterizer(*Spec).characterize().serialize();
  }
  std::string Out = Args.getString("out", "");
  if (Out.empty()) {
    std::fputs(Text.c_str(), stdout);
    return ExitOk;
  }
  std::ofstream File(Out);
  if (!File) {
    std::fprintf(stderr, "error: cannot write %s\n", Out.c_str());
    return ExitRuntime;
  }
  File << Text;
  std::printf("wrote %s\n", Out.c_str());
  return ExitOk;
}

int cmdRun(const Flags &Args) {
  auto Spec = platformByName(Args.getString("platform", "haswell-desktop"));
  if (!Spec)
    return ExitUsage;
  if (!applyFaultPlan(*Spec, Args))
    return ExitRuntime;
  std::vector<Workload> Suite = suiteFor(*Spec, Args);
  const Workload *W = findWorkload(Suite, Args.getString("workload", "CC"));
  if (!W) {
    std::fprintf(stderr, "error: unknown workload (have:");
    for (const Workload &Each : Suite)
      std::fprintf(stderr, " %s", Each.Abbrev.c_str());
    std::fprintf(stderr, ")\n");
    return ExitUsage;
  }
  Metric Objective = metricByName(Args.getString("metric", "edp"));
  std::optional<SchemeKind> Kind = schemeByName(Args.getString("scheme", "eas"));
  if (!Kind) {
    std::fprintf(stderr,
                 "error: unknown scheme (have: eas cpu gpu perf oracle "
                 "fixed)\n");
    return ExitUsage;
  }
  // DVFS flags mutate the spec (P-state ladder), so they must land
  // before the session snapshots it.
  EasConfig EasCfg;
  if (!applyDvfsFlags(*Spec, EasCfg, Args))
    return ExitUsage;
  ExecutionSession Session(*Spec);
  std::printf("%s on %s, optimizing %s (%u invocations)\n",
              W->Name.c_str(), Spec->Name.c_str(),
              Objective.name().c_str(), W->numInvocations());

  obs::FlightRecorder Recorder(obs::FlightRecorder::Unbounded);
  obs::MetricsRegistry Registry;
  obs::FlightRecorder Flight(/*EventsPerThread=*/4096, DecisionLogCapacity);
  RunOptions Options;
  Options.Trace = &W->Trace;
  Options.Objective = Objective;
  Options.Alpha = number(Args, "alpha", 0.5);
  if (wantsObservability(Args))
    Options.Recorder = &Recorder;
  if (wantsMetricsRegistry(Args))
    Options.Metrics = &Registry;
  if (!Args.getString("decision-log", "").empty())
    EasCfg.Flight = &Flight;

  // EAS alone needs curves, a table-G file, and a deadline; the sweep
  // and fixed-ratio schemes ignore those options.
  std::optional<PowerCurveSet> Curves;
  std::optional<PowerCurveFamily> Family;
  CancellationToken Deadline;
  if (*Kind == SchemeKind::Eas) {
    Options.Eas = EasCfg;
    Options.Eas.HistoryFile = Args.getString("history-file", "");
    // The deadline bounds the run in the workload's virtual time (each
    // run starts its clock at zero).
    double DeadlineMs = number(Args, "deadline-ms", 0.0);
    if (DeadlineMs > 0.0) {
      Deadline.setDeadline(DeadlineMs / 1000.0);
      Options.Cancel = &Deadline;
    }
    if (Options.Eas.PStates) {
      Family.emplace(familyFor(*Spec, Args));
      Options.CurveFamily = &*Family;
    } else {
      Curves.emplace(curvesFor(*Spec, Args));
      Options.Curves = &*Curves;
    }
  }

  SessionReport Report = Session.run(*Kind, Options);
  if (Report.Cancelled)
    std::printf("deadline hit: %u of %zu invocations completed\n",
                Report.Invocations, W->Trace.size());
  printReport(Report);
  if (Report.FaultsEnabled || Report.Resilience.degraded())
    printDegradation(Report);
  if (Report.ModelSamples)
    std::printf("  model: %u samples, mean rel-err time %.2f%% "
                "energy %.2f%%\n",
                Report.ModelSamples, 100.0 * Report.ModelTimeRelError,
                100.0 * Report.ModelEnergyRelError);
  if (Options.Recorder) {
    if (Report.Kind == SchemeKind::Eas)
      std::printf("  observed: %u profile reps, %u alpha searches, "
                  "%u cpu-only fast paths, %llu trace events\n",
                  Report.ProfileRepetitions, Report.AlphaSearches,
                  Report.CpuOnlyFastPaths,
                  static_cast<unsigned long long>(Report.TraceEventCount));
    if (!drainObservability(Recorder, Args))
      return ExitRuntime;
  }
  if (!writeMetricsOutputs(Registry, Flight, Args))
    return ExitRuntime;
  return ExitOk;
}

/// Parses --sla-mix=A:B:C into assignment weights (any nonnegative
/// doubles, at least one positive).
bool parseSlaMix(const std::string &Text, double (&Mix)[NumSlaClasses]) {
  std::vector<std::string> Parts = splitString(Text, ':');
  if (Parts.size() != NumSlaClasses)
    return false;
  double Sum = 0.0;
  for (unsigned I = 0; I != NumSlaClasses; ++I) {
    if (!parseDouble(Parts[I], Mix[I]) || Mix[I] < 0.0)
      return false;
    Sum += Mix[I];
  }
  return Sum > 0.0;
}

int cmdServe(const Flags &Args) {
  auto Spec = platformByName(Args.getString("platform", "haswell-desktop"));
  if (!Spec)
    return ExitUsage;
  if (!applyFaultPlan(*Spec, Args))
    return ExitRuntime;
  long long Tenants = number<long long>(Args, "tenants", 8);
  long long PerTenant = number<long long>(Args, "requests", 100);
  long long Workers = number<long long>(Args, "workers", 4);
  long long QueueCap = number<long long>(Args, "queue-cap", 64);
  double Mix[NumSlaClasses] = {2.0, 5.0, 3.0};
  if (std::string MixText = Args.getString("sla-mix", "");
      !MixText.empty() && !parseSlaMix(MixText, Mix)) {
    std::fprintf(stderr, "error: --sla-mix wants A:B:C nonnegative "
                         "weights with a positive sum\n");
    return ExitUsage;
  }
  double Qps = number(Args, "qps", 0.0);
  double Sla0DeadlineSec = number(Args, "sla0-deadline-ms", 200.0) / 1e3;
  double Sla1DeadlineSec = number(Args, "sla1-deadline-ms", 1000.0) / 1e3;
  double ShedThreshold = number(Args, "shed-threshold", 0.5);
  Metric Objective = metricByName(Args.getString("metric", "edp"));
  double DrainGraceSec = number(Args, "drain-grace-ms", 5000.0) / 1000.0;

  // Forensics flags (DESIGN.md §16).
  std::string ControlSocket = Args.getString("control-socket", "");
  std::string IncidentDir = Args.getString("incident-dir", "");
  long long IncidentKeep = number<long long>(Args, "incident-keep", 8);
  double DetectorIntervalMs = number(Args, "detector-interval-ms", 50.0);
  // The decision log drains the flight recorder's decision ring, so
  // asking for one arms the recorder.
  bool WantDecisions = !Args.getString("decision-log", "").empty();
  bool FlightArmed =
      WantDecisions || !Args.getBool("no-flight-recorder", false);

  // Mixed kernels: every workload of the platform's suite contributes
  // its invocations to one flat work list the tenants cycle over.
  InvocationTrace Work;
  for (const Workload &W : suiteFor(*Spec, Args))
    Work.insert(Work.end(), W.Trace.begin(), W.Trace.end());
  if (Work.empty()) {
    std::fprintf(stderr, "error: empty workload suite\n");
    return ExitRuntime;
  }

  obs::FlightRecorder Recorder(obs::FlightRecorder::Unbounded);
  obs::MetricsRegistry Registry;
  obs::FlightRecorder Flight(/*EventsPerThread=*/4096,
                             WantDecisions ? DecisionLogCapacity : 512);
  // The detectors and the control endpoint both read the registry, so
  // forensics implies metrics even without an export flag.
  bool Forensics = !IncidentDir.empty() || !ControlSocket.empty();
  EasConfig Config;
  Config.HistoryFile = Args.getString("history-file", "");
  // Journaling is the default whenever history persists: a kill -9 then
  // costs at most one group-commit window, not everything since the
  // last shutdown. --no-journal opts back into shutdown-only writes.
  Config.Journal.Enabled =
      !Config.HistoryFile.empty() && !Args.getBool("no-journal", false);
  if (wantsObservability(Args))
    Config.Trace = &Recorder;
  if (wantsMetricsRegistry(Args) || Forensics)
    Config.Metrics = &Registry;
  if (FlightArmed)
    Config.Flight = &Flight;
  // DVFS flags mutate the spec's P-state ladder; apply before the
  // service front end snapshots the spec for its processors.
  if (!applyDvfsFlags(*Spec, Config, Args))
    return ExitUsage;
  PowerCurveFamily Curves =
      Config.PStates ? familyFor(*Spec, Args)
                     : PowerCurveFamily::fromSingle(curvesFor(*Spec, Args));
  EasScheduler Scheduler(std::move(Curves), Objective, Config);
  if (!Scheduler.restoreStatus())
    std::fprintf(stderr, "warning: %s (kept the %zu table-G records "
                 "before it)\n",
                 Scheduler.restoreStatus().message().c_str(),
                 Scheduler.restoredRecords());
  else if (Scheduler.restoredRecords() > 0)
    std::printf("restored %zu table-G records from %s\n",
                Scheduler.restoredRecords(), Config.HistoryFile.c_str());
  if (Config.Journal.Enabled) {
    const RecoveryReport &Recovery = Scheduler.recoveryReport();
    std::printf("recovery: outcome=%s base=%zu replayed=%zu "
                "truncated=%zu generation=%llu %.3f ms (%s)\n",
                recoveryOutcomeName(Recovery.Outcome), Recovery.BaseRecords,
                Recovery.ReplayedRecords, Recovery.TruncatedRecords,
                static_cast<unsigned long long>(Recovery.Generation),
                1e3 * Recovery.Seconds, Config.HistoryFile.c_str());
    if (!Scheduler.journalStatus())
      std::fprintf(stderr,
                   "warning: journal unavailable, shutdown-only "
                   "durability: %s\n",
                   Scheduler.journalStatus().message().c_str());
  }

  ServiceConfig FrontConfig;
  FrontConfig.Workers = static_cast<unsigned>(Workers);
  FrontConfig.QueueCapPerClass = static_cast<size_t>(QueueCap);
  FrontConfig.DrainGraceSec = DrainGraceSec;
  if (wantsMetricsRegistry(Args) || Forensics)
    FrontConfig.Metrics = &Registry;
  if (FlightArmed)
    FrontConfig.Flight = &Flight;
  ServiceFrontEnd Service(Scheduler, *Spec, FrontConfig);

  // Forensics plumbing: the incident writer captures bundles when a
  // detector fires (or an operator sends `dump`), the control endpoint
  // answers statusz/metricz live, and the last-gasp machinery keeps a
  // crash document pre-serialized and mirrored to disk.
  std::optional<obs::IncidentWriter> Incidents;
  if (!IncidentDir.empty()) {
    ::mkdir(IncidentDir.c_str(), 0755); // EEXIST is fine
    obs::IncidentConfig IncidentCfg;
    IncidentCfg.Dir = IncidentDir;
    IncidentCfg.MaxBundles = static_cast<unsigned>(IncidentKeep);
    Incidents.emplace(IncidentCfg);
  }
  auto ForensicInputs = [&] {
    obs::IncidentInputs Inputs;
    Inputs.Flight = Config.Flight;
    Inputs.Metrics = Config.Metrics;
    Inputs.TableDigest = renderTableGDigest(Scheduler);
    Inputs.ServiceStatus = Service.renderStatusz();
    return Inputs;
  };
  if (!ControlSocket.empty()) {
    Service.setDumpHook([&] {
      if (!Incidents)
        return std::string("err dump needs --incident-dir\n");
      ErrorOr<std::string> Bundle =
          Incidents->write(ForensicInputs(), {},
                           obs::FlightRecorder::hostSeconds(),
                           /*Force=*/true);
      if (!Bundle)
        return "err " + Bundle.status().toString() + "\n";
      return "ok " + *Bundle + "\n";
    });
    if (Status S = Service.startControl(ControlSocket); !S) {
      std::fprintf(stderr, "error: control socket: %s\n",
                   S.message().c_str());
      return ExitRuntime;
    }
    std::printf("control socket %s\n", ControlSocket.c_str());
  }

  double ServeStartSec = obs::FlightRecorder::hostSeconds();
  obs::AnomalyDetector Detector;
  AnnotatedMutex ForensicMutex{"Cli.Forensics"};
  std::condition_variable ForensicCv;
  bool ForensicDone = false;
  std::thread ForensicThread;
  if (Incidents) {
    std::string GaspPath = IncidentDir + "/lastgasp.txt";
    if (Status S = obs::LastGasp::instance().arm(GaspPath); !S)
      std::fprintf(stderr, "warning: last-gasp handlers not armed: %s\n",
                   S.message().c_str());
    // Prime the delta-based rules against the pre-traffic snapshot so
    // the first real quarantine or deadline miss is a transition the
    // detector observes, not part of a cold baseline it re-bases over.
    (void)Detector.evaluate(Registry.snapshot(), ServeStartSec);
    ForensicThread = std::thread([&, GaspPath] {
      UniqueLock Lock(ForensicMutex);
      // Rules that fired last tick. An anomaly that persists across
      // ticks (a p99 regression that never clears) keeps returning its
      // trigger; capturing a bundle per tick would just churn the
      // retention window with near-identical snapshots. Capture on the
      // none->some edge per rule, with the writer's rate limit as the
      // backstop for rules that flap.
      std::set<std::string> ActiveRules;
      while (!ForensicCv.wait_for(
          Lock.native(),
          std::chrono::duration<double, std::milli>(DetectorIntervalMs),
          [&] { return ForensicDone; })) {
        double NowSec = obs::FlightRecorder::hostSeconds();
        std::vector<obs::AnomalyTrigger> Triggers =
            Detector.evaluate(Registry.snapshot(), NowSec);
        std::set<std::string> NowRules;
        bool NewRule = false;
        for (const obs::AnomalyTrigger &Trigger : Triggers) {
          if (!ActiveRules.count(Trigger.Rule))
            NewRule = true;
          NowRules.insert(Trigger.Rule);
        }
        ActiveRules.swap(NowRules);
        if (NewRule) {
          ErrorOr<std::string> Bundle =
              Incidents->write(ForensicInputs(), Triggers, NowSec);
          // Rate-limited is business as usual under a trigger storm;
          // anything else deserves a warning.
          if (!Bundle && Bundle.status().code() != ErrCode::Overloaded)
            std::fprintf(stderr, "warning: incident bundle: %s\n",
                         Bundle.status().message().c_str());
        }
        // Refresh the crash document and mirror it to disk every tick:
        // catchable fatal signals write the freshest copy themselves,
        // and a SIGKILL still leaves the last tick's mirror behind.
        obs::LastGaspContext Gasp;
        Gasp.UptimeSec = NowSec - ServeStartSec;
        Gasp.ServiceStatus = Service.renderStatusz();
        Gasp.Flight = Config.Flight;
        std::string Doc = obs::renderLastGasp(Gasp);
        obs::LastGasp::instance().refresh(Doc);
        (void)writeFileAtomic(GaspPath, Doc);
      }
    });
  }

  // Periodic exporter: while the tenants hammer the service, rewrite
  // the Prometheus snapshot atomically every interval — what a scrape
  // target looks like for a service without an HTTP listener.
  std::string MetricsOut = Args.getString("metrics-out", "");
  double IntervalMs = number(Args, "metrics-interval-ms", 0.0);
  AnnotatedMutex ExportMutex{"Cli.MetricsExport"};
  std::condition_variable ExportCv;
  bool ExportDone = false;
  std::thread Exporter;
  if (!MetricsOut.empty() && IntervalMs > 0.0)
    Exporter = std::thread([&] {
      UniqueLock Lock(ExportMutex);
      unsigned Rewrites = 0;
      while (!ExportCv.wait_for(
          Lock.native(), std::chrono::duration<double, std::milli>(IntervalMs),
          [&] { return ExportDone; })) {
        if (Status S = writeFileAtomic(
                MetricsOut, obs::renderPrometheus(Registry.snapshot()));
            !S)
          std::fprintf(stderr, "warning: %s: %s\n", MetricsOut.c_str(),
                       S.message().c_str());
        else
          ++Rewrites;
      }
      if (Rewrites)
        std::printf("  metrics: %u periodic rewrites of %s\n", Rewrites,
                    MetricsOut.c_str());
    });

  // Synthetic tenants: each offers PerTenant requests at its SLA mix,
  // re-offering rejected work under capped exponential backoff with
  // jitter so backpressure sheds load in time, not in requests.
  std::atomic<uint64_t> Offered{0}, Retries{0}, GiveUps{0};
  constexpr unsigned MaxRetries = 6;
  std::vector<std::thread> Clients;
  Clients.reserve(static_cast<size_t>(Tenants));
  for (long long T = 0; T != Tenants; ++T)
    Clients.emplace_back([&, T] {
      uint64_t TenantId = static_cast<uint64_t>(T) + 1;
      Xoshiro256 Rng(0x7e4a5eed2026ULL + TenantId * 7919);
      double MixSum = Mix[0] + Mix[1] + Mix[2];
      for (long long K = 0; K != PerTenant; ++K) {
        const KernelInvocation &Inv =
            Work[static_cast<size_t>(T + K * Tenants) % Work.size()];
        RequestContext Ctx;
        Ctx.TenantId = TenantId;
        double Draw = Rng.nextDouble() * MixSum;
        if (Draw < Mix[0]) {
          Ctx.Sla = SlaClass::Sla0;
          Ctx.DeadlineSec = Sla0DeadlineSec;
        } else if (Draw < Mix[0] + Mix[1]) {
          Ctx.Sla = SlaClass::Sla1;
          Ctx.DeadlineSec = Sla1DeadlineSec;
        } else {
          Ctx.Sla = SlaClass::Sla2;
        }
        ++Offered;
        for (unsigned Attempt = 0;; ++Attempt) {
          SubmitResult Result = Service.submit(Inv.Kernel, Inv.Iterations,
                                               Ctx);
          if (Result.admitted())
            break;
          // A zero hint means "replan, not retry" (infeasible deadline
          // at submit, or the service is closing).
          if (Result.RetryAfterSec <= 0.0 || Attempt >= MaxRetries) {
            ++GiveUps;
            break;
          }
          ++Retries;
          double Base = std::max(Result.RetryAfterSec, 1e-3);
          double Delay =
              std::min(Base * static_cast<double>(1u << std::min(Attempt, 6u)),
                       0.25);
          Delay *= 0.5 + Rng.nextDouble(); // jitter in [0.5x, 1.5x)
          std::this_thread::sleep_for(std::chrono::duration<double>(Delay));
        }
        if (Qps > 0.0) {
          // Bursty arrivals: every 24th request opens a burst of 6
          // back-to-back submissions; the rest pace to the target rate.
          bool InBurst = (K % 24) < 6;
          if (!InBurst)
            std::this_thread::sleep_for(std::chrono::duration<double>(
                (0.5 + Rng.nextDouble()) / Qps));
        }
      }
    });
  for (std::thread &Client : Clients)
    Client.join();

  ServiceStats Stats = Service.shutdown();
  Status Shutdown = Scheduler.shutdown(DrainGraceSec);

  if (Exporter.joinable()) {
    {
      LockGuard Lock(ExportMutex);
      ExportDone = true;
    }
    ExportCv.notify_all();
    Exporter.join();
  }
  if (ForensicThread.joinable()) {
    {
      LockGuard Lock(ForensicMutex);
      ForensicDone = true;
    }
    ForensicCv.notify_all();
    ForensicThread.join();
  }

  // No lost updates: every completed invocation must be counted in
  // table G (cancelled ones are deliberately not).
  uint64_t Recorded = 0;
  for (const auto &[Key, Rec] : Scheduler.history().entries())
    Recorded += Rec.Invocations;

  std::printf("serve: %lld tenants x %lld requests, %lld workers, "
              "queue cap %lld/class, %zu tenant-kernels in table G\n",
              Tenants, PerTenant, Workers, QueueCap,
              Scheduler.history().size());
  std::printf("  offered %llu first-time, %llu retries, %llu give-ups\n",
              static_cast<unsigned long long>(Offered.load()),
              static_cast<unsigned long long>(Retries.load()),
              static_cast<unsigned long long>(GiveUps.load()));
  for (unsigned I = 0; I != NumSlaClasses; ++I)
    std::printf("  %s: submitted %llu, rejected %llu, shed %llu, "
                "completed %llu, cancelled %llu, deadline misses %llu, "
                "max wait %.1f ms\n",
                slaClassName(slaFromIndex(I)),
                static_cast<unsigned long long>(Stats.SubmittedBySla[I]),
                static_cast<unsigned long long>(Stats.RejectedBySla[I]),
                static_cast<unsigned long long>(Stats.ShedBySla[I]),
                static_cast<unsigned long long>(Stats.CompletedBySla[I]),
                static_cast<unsigned long long>(Stats.CancelledBySla[I]),
                static_cast<unsigned long long>(Stats.DeadlineMissesBySla[I]),
                1e3 * Stats.MaxQueueWaitSec[I]);
  std::printf("  accounting: %llu submitted == %llu rejected + %llu shed "
              "+ %llu completed + %llu cancelled%s\n",
              static_cast<unsigned long long>(Stats.Submitted),
              static_cast<unsigned long long>(Stats.Rejected),
              static_cast<unsigned long long>(Stats.Shed),
              static_cast<unsigned long long>(Stats.Completed),
              static_cast<unsigned long long>(Stats.Cancelled),
              Stats.consistent() ? "" : "  [BROKEN]");
  std::printf("  sla0 deadline misses %llu, shed fraction %.1f%% "
              "(threshold %.1f%%)\n",
              static_cast<unsigned long long>(Stats.Sla0DeadlineMisses),
              100.0 * Stats.shedFraction(), 100.0 * ShedThreshold);
  std::printf("  table G records %llu invocations%s\n",
              static_cast<unsigned long long>(Recorded),
              Config.HistoryFile.empty()
                  ? ""
                  : (", snapshot " + Config.HistoryFile).c_str());
  if (Scheduler.journaling()) {
    HistoryJournal::Stats JournalStats = Scheduler.journalStats();
    const RecoveryReport &Recovery = Scheduler.recoveryReport();
    std::printf("  journal: %llu appends (%llu bytes, %llu flushes), "
                "recovery outcome %s\n",
                static_cast<unsigned long long>(JournalStats.Appends),
                static_cast<unsigned long long>(JournalStats.AppendedBytes),
                static_cast<unsigned long long>(JournalStats.Flushes),
                recoveryOutcomeName(Recovery.Outcome));
    if (!Scheduler.journalStatus())
      std::fprintf(stderr, "warning: journal degraded: %s\n",
                   Scheduler.journalStatus().message().c_str());
  }
  if (const GpuHealthMonitor::Stats Health = Scheduler.health().stats();
      Health.Quarantines || Health.Recoveries)
    std::printf("  health: %u quarantines, %u recoveries, state %s\n",
                Health.Quarantines, Health.Recoveries,
                gpuHealthStateName(Scheduler.health().state()));
  if (Incidents)
    std::printf("  forensics: %llu incident bundle%s under %s, "
                "flight ring %s\n",
                static_cast<unsigned long long>(Incidents->bundlesWritten()),
                Incidents->bundlesWritten() == 1 ? "" : "s",
                IncidentDir.c_str(), FlightArmed ? "armed" : "disabled");
  if (!Shutdown) {
    std::fprintf(stderr, "error: shutdown: %s\n",
                 Shutdown.message().c_str());
    return ExitRuntime;
  }
  if (!Stats.consistent()) {
    std::fprintf(stderr, "error: request accounting does not balance\n");
    return ExitRuntime;
  }
  if (Config.Trace && !drainObservability(Recorder, Args))
    return ExitRuntime;
  // Final authoritative write — covers the no-interval case and leaves
  // the post-shutdown totals (drain gauge included) on disk.
  if (!writeMetricsOutputs(Registry, Flight, Args))
    return ExitRuntime;
  // Overload is an outcome, not a detail: an SLA0 miss or a shed storm
  // exits 1 so scripts can tell a degraded run from a clean one.
  return serveExitCode(Stats, ShedThreshold) == 0 ? ExitOk : ExitRuntime;
}

/// `inspect`: line-protocol client for a serve instance's control
/// socket, plus offline validators for the forensic artifacts (incident
/// bundles, last-gasp documents) so CI can assert on them without a
/// live process.
int cmdInspect(const Flags &Args) {
  std::string Bundle = Args.getString("validate", "");
  if (!Bundle.empty()) {
    if (Status S = obs::validateBundle(Bundle); !S) {
      std::fprintf(stderr, "error: %s: %s\n", Bundle.c_str(),
                   S.message().c_str());
      return ExitRuntime;
    }
    std::printf("ok %s\n", Bundle.c_str());
    return ExitOk;
  }
  std::string Gasp = Args.getString("validate-lastgasp", "");
  if (!Gasp.empty()) {
    std::string Content;
    bool Existed = false;
    if (Status S = readFileBytes(Gasp, Content, Existed); !S || !Existed) {
      std::fprintf(stderr, "error: %s: %s\n", Gasp.c_str(),
                   Existed ? S.message().c_str() : "no such file");
      return ExitRuntime;
    }
    if (Status S = obs::validateLastGasp(Content); !S) {
      std::fprintf(stderr, "error: %s: %s\n", Gasp.c_str(),
                   S.message().c_str());
      return ExitRuntime;
    }
    std::printf("ok %s\n", Gasp.c_str());
    return ExitOk;
  }

  const std::vector<std::string> &Positional = Args.positional();
  if (Positional.size() < 2) {
    std::fprintf(stderr, "error: inspect needs a socket path (or "
                         "--validate=DIR / --validate-lastgasp=FILE)\n");
    return ExitUsage;
  }
  const std::string &SocketPath = Positional[1];
  std::string Command =
      Positional.size() > 2 ? Positional[2] : std::string("statusz");

  sockaddr_un Addr{};
  Addr.sun_family = AF_UNIX;
  if (SocketPath.size() >= sizeof(Addr.sun_path)) {
    std::fprintf(stderr, "error: socket path too long: %s\n",
                 SocketPath.c_str());
    return ExitUsage;
  }
  std::memcpy(Addr.sun_path, SocketPath.c_str(), SocketPath.size() + 1);

  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (Fd < 0) {
    std::fprintf(stderr, "error: socket: %s\n", std::strerror(errno));
    return ExitRuntime;
  }
  if (::connect(Fd, reinterpret_cast<const sockaddr *>(&Addr),
                sizeof(Addr)) != 0) {
    std::fprintf(stderr, "error: connect %s: %s\n", SocketPath.c_str(),
                 std::strerror(errno));
    ::close(Fd);
    return ExitRuntime;
  }
  std::string Line = Command + "\n";
  size_t Sent = 0;
  while (Sent < Line.size()) {
    ssize_t N = ::send(Fd, Line.data() + Sent, Line.size() - Sent, 0);
    if (N <= 0) {
      std::fprintf(stderr, "error: send: %s\n", std::strerror(errno));
      ::close(Fd);
      return ExitRuntime;
    }
    Sent += static_cast<size_t>(N);
  }
  char Buffer[4096];
  for (;;) {
    ssize_t N = ::recv(Fd, Buffer, sizeof(Buffer), 0);
    if (N < 0) {
      std::fprintf(stderr, "error: recv: %s\n", std::strerror(errno));
      ::close(Fd);
      return ExitRuntime;
    }
    if (N == 0)
      break;
    std::fwrite(Buffer, 1, static_cast<size_t>(N), stdout);
  }
  ::close(Fd);
  return ExitOk;
}

int cmdStats(const Flags &Args) {
  if (Args.positional().size() < 2) {
    std::fprintf(stderr, "usage: ecas-cli stats FILE\n");
    return ExitUsage;
  }
  const std::string &Path = Args.positional()[1];
  std::ifstream File(Path);
  if (!File) {
    std::fprintf(stderr, "error: cannot read %s\n", Path.c_str());
    return ExitRuntime;
  }
  std::ostringstream Buffer;
  Buffer << File.rdbuf();
  std::string Text = Buffer.str();
  size_t First = Text.find_first_not_of(" \t\r\n");
  if (First != std::string::npos && Text[First] == '{') {
    std::fprintf(stderr,
                 "error: %s looks like a JSON snapshot; stats renders the "
                 "Prometheus text form (--metrics-out)\n",
                 Path.c_str());
    return ExitUsage;
  }
  ErrorOr<obs::MetricsSnapshot> Snap = obs::parsePrometheusText(Text);
  if (!Snap) {
    std::fprintf(stderr, "error: %s: %s\n", Path.c_str(),
                 Snap.status().message().c_str());
    return ExitRuntime;
  }
  std::fputs(obs::renderMetricsReport(*Snap).c_str(), stdout);
  return ExitOk;
}

int cmdSweep(const Flags &Args) {
  auto Spec = platformByName(Args.getString("platform", "haswell-desktop"));
  if (!Spec)
    return ExitUsage;
  if (!applyFaultPlan(*Spec, Args))
    return ExitRuntime;
  std::vector<Workload> Suite = suiteFor(*Spec, Args);
  const Workload *W = findWorkload(Suite, Args.getString("workload", "CC"));
  if (!W) {
    std::fprintf(stderr, "error: unknown workload\n");
    return ExitUsage;
  }
  Metric Objective = metricByName(Args.getString("metric", "edp"));
  ExecutionSession Session(*Spec);
  RunOptions Options;
  Options.Trace = &W->Trace;
  Options.Objective = Objective;
  std::printf("%6s %12s %12s %12s\n", "gpu%", "time", "energy",
              Objective.name().c_str());
  for (double Alpha = 0.0; Alpha <= 1.0 + 1e-9; Alpha += 0.1) {
    Options.Alpha = std::min(Alpha, 1.0);
    SessionReport R = Session.run(SchemeKind::FixedAlpha, Options);
    std::printf("%5.0f%% %12s %12s %12.5g\n", 100 * Options.Alpha,
                formatDuration(R.Seconds).c_str(),
                formatEnergy(R.Joules).c_str(), R.MetricValue);
  }
  return ExitOk;
}

int cmdSuite(const Flags &Args) {
  auto Spec = platformByName(Args.getString("platform", "haswell-desktop"));
  if (!Spec)
    return ExitUsage;
  if (!applyFaultPlan(*Spec, Args))
    return ExitRuntime;
  Metric Objective = metricByName(Args.getString("metric", "edp"));
  PowerCurveSet Curves = curvesFor(*Spec, Args);
  ExecutionSession Session(*Spec);
  std::printf("%-5s %10s %10s %10s %10s %10s\n", "bench", "cpu", "gpu",
              "perf", "eas", "oracle-a");
  RunOptions Options;
  Options.Curves = &Curves;
  Options.Objective = Objective;
  for (const Workload &W : suiteFor(*Spec, Args)) {
    Options.Trace = &W.Trace;
    SessionReport Oracle = Session.run(SchemeKind::Oracle, Options);
    auto Eff = [&](SchemeKind Kind) {
      return 100.0 * Oracle.MetricValue /
             Session.run(Kind, Options).MetricValue;
    };
    std::printf("%-5s %9.1f%% %9.1f%% %9.1f%% %9.1f%% %10.1f\n",
                W.Abbrev.c_str(), Eff(SchemeKind::CpuOnly),
                Eff(SchemeKind::GpuOnly), Eff(SchemeKind::Perf),
                Eff(SchemeKind::Eas), Oracle.MeanAlpha);
  }
  return ExitOk;
}

int cmdFaults(const Flags &Args) {
  auto Spec = platformByName(Args.getString("platform", "haswell-desktop"));
  if (!Spec)
    return ExitUsage;
  std::vector<Workload> Suite = suiteFor(*Spec, Args);
  const Workload *W = findWorkload(Suite, Args.getString("workload", "CC"));
  if (!W) {
    std::fprintf(stderr, "error: unknown workload\n");
    return ExitUsage;
  }
  Metric Objective = metricByName(Args.getString("metric", "edp"));

  std::vector<std::string> Names;
  std::string Requested = Args.getString("scenario", "");
  if (Requested.empty())
    Names = FaultPlan::scenarioNames();
  else
    Names.push_back(Requested);

  // Resolve every scenario up front so a typo fails before the (slow)
  // characterization and baseline run.
  std::vector<FaultPlan> Plans;
  for (const std::string &Name : Names) {
    ErrorOr<FaultPlan> Plan = FaultPlan::scenario(Name);
    if (!Plan) {
      std::fprintf(stderr, "error: %s (have:", Plan.status().message().c_str());
      for (const std::string &Known : FaultPlan::scenarioNames())
        std::fprintf(stderr, " %s", Known.c_str());
      std::fprintf(stderr, ")\n");
      return ExitUsage;
    }
    Plans.push_back(*Plan);
  }

  // Curves come from the healthy platform: characterization happens
  // before deployment, the faults afterwards.
  PowerCurveSet Curves = Characterizer(*Spec).characterize();
  RunOptions Options;
  Options.Trace = &W->Trace;
  Options.Curves = &Curves;
  Options.Objective = Objective;

  // Healthy baseline to compare each scenario against.
  {
    ExecutionSession Session(*Spec);
    SessionReport R = Session.run(SchemeKind::Eas, Options);
    std::printf("baseline (no faults): %s on %s\n", W->Name.c_str(),
                Spec->Name.c_str());
    printReport(R);
  }

  for (size_t I = 0; I != Plans.size(); ++I) {
    const FaultPlan &Plan = Plans[I];
    PlatformSpec Faulty = *Spec;
    Faulty.Faults = Plan;
    ExecutionSession Session(Faulty);
    std::printf("\nscenario '%s' (%zu events, seed %llu)\n", Names[I].c_str(),
                Plan.events().size(),
                static_cast<unsigned long long>(Plan.seed()));
    SessionReport R = Session.run(SchemeKind::Eas, Options);
    printReport(R);
    printDegradation(R);
  }
  return ExitOk;
}

} // namespace

int main(int Argc, char **Argv) {
  Flags Args(Argc, Argv);
  if (Args.positional().empty())
    return usage();
  const std::string &Command = Args.positional().front();
  std::optional<std::vector<FlagSpec>> Accepted = acceptedFlags(Command);
  if (!Accepted)
    return usageError("unknown command '" + Command + "'");
  if (Status S = checkFlags(Args, *Accepted); !S)
    return usageError(S.message());
  // --scale sizes the graph workloads' road network; reject a value that
  // would overflow its node ids (or means nothing) before any command
  // builds a suite.
  if (!WorkloadConfig::validScale(number(Args, "scale", 0.3)))
    return usageError(formatString("--scale wants a number in (0, %g], got "
                                   "'%s'",
                                   WorkloadConfig::MaxScale,
                                   Args.getString("scale", "").c_str()));
  if (Command == "platforms")
    return cmdPlatforms();
  if (Command == "characterize")
    return cmdCharacterize(Args);
  if (Command == "run")
    return cmdRun(Args);
  if (Command == "sweep")
    return cmdSweep(Args);
  if (Command == "suite")
    return cmdSuite(Args);
  if (Command == "faults")
    return cmdFaults(Args);
  if (Command == "serve")
    return cmdServe(Args);
  if (Command == "stats")
    return cmdStats(Args);
  return cmdInspect(Args);
}
