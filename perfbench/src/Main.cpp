//===-- perfbench/src/Main.cpp - ecas benchmark entry point ---------------===//
//
// Part of the ecas project, under the MIT License.
//
// Usage:
//   ecas_perfbench --workload paper-figs|serve-warm|learn-dvfs|all
//                  [--seed N] [--seconds S] [--trace 0|1] [--out-dir DIR]
//   ecas_perfbench --list-metrics     the metric catalogue as JSON
//   ecas_perfbench --self-test        the benchmark's own tests
//
// One workload prints its human-readable report, then as its last line
// {"correct", "attempted", "failed", "metrics"}: every end-to-end metric
// with --trace 0, every per-layer metric with --trace 1. `all` runs each
// workload untraced and traced in this one process and ends with the
// same object, metric names prefixed "<workload>:". The exit code is 1
// when a correctness check failed, 2 on a usage error.
//
//===----------------------------------------------------------------------===//

#include "Common.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>

using namespace perfbench;

namespace {

int usage(const char *Why) {
  std::fprintf(stderr,
               "error: %s\nusage: ecas_perfbench --workload NAME [--seed N] "
               "[--seconds S] [--trace 0|1] [--out-dir DIR] | --list-metrics "
               "| --self-test\n",
               Why);
  return 2;
}

std::string catalogueJson(const std::vector<MetricSpec> &Specs) {
  std::string Out = "[";
  for (size_t I = 0; I != Specs.size(); ++I)
    Out += std::string(I ? ", " : "") + "{\"name\": \"" + Specs[I].Name +
           "\", \"unit\": \"" + Specs[I].Unit + "\", \"better\": \"" +
           Specs[I].Better + "\"}";
  return Out + "]";
}

int listMetrics() {
  std::string Workloads = "[";
  for (size_t I = 0; I != workloadNames().size(); ++I)
    Workloads += std::string(I ? ", " : "") + "\"" + workloadNames()[I] + "\"";
  std::printf("{\"workloads\": %s], \"end_to_end\": %s, \"per_layer\": %s}\n",
              Workloads.c_str(), catalogueJson(endToEndMetrics()).c_str(),
              catalogueJson(perLayerMetrics()).c_str());
  return 0;
}

RunResult runOne(const Options &Opts) {
  RunResult Result;
  if (Opts.Workload == "paper-figs")
    runPaperFigs(Opts, Result);
  else if (Opts.Workload == "serve-warm")
    runServeWarm(Opts, Result);
  else
    runLearnDvfs(Opts, Result);
  const std::vector<MetricSpec> &Catalogue =
      Opts.Trace ? perLayerMetrics() : endToEndMetrics();
  for (const MetricSpec &Spec : Catalogue) {
    auto It = Result.Values.find(Spec.Name);
    Result.check(It == Result.Values.end() || std::isfinite(It->second),
                 std::string("non-finite metric ") + Spec.Name);
  }
  std::printf("%s %s (seed %llu, %.0f s):\n", Opts.Workload.c_str(),
              Opts.Trace ? "traced" : "untraced",
              static_cast<unsigned long long>(Opts.Seed), Opts.Seconds);
  for (const MetricSpec &Spec : Catalogue) {
    auto It = Result.Values.find(Spec.Name);
    if (It != Result.Values.end())
      std::printf("  %-34s %14.6g %s\n", Spec.Name, It->second, Spec.Unit);
  }
  std::printf("  attempted %llu, failed %llu (%.4f%%)\n",
              static_cast<unsigned long long>(Result.Attempted),
              static_cast<unsigned long long>(Result.Failed),
              Result.Attempted ? 100.0 * Result.Failed / Result.Attempted
                               : 0.0);
  for (const std::string &Error : Result.Errors)
    std::fprintf(stderr, "check failed: %s\n", Error.c_str());
  return Result;
}

} // namespace

int main(int Argc, char **Argv) {
  Options Opts;
  Opts.OutDir = ".";
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg == "--self-test")
      return runSelfTests() == 0 ? 0 : 1;
    if (Arg == "--list-metrics")
      return listMetrics();
    if (I + 1 >= Argc)
      return usage(("missing value for " + Arg).c_str());
    std::string Value = Argv[++I];
    char *End = nullptr;
    if (Arg == "--workload") {
      Opts.Workload = Value;
    } else if (Arg == "--seed") {
      Opts.Seed = std::strtoull(Value.c_str(), &End, 10);
      if (*End)
        return usage("--seed wants a whole number");
    } else if (Arg == "--seconds") {
      Opts.Seconds = std::strtod(Value.c_str(), &End);
      if (*End || !(Opts.Seconds > 0.0) || Opts.Seconds > 120.0)
        return usage("--seconds wants a number in (0, 120]");
    } else if (Arg == "--trace") {
      if (Value != "0" && Value != "1")
        return usage("--trace wants 0 or 1");
      Opts.Trace = Value == "1";
    } else if (Arg == "--out-dir") {
      Opts.OutDir = Value;
    } else {
      return usage(("unknown option " + Arg).c_str());
    }
  }

  const std::vector<std::string> &Names = workloadNames();
  bool Known = false;
  for (const std::string &Name : Names)
    Known |= Name == Opts.Workload;
  if (Opts.Workload != "all" && !Known)
    return usage("--workload wants paper-figs, serve-warm, learn-dvfs or all");

  if (Opts.Workload != "all") {
    RunResult Result = runOne(Opts);
    std::fflush(stderr);
    std::printf("%s\n", renderResultJson(Result, Opts.Trace
                                                     ? perLayerMetrics()
                                                     : endToEndMetrics())
                            .c_str());
    return Result.Correct ? 0 : 1;
  }

  RunResult All;
  for (const std::string &Name : Names)
    for (bool Trace : {false, true}) {
      Options One = Opts;
      One.Workload = Name;
      One.Trace = Trace;
      RunResult Result = runOne(One);
      All.Correct &= Result.Correct;
      All.Attempted += Result.Attempted;
      All.Failed += Result.Failed;
      for (const auto &[Metric, Value] : Result.Values)
        All.Values[Name + ":" + Metric] = Value;
    }
  std::map<std::string, const MetricSpec *> ByName;
  for (const auto *Catalogue : {&endToEndMetrics(), &perLayerMetrics()})
    for (const MetricSpec &Spec : *Catalogue)
      ByName[Spec.Name] = &Spec;
  std::vector<std::string> Keys;
  for (const auto &[Key, Value] : All.Values)
    Keys.push_back(Key);
  std::vector<MetricSpec> Combined;
  for (const std::string &Key : Keys) {
    auto It = ByName.find(Key.substr(Key.find(':') + 1));
    if (It != ByName.end())
      Combined.push_back({Key.c_str(), It->second->Unit, It->second->Better});
  }
  std::string Json = renderResultJson(All, Combined);
  std::printf("%s\n", Json.c_str());
  return All.Correct ? 0 : 1;
}
