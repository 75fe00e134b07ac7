//===-- bench/abl_thresholds.cpp - Classifier-threshold ablation ----------===//
//
// Part of the ecas project, under the MIT License.
//
// Section 5: workloads are memory-bound when misses/load-store > 0.33
// and short when the remaining execution is < 100 ms; "both these
// thresholds were sufficient for both platforms". This sweeps both and
// reports EAS EDP efficiency, showing the flat region around the paper's
// choices.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "ecas/hw/Presets.h"
#include "ecas/support/Stats.h"

#include <cstdio>

using namespace ecas;

static double meanEff(const ExecutionSession &Session,
                      const std::vector<Workload> &Suite,
                      const PowerCurveSet &Curves, const EasConfig &Config) {
  RunOptions Options;
  Options.Curves = &Curves;
  Options.Objective = Metric::edp();
  Options.Eas = Config;
  RunningStats Eff;
  for (const Workload &W : Suite) {
    Options.Trace = &W.Trace;
    SessionReport Oracle = Session.run(SchemeKind::Oracle, Options);
    SessionReport Eas = Session.run(SchemeKind::Eas, Options);
    Eff.add(Oracle.MetricValue / Eas.MetricValue);
  }
  return Eff.mean();
}

int main(int Argc, char **Argv) {
  Flags Args(Argc, Argv);
  if (Args.rejectUnknown({"scale", "seed"},
                         "usage: abl_thresholds [--scale=X] [--seed=N]"))
    return 2;
  bench::printBanner(
      "Ablation: classification thresholds (desktop, EDP)",
      "paper: memory-bound above 0.33 misses/load-store; short below "
      "100 ms");

  PlatformSpec Spec = haswellDesktop();
  PowerCurveSet Curves = Characterizer(Spec).characterize();
  std::vector<Workload> Suite = desktopSuite(bench::configFromFlags(Args));
  ExecutionSession Session(Spec);

  std::printf("memory-intensity threshold sweep (short = 100 ms):\n");
  std::printf("%10s %14s\n", "threshold", "mean EAS eff");
  for (double T : {0.05, 0.15, 0.25, 0.33, 0.45, 0.60, 0.90}) {
    EasConfig Config;
    Config.Thresholds.MemoryIntensity = T;
    std::printf("%10.2f %13.1f%%\n", T,
                100 * meanEff(Session, Suite, Curves, Config));
  }

  std::printf("\nshort/long threshold sweep (memory = 0.33):\n");
  std::printf("%10s %14s\n", "seconds", "mean EAS eff");
  for (double T : {0.005, 0.02, 0.05, 0.1, 0.3, 1.0, 5.0}) {
    EasConfig Config;
    Config.Thresholds.ShortSeconds = T;
    std::printf("%10.3f %13.1f%%\n", T,
                100 * meanEff(Session, Suite, Curves, Config));
  }
  return 0;
}
