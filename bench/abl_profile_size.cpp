//===-- bench/abl_profile_size.cpp - GPU_PROFILE_SIZE ablation ------------===//
//
// Part of the ecas project, under the MIT License.
//
// Section 3.2: "The GPU_PROFILE_SIZE parameter must be chosen carefully
// based on the available GPU parallelism" — 2048 on the desktop
// (2240-way parallel GPU). This sweeps the chunk size and reports EAS
// EDP efficiency plus how many iterations profiling consumed.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "ecas/hw/Presets.h"
#include "ecas/support/Stats.h"

#include <cstdio>

using namespace ecas;

int main(int Argc, char **Argv) {
  Flags Args(Argc, Argv);
  if (Args.rejectUnknown({"scale", "seed"},
                         "usage: abl_profile_size [--scale=X] [--seed=N]"))
    return 2;
  bench::printBanner(
      "Ablation: GPU profiling chunk size (desktop, EDP)",
      "paper picks 2048 to fill the 2240-way parallel desktop GPU");

  PlatformSpec Spec = haswellDesktop();
  PowerCurveSet Curves = Characterizer(Spec).characterize();
  std::vector<Workload> Suite = desktopSuite(bench::configFromFlags(Args));
  ExecutionSession Session(Spec);
  RunOptions Options;
  Options.Curves = &Curves;
  Options.Objective = Metric::edp();

  std::printf("%8s %14s %14s\n", "chunk", "mean EAS eff", "min EAS eff");
  for (double Chunk : {64.0, 256.0, 1024.0, 2048.0, 8192.0, 32768.0}) {
    Options.Eas.GpuProfileSize = Chunk;
    RunningStats Eff;
    for (const Workload &W : Suite) {
      Options.Trace = &W.Trace;
      SessionReport Oracle = Session.run(SchemeKind::Oracle, Options);
      SessionReport Eas = Session.run(SchemeKind::Eas, Options);
      Eff.add(Oracle.MetricValue / Eas.MetricValue);
    }
    std::printf("%8.0f %13.1f%% %13.1f%%%s\n", Chunk, 100 * Eff.mean(),
                100 * Eff.min(),
                Chunk == 2048.0 ? "   <- platform default" : "");
  }
  return 0;
}
