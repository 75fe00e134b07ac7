//===-- bench/fig01_cc_sweep.cpp - Reproduce Fig. 1 -----------------------===//
//
// Part of the ecas project, under the MIT License.
//
// Fig. 1: energy use and runtime of Connected Components on the desktop
// while the GPU offload percentage sweeps 0..100. The paper observes
// minimum energy at ~90% offload and best performance at ~60%.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "ecas/hw/Presets.h"
#include "ecas/support/Csv.h"
#include "ecas/support/Format.h"
#include "ecas/workloads/GraphWorkloads.h"

#include <algorithm>
#include <cstdio>

using namespace ecas;

int main(int Argc, char **Argv) {
  Flags Args(Argc, Argv);
  if (Args.rejectUnknown({"scale", "seed", "step", "csv"},
                         "usage: fig01_cc_sweep [--scale=X] [--seed=N] "
                         "[--step=X] [--csv=PATH]"))
    return 2;
  bench::printBanner(
      "Figure 1: CC energy & runtime vs GPU offload percent (desktop)",
      "minimum energy near 90% GPU offload; best performance near 60%");

  PlatformSpec Spec = haswellDesktop();
  Workload Cc = makeCcWorkload(bench::configFromFlags(Args));
  ExecutionSession Session(Spec);
  double Step = bench::numberFlag(Args, "step", 0.1, 1e-6, 1.0);

  struct Point {
    double Alpha, Seconds, Joules;
  };
  std::vector<Point> Points;
  RunOptions Options;
  Options.Trace = &Cc.Trace;
  Options.Objective = Metric::energy();
  for (double Alpha = 0.0; Alpha <= 1.0 + 1e-9; Alpha += Step) {
    Options.Alpha = std::min(Alpha, 1.0);
    SessionReport R = Session.run(SchemeKind::FixedAlpha, Options);
    Points.push_back({Options.Alpha, R.Seconds, R.Joules});
  }

  double MaxSeconds = 0, MaxJoules = 0;
  double BestPerfAlpha = 0, BestPerfSeconds = 1e30;
  double BestEnergyAlpha = 0, BestEnergyJoules = 1e30;
  for (const Point &P : Points) {
    MaxSeconds = std::max(MaxSeconds, P.Seconds);
    MaxJoules = std::max(MaxJoules, P.Joules);
    if (P.Seconds < BestPerfSeconds) {
      BestPerfSeconds = P.Seconds;
      BestPerfAlpha = P.Alpha;
    }
    if (P.Joules < BestEnergyJoules) {
      BestEnergyJoules = P.Joules;
      BestEnergyAlpha = P.Alpha;
    }
  }

  std::printf("%6s %10s %10s  %s\n", "gpu%", "time", "energy",
              "time bar (#) over energy bar (=)");
  for (const Point &P : Points) {
    std::string EnergyBar = bench::bar(P.Joules, MaxJoules, 30);
    for (char &C : EnergyBar)
      if (C == '#')
        C = '=';
    std::printf("%5.0f%% %10s %10s  |%s|\n", 100 * P.Alpha,
                formatDuration(P.Seconds).c_str(),
                formatEnergy(P.Joules).c_str(),
                bench::bar(P.Seconds, MaxSeconds, 30).c_str());
    std::printf("%30s|%s|\n", "", EnergyBar.c_str());
  }
  std::printf("\nbest performance at %.0f%% GPU offload (paper: 60%%)\n",
              100 * BestPerfAlpha);
  std::printf("minimum energy   at %.0f%% GPU offload (paper: 90%%)\n",
              100 * BestEnergyAlpha);

  std::string Path = Args.getString("csv", "");
  if (!Path.empty()) {
    CsvTable Table;
    Table.setHeader({"gpu_percent", "seconds", "joules"});
    for (const Point &P : Points)
      Table.addNumericRow({100 * P.Alpha, P.Seconds, P.Joules});
    Table.writeFile(Path);
  }
  return 0;
}
