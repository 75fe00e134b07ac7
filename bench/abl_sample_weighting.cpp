//===-- bench/abl_sample_weighting.cpp - Profiling-strategy ablation ------===//
//
// Part of the ecas project, under the MIT License.
//
// Fig. 7 step 13 repeats profiling for half of the iterations ([12]'s
// size-based strategy) and step 26 accumulates alpha with sample
// weighting. This ablation varies the profiled fraction, showing the
// accuracy/overhead trade: tiny fractions mis-estimate irregular
// kernels, huge fractions burn time in chunked GPU launches.
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
                         "usage: abl_sample_weighting [--scale=X] "
                         "[--seed=N]"))
    return 2;
  bench::printBanner(
      "Ablation: profiled fraction of first-seen invocations (desktop, "
      "EDP)",
      "paper profiles half the iterations — the size-based strategy of "
      "[12]");

  PlatformSpec Spec = haswellDesktop();
  PowerCurveSet Curves = Characterizer(Spec).characterize();
  std::vector<Workload> Suite = desktopSuite(bench::configFromFlags(Args));
  ExecutionSession Session(Spec);
  RunOptions Options;
  Options.Curves = &Curves;
  Options.Objective = Metric::edp();

  std::printf("%10s %14s %14s\n", "fraction", "mean EAS eff",
              "min EAS eff");
  for (double Fraction : {0.02, 0.1, 0.25, 0.5, 0.75, 0.95}) {
    Options.Eas.ProfileFraction = Fraction;
    RunningStats Eff;
    for (const Workload &W : Suite) {
      Options.Trace = &W.Trace;
      SessionReport Oracle = Session.run(SchemeKind::Oracle, Options);
      SessionReport Eas = Session.run(SchemeKind::Eas, Options);
      Eff.add(Oracle.MetricValue / Eas.MetricValue);
    }
    std::printf("%10.2f %13.1f%% %13.1f%%%s\n", Fraction, 100 * Eff.mean(),
                100 * Eff.min(),
                Fraction == 0.5 ? "   <- paper's strategy" : "");
  }
  return 0;
}
