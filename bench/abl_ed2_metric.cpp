//===-- bench/abl_ed2_metric.cpp - ED^2 metric extension ------------------===//
//
// Part of the ecas project, under the MIT License.
//
// Section 1 introduces ED^2 = E*T^2 for deadline-sensitive deployments
// but the evaluation covers E and EDP only. This extension runs all
// three metrics through the full comparison, showing the optimal alpha
// drifting toward the performance point as the time exponent grows.
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
                         "usage: abl_ed2_metric [--scale=X] [--seed=N]"))
    return 2;
  bench::printBanner(
      "Extension: optimizing ED^2 in addition to E and EDP (desktop)",
      "the paper defines ED^2 but does not evaluate it; the optimal "
      "offload drifts toward alpha_PERF as the time exponent grows");

  PlatformSpec Spec = haswellDesktop();
  PowerCurveSet Curves = Characterizer(Spec).characterize();
  std::vector<Workload> Suite = desktopSuite(bench::configFromFlags(Args));
  ExecutionSession Session(Spec);

  for (const Metric &Objective :
       {Metric::energy(), Metric::edp(), Metric::ed2p()}) {
    RunOptions Options;
    Options.Curves = &Curves;
    Options.Objective = Objective;
    RunningStats Eff, OracleAlpha;
    for (const Workload &W : Suite) {
      Options.Trace = &W.Trace;
      SessionReport Oracle = Session.run(SchemeKind::Oracle, Options);
      SessionReport Eas = Session.run(SchemeKind::Eas, Options);
      Eff.add(Oracle.MetricValue / Eas.MetricValue);
      OracleAlpha.add(Oracle.MeanAlpha);
    }
    std::printf("%-8s mean EAS eff %5.1f%%  min %5.1f%%  mean oracle "
                "alpha %.2f\n",
                Objective.name().c_str(), 100 * Eff.mean(),
                100 * Eff.min(), OracleAlpha.mean());
  }
  return 0;
}
