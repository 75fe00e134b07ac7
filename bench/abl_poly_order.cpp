//===-- bench/abl_poly_order.cpp - Polynomial-order ablation --------------===//
//
// Part of the ecas project, under the MIT License.
//
// Section 2: "We found empirically that a sixth-order polynomial was a
// good fit." This ablation fits every category at orders 2..8 and
// reports fit quality plus the end-to-end EAS EDP efficiency when the
// scheduler uses curves of each order.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "ecas/hw/Presets.h"
#include "ecas/math/PolyFit.h"
#include "ecas/support/Stats.h"

#include <cstdio>

using namespace ecas;

int main(int Argc, char **Argv) {
  Flags Args(Argc, Argv);
  if (Args.rejectUnknown({"scale", "seed"},
                         "usage: abl_poly_order [--scale=X] [--seed=N]"))
    return 2;
  bench::printBanner(
      "Ablation: power-curve polynomial order (desktop)",
      "the paper found sixth-order a good fit; this sweeps orders 2..8");

  PlatformSpec Spec = haswellDesktop();
  WorkloadConfig Config = bench::configFromFlags(Args);
  std::vector<Workload> Suite = desktopSuite(Config);
  ExecutionSession Session(Spec);
  RunOptions Options;
  Options.Objective = Metric::edp();

  std::printf("%6s %12s %12s %14s\n", "order", "mean r^2", "min r^2",
              "EAS EDP eff");
  for (unsigned Degree = 2; Degree <= 8; ++Degree) {
    CharacterizerConfig ProbeConfig;
    ProbeConfig.PolyDegree = Degree;
    // Orders above 6 need a finer sweep to stay overdetermined with
    // margin; the paper's 0.1 grid gives 11 points.
    if (Degree > 6)
      ProbeConfig.AlphaStep = 0.05;
    Characterizer Probe(Spec, ProbeConfig);
    PowerCurveSet Curves = Probe.characterize();

    RunningStats R2;
    for (unsigned Index = 0; Index != WorkloadClass::NumClasses; ++Index)
      R2.add(Curves.curveFor(WorkloadClass::fromIndex(Index)).RSquared);

    Options.Curves = &Curves;
    std::vector<double> Effs;
    for (const Workload &W : Suite) {
      Options.Trace = &W.Trace;
      SessionReport Oracle = Session.run(SchemeKind::Oracle, Options);
      SessionReport Eas = Session.run(SchemeKind::Eas, Options);
      Effs.push_back(Oracle.MetricValue / Eas.MetricValue);
    }
    std::printf("%6u %12.4f %12.4f %13.1f%%\n", Degree, R2.mean(), R2.min(),
                100 * arithmeticMean(Effs));
  }
  return 0;
}
