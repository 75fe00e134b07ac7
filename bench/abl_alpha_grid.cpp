//===-- bench/abl_alpha_grid.cpp - Alpha-grid-step ablation ---------------===//
//
// Part of the ecas project, under the MIT License.
//
// Section 3.2 evaluates the objective "on a range of values between 0
// and 1 in certain increments (e.g., 0.1 or 0.05)". This sweeps the grid
// step and also tries the golden-section refinement extension.
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
                         "usage: abl_alpha_grid [--scale=X] [--seed=N]"))
    return 2;
  bench::printBanner(
      "Ablation: offload-ratio grid step and refinement (desktop, EDP)",
      "paper uses 0.1 or 0.05 increments; refinement is an extension");

  PlatformSpec Spec = haswellDesktop();
  PowerCurveSet Curves = Characterizer(Spec).characterize();
  std::vector<Workload> Suite = desktopSuite(bench::configFromFlags(Args));
  ExecutionSession Session(Spec);
  Metric Objective = Metric::edp();

  struct Variant {
    const char *Name;
    double Step;
    bool Refine;
  } Variants[] = {{"step 0.25", 0.25, false},
                  {"step 0.10", 0.10, false},
                  {"step 0.05", 0.05, false},
                  {"step 0.02", 0.02, false},
                  {"0.10+golden", 0.10, true}};

  std::printf("%-12s %14s %14s\n", "variant", "mean EAS eff",
              "min EAS eff");
  RunOptions Options;
  Options.Curves = &Curves;
  Options.Objective = Objective;
  Options.Step = 0.05;
  for (const Variant &V : Variants) {
    Options.Eas.AlphaStep = V.Step;
    Options.Eas.RefineAlpha = V.Refine;
    RunningStats Eff;
    for (const Workload &W : Suite) {
      Options.Trace = &W.Trace;
      SessionReport Oracle = Session.run(SchemeKind::Oracle, Options);
      SessionReport Eas = Session.run(SchemeKind::Eas, Options);
      Eff.add(Oracle.MetricValue / Eas.MetricValue);
    }
    std::printf("%-12s %13.1f%% %13.1f%%\n", V.Name, 100 * Eff.mean(),
                100 * Eff.min());
  }
  return 0;
}
