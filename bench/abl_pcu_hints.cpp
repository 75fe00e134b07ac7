//===-- bench/abl_pcu_hints.cpp - Runtime->PCU feedback extension ---------===//
//
// Part of the ecas project, under the MIT License.
//
// Section 7's future work: "we would like to incorporate feedback from
// our user-level runtime in power management techniques". This
// extension lets EAS announce the split it is about to execute so the
// governor jumps straight to the steady-state operating point instead of
// discovering it through conservative wake resets and slow ramps.
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
                         "usage: abl_pcu_hints [--scale=X] [--seed=N]"))
    return 2;
  bench::printBanner(
      "Extension: runtime->PCU feedback hints (desktop, per metric)",
      "the paper's future work — hinting the upcoming split removes "
      "wake-reset and ramp losses");

  PlatformSpec Spec = haswellDesktop();
  PowerCurveSet Curves = Characterizer(Spec).characterize();
  std::vector<Workload> Suite = desktopSuite(bench::configFromFlags(Args));
  ExecutionSession Session(Spec);

  for (const Metric &Objective : {Metric::edp(), Metric::energy()}) {
    std::printf("\n--- objective: %s ---\n", Objective.name().c_str());
    std::printf("%-5s %14s %14s %10s\n", "bench", "EAS", "EAS+hints",
                "delta");
    RunOptions Options;
    Options.Curves = &Curves;
    Options.Objective = Objective;
    RunningStats Base, Hinted;
    for (const Workload &W : Suite) {
      Options.Trace = &W.Trace;
      Options.Eas.PcuHints = false;
      SessionReport Oracle = Session.run(SchemeKind::Oracle, Options);
      SessionReport Plain = Session.run(SchemeKind::Eas, Options);
      Options.Eas.PcuHints = true;
      SessionReport WithHints = Session.run(SchemeKind::Eas, Options);
      double EffPlain = Oracle.MetricValue / Plain.MetricValue;
      double EffHints = Oracle.MetricValue / WithHints.MetricValue;
      Base.add(EffPlain);
      Hinted.add(EffHints);
      std::printf("%-5s %13.1f%% %13.1f%% %+9.1f%%\n", W.Abbrev.c_str(),
                  100 * EffPlain, 100 * EffHints,
                  100 * (EffHints - EffPlain));
    }
    std::printf("%-5s %13.1f%% %13.1f%% %+9.1f%%\n", "AVG",
                100 * Base.mean(), 100 * Hinted.mean(),
                100 * (Hinted.mean() - Base.mean()));
  }
  return 0;
}
