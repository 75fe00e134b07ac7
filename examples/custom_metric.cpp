//===-- examples/custom_metric.cpp - User-defined objectives --------------===//
//
// Part of the ecas project, under the MIT License.
//
// Section 3.2: the scheduler optimizes "any other metric based on the
// combination of package power and execution time". This example defines
// two custom objectives — a battery-lifetime metric that charges a fixed
// platform overhead per second, and a deadline metric that penalizes
// runs beyond a time budget — and shows how the chosen offload ratio
// shifts with the objective on the tablet.
//
//===----------------------------------------------------------------------===//

#include "ecas/core/ExecutionSession.h"
#include "ecas/hw/Presets.h"
#include "ecas/power/Characterizer.h"
#include "ecas/support/Format.h"
#include "ecas/workloads/Registry.h"

#include <cmath>
#include <cstdio>

using namespace ecas;

int main() {
  PlatformSpec Spec = bayTrailTablet();
  PowerCurveSet Curves = Characterizer(Spec).characterize();
  ExecutionSession Session(Spec);
  Workload Mm = *findWorkload(tabletSuite(WorkloadConfig{}), "MM");

  // Battery view: the display and radios burn ~1.5 W regardless, so a
  // run's true battery cost is (P_package + 1.5 W) * T.
  Metric Battery = Metric::custom(
      "battery", [](double Watts, double Seconds) {
        return (Watts + 1.5) * Seconds;
      });

  // Deadline view: energy matters, but finishing after 400 ms is
  // increasingly unacceptable.
  Metric Deadline = Metric::custom(
      "deadline", [](double Watts, double Seconds) {
        double Energy = Watts * Seconds;
        double Overrun = std::max(0.0, Seconds - 0.4);
        return Energy * (1.0 + 50.0 * Overrun * Overrun);
      });

  std::printf("tablet, Matrix Multiply 1024x1024 — objective determines "
              "the split:\n\n");
  std::printf("%-10s %8s %10s %10s %9s %12s\n", "objective", "alpha",
              "time", "energy", "watts", "EAS vs oracle");
  RunOptions Options;
  Options.Trace = &Mm.Trace;
  Options.Curves = &Curves;
  for (const Metric &Objective :
       {Metric::energy(), Metric::edp(), Battery, Deadline}) {
    Options.Objective = Objective;
    SessionReport Oracle = Session.run(SchemeKind::Oracle, Options);
    SessionReport Eas = Session.run(SchemeKind::Eas, Options);
    std::printf("%-10s %8.2f %10s %10s %8.2fW %11.1f%%\n",
                Objective.name().c_str(), Eas.MeanAlpha,
                formatDuration(Eas.Seconds).c_str(),
                formatEnergy(Eas.Joules).c_str(), Eas.averageWatts(),
                100.0 * Oracle.MetricValue / Eas.MetricValue);
  }
  std::printf("\nthe scheduler code never changed — only the f(P, T) "
              "objective did\n");
  return 0;
}
