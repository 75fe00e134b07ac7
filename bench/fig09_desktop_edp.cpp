//===-- bench/fig09_desktop_edp.cpp - Reproduce Fig. 9 --------------------===//
//
// Part of the ecas project, under the MIT License.
//
// Fig. 9: relative energy-delay-product efficiency versus the Oracle on
// the desktop for CPU-alone, GPU-alone, PERF, and EAS. The paper reports
// averages of GPU 79.6%, PERF 83.9%, EAS 96.2%.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "ecas/hw/Presets.h"

using namespace ecas;

int main(int Argc, char **Argv) {
  Flags Args(Argc, Argv);
  if (Args.rejectUnknown({"scale", "seed", "csv"},
                         "usage: fig09_desktop_edp [--scale=X] [--seed=N] "
                         "[--csv=PATH]"))
    return 2;
  bench::printBanner(
      "Figure 9: relative EDP efficiency vs Oracle (desktop, higher is "
      "better)",
      "averages — GPU 79.6%, PERF 83.9%, EAS 96.2% of Oracle");

  PlatformSpec Spec = haswellDesktop();
  PowerCurveSet Curves = Characterizer(Spec).characterize();
  std::vector<Workload> Suite = desktopSuite(bench::configFromFlags(Args));
  std::vector<bench::SchemeRow> Rows =
      bench::runComparison(Spec, Suite, Curves, Metric::edp());
  bench::printComparison(Rows);
  bench::maybeWriteCsv(Args, Rows);
  return 0;
}
