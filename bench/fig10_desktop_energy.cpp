//===-- bench/fig10_desktop_energy.cpp - Reproduce Fig. 10 ----------------===//
//
// Part of the ecas project, under the MIT License.
//
// Fig. 10: relative total-energy efficiency versus the Oracle on the
// desktop. The paper reports averages of GPU 95.8%, PERF 70.4%,
// EAS 97.2% — GPU-alone is nearly optimal because the desktop GPU is
// 2-3x more power-efficient than the CPU.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "ecas/hw/Presets.h"

using namespace ecas;

int main(int Argc, char **Argv) {
  Flags Args(Argc, Argv);
  if (Args.rejectUnknown({"scale", "seed", "csv"},
                         "usage: fig10_desktop_energy [--scale=X] "
                         "[--seed=N] [--csv=PATH]"))
    return 2;
  bench::printBanner(
      "Figure 10: relative energy-use efficiency vs Oracle (desktop, "
      "higher is better)",
      "averages — GPU 95.8%, PERF 70.4%, EAS 97.2% of Oracle");

  PlatformSpec Spec = haswellDesktop();
  PowerCurveSet Curves = Characterizer(Spec).characterize();
  std::vector<Workload> Suite = desktopSuite(bench::configFromFlags(Args));
  std::vector<bench::SchemeRow> Rows =
      bench::runComparison(Spec, Suite, Curves, Metric::energy());
  bench::printComparison(Rows);
  bench::maybeWriteCsv(Args, Rows);
  return 0;
}
