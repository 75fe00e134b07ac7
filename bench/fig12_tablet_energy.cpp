//===-- bench/fig12_tablet_energy.cpp - Reproduce Fig. 12 -----------------===//
//
// Part of the ecas project, under the MIT License.
//
// Fig. 12: relative energy-use efficiency versus the Oracle on the Bay
// Trail tablet. The paper reports EAS at 96.4% — 7.5% better than PERF,
// 10.1% better than GPU-alone, 57.2% better than CPU-alone. Unlike the
// desktop, GPU-alone is *not* near-optimal here (the tablet GPU burns
// more power than its CPU).
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "ecas/hw/Presets.h"

using namespace ecas;

int main(int Argc, char **Argv) {
  Flags Args(Argc, Argv);
  if (Args.rejectUnknown({"scale", "seed", "csv"},
                         "usage: fig12_tablet_energy [--scale=X] [--seed=N] "
                         "[--csv=PATH]"))
    return 2;
  bench::printBanner(
      "Figure 12: relative energy-use efficiency vs Oracle (Bay Trail "
      "tablet)",
      "EAS 96.4% of Oracle; better than PERF/GPU/CPU by 7.5%/10.1%/57.2%");

  PlatformSpec Spec = bayTrailTablet();
  PowerCurveSet Curves = Characterizer(Spec).characterize();
  std::vector<Workload> Suite = tabletSuite(bench::configFromFlags(Args));
  std::vector<bench::SchemeRow> Rows =
      bench::runComparison(Spec, Suite, Curves, Metric::energy());
  bench::printComparison(Rows);
  bench::maybeWriteCsv(Args, Rows);
  return 0;
}
