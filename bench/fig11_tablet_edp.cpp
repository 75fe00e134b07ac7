//===-- bench/fig11_tablet_edp.cpp - Reproduce Fig. 11 --------------------===//
//
// Part of the ecas project, under the MIT License.
//
// Fig. 11: relative EDP efficiency versus the Oracle on the Bay Trail
// tablet (the seven workloads that build on the 32-bit target). The
// paper reports EAS at 93.2% — 4.4% better than PERF, 19.6% better than
// GPU-alone, 85.9% better than CPU-alone.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "ecas/hw/Presets.h"

using namespace ecas;

int main(int Argc, char **Argv) {
  Flags Args(Argc, Argv);
  if (Args.rejectUnknown({"scale", "seed", "csv"},
                         "usage: fig11_tablet_edp [--scale=X] [--seed=N] "
                         "[--csv=PATH]"))
    return 2;
  bench::printBanner(
      "Figure 11: relative EDP efficiency vs Oracle (Bay Trail tablet)",
      "EAS 93.2% of Oracle; better than PERF/GPU/CPU by 4.4%/19.6%/85.9%");

  PlatformSpec Spec = bayTrailTablet();
  PowerCurveSet Curves = Characterizer(Spec).characterize();
  std::vector<Workload> Suite = tabletSuite(bench::configFromFlags(Args));
  std::vector<bench::SchemeRow> Rows =
      bench::runComparison(Spec, Suite, Curves, Metric::edp());
  bench::printComparison(Rows);
  bench::maybeWriteCsv(Args, Rows);
  return 0;
}
