//===-- bench/fig06_tablet_curves.cpp - Reproduce Fig. 6 ------------------===//
//
// Part of the ecas project, under the MIT License.
//
// Fig. 6: the eight Bay Trail tablet characterization curves. On this
// platform the GPU consumes *more* power than the CPU (compute: ~1.5 W
// CPU-alone vs ~2 W GPU-alone) and memory-bound runs are *cooler* than
// compute-bound ones — the inverse of the desktop.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "ecas/hw/Presets.h"
#include "ecas/support/Csv.h"
#include "ecas/support/Format.h"

#include <cstdio>

using namespace ecas;

int main(int Argc, char **Argv) {
  Flags Args(Argc, Argv);
  if (Args.rejectUnknown({"step", "degree", "csv"},
                         "usage: fig06_tablet_curves [--step=X] "
                         "[--degree=N] [--csv=PATH]"))
    return 2;
  bench::printBanner(
      "Figure 6: Bay Trail tablet power characterization, eight "
      "categories with sixth-order fits",
      "compute: ~1.5 W CPU-alone vs ~2 W GPU-alone; memory-bound cooler "
      "than compute-bound; mostly concave curves");

  PlatformSpec Spec = bayTrailTablet();
  CharacterizerConfig Config;
  Config.AlphaStep = bench::numberFlag(Args, "step", 0.1, 1e-6, 1.0);
  Config.PolyDegree = static_cast<unsigned>(
      bench::numberFlag<long long>(Args, "degree", 6, 1, 30));
  Characterizer Probe(Spec, Config);

  CsvTable Table;
  Table.setHeader({"category", "alpha", "measured_w", "fitted_w"});

  for (unsigned Index = 0; Index != WorkloadClass::NumClasses; ++Index) {
    WorkloadClass Class = WorkloadClass::fromIndex(Index);
    std::vector<PowerSamplePoint> Samples;
    PowerCurve Curve = Probe.characterizeCategory(Class, &Samples);

    double MaxWatts = 0;
    for (const PowerSamplePoint &Point : Samples)
      MaxWatts = std::max(MaxWatts, Point.AvgPackageWatts);

    std::printf("\n--- %s (r^2 = %.4f) ---\n", Class.name().c_str(),
                Curve.RSquared);
    std::printf("%s\n", Curve.Poly.toEquationString().c_str());
    std::printf("%6s %10s %10s  %s\n", "gpu%", "measured", "fitted",
                "measured power");
    for (const PowerSamplePoint &Point : Samples) {
      double Fitted = Curve.powerAt(Point.Alpha);
      std::printf("%5.0f%% %9.3fW %9.3fW  |%s|\n", 100 * Point.Alpha,
                  Point.AvgPackageWatts, Fitted,
                  bench::bar(Point.AvgPackageWatts, MaxWatts, 36).c_str());
      Table.addRow({Class.name(), formatString("%.2f", Point.Alpha),
                    formatString("%.4f", Point.AvgPackageWatts),
                    formatString("%.4f", Fitted)});
    }
  }

  std::string Path = Args.getString("csv", "");
  if (!Path.empty())
    Table.writeFile(Path);
  return 0;
}
