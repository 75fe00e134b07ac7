//===-- bench/fig05_desktop_curves.cpp - Reproduce Fig. 5 -----------------===//
//
// Part of the ecas project, under the MIT License.
//
// Fig. 5: the eight desktop power characterization curves, each with its
// fitted sixth-order polynomial equation. Short-CPU categories trend
// convex (power falls as offload rises), long-CPU categories concave.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "ecas/hw/Presets.h"
#include "ecas/support/Csv.h"
#include "ecas/support/Format.h"

#include <cstdio>

using namespace ecas;

namespace {

void printCurves(const PlatformSpec &Spec, const Flags &Args) {
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
      std::printf("%5.0f%% %9.2fW %9.2fW  |%s|\n", 100 * Point.Alpha,
                  Point.AvgPackageWatts, Fitted,
                  bench::bar(Point.AvgPackageWatts, MaxWatts, 36).c_str());
      Table.addRow({Class.name(), formatString("%.2f", Point.Alpha),
                    formatString("%.3f", Point.AvgPackageWatts),
                    formatString("%.3f", Fitted)});
    }
  }

  std::string Path = Args.getString("csv", "");
  if (!Path.empty())
    Table.writeFile(Path);
}

} // namespace

int main(int Argc, char **Argv) {
  Flags Args(Argc, Argv);
  if (Args.rejectUnknown({"step", "degree", "csv"},
                         "usage: fig05_desktop_curves [--step=X] "
                         "[--degree=N] [--csv=PATH]"))
    return 2;
  bench::printBanner(
      "Figure 5: desktop power characterization, eight categories with "
      "sixth-order fits",
      "CPU-alone compute ~45 W, GPU-alone ~30 W; memory-bound curves run "
      "hotter; short-CPU categories convex");
  printCurves(haswellDesktop(), Args);
  return 0;
}
