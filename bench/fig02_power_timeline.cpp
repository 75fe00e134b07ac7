//===-- bench/fig02_power_timeline.cpp - Reproduce Fig. 2 -----------------===//
//
// Part of the ecas project, under the MIT License.
//
// Fig. 2: package and CPU power over time for a memory-bound application
// with a 90-10% GPU-CPU distribution, on the Bay Trail tablet and the
// Haswell desktop. On the tablet, package power drops during CPU-only
// intervals; on the desktop it *rises* once the GPU finishes and the
// CPU regains full turbo.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "ecas/hw/Presets.h"
#include "ecas/power/MicroBenchmarks.h"
#include "ecas/sim/SimProcessor.h"
#include "ecas/support/Format.h"

#include <cstdio>

using namespace ecas;

static void runTimeline(const PlatformSpec &Spec, double Alpha,
                        const Flags &Args) {
  std::printf("\n--- %s, memory-bound app, %.0f%% GPU / %.0f%% CPU ---\n",
              Spec.Name.c_str(), 100 * Alpha, 100 * (1 - Alpha));

  // Size the run to a couple of seconds of virtual time like the paper's
  // charts: probe device rates, then pick N.
  KernelDesc Kernel = memoryBoundMicroKernel();
  DeviceRates Rates = probeDeviceRates(Spec, Kernel);
  double N = 2.0 * (Rates.CpuItersPerSec + Rates.GpuItersPerSec);

  SimProcessor Proc(Spec);
  double Interval = bench::numberFlag(Args, "interval", 0.05, 1e-6, 1e6);
  Proc.enableTrace(Interval);
  Proc.gpu().enqueue(Kernel, Alpha * N);
  Proc.cpu().enqueue(Kernel, (1 - Alpha) * N);
  Proc.runUntilIdle();
  Proc.trace()->finish();

  double MaxWatts = 0;
  for (const TraceSample &Sample : Proc.trace()->samples())
    MaxWatts = std::max(MaxWatts, Sample.PackageWatts);

  std::printf("%8s %9s %9s  %s\n", "time", "pkg W", "cpu W",
              "package power");
  for (const TraceSample &Sample : Proc.trace()->samples())
    std::printf("%8s %9.2f %9.2f  |%s|\n",
                formatDuration(Sample.TimeSec).c_str(),
                Sample.PackageWatts, Sample.CpuWatts,
                bench::bar(Sample.PackageWatts, MaxWatts, 40).c_str());

  std::string Path = Args.getString(
      Spec.Pcu.GpuPriority ? "csv-desktop" : "csv-tablet", "");
  if (!Path.empty()) {
    std::FILE *File = std::fopen(Path.c_str(), "w");
    if (File) {
      std::string Csv = Proc.trace()->toCsv();
      std::fwrite(Csv.data(), 1, Csv.size(), File);
      std::fclose(File);
    }
  }
}

int main(int Argc, char **Argv) {
  Flags Args(Argc, Argv);
  if (Args.rejectUnknown({"interval", "csv-desktop", "csv-tablet"},
                         "usage: fig02_power_timeline [--interval=SEC] "
                         "[--csv-desktop=PATH] [--csv-tablet=PATH]"))
    return 2;
  bench::printBanner(
      "Figure 2: package & CPU power over time, memory-bound app at "
      "90-10% GPU-CPU split",
      "tablet: power drops when only the CPU runs; desktop: power rises "
      "during the CPU-only tail");
  runTimeline(bayTrailTablet(), 0.9, Args);
  runTimeline(haswellDesktop(), 0.9, Args);
  return 0;
}
