//===-- bench/fig03_micro_traces.cpp - Reproduce Fig. 3 -------------------===//
//
// Part of the ecas project, under the MIT License.
//
// Fig. 3: power over time on the desktop for two long-running micro-
// benchmarks, compute-bound (left) and memory-bound (right), each with a
// concurrent CPU+GPU phase. The paper measures ~55 W for the compute-
// bound co-run and ~63 W for the memory-bound co-run.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "ecas/hw/Presets.h"
#include "ecas/power/MicroBenchmarks.h"
#include "ecas/sim/SimProcessor.h"
#include "ecas/support/Format.h"
#include "ecas/support/Stats.h"

#include <cstdio>

using namespace ecas;

static void runMicroTrace(const PlatformSpec &Spec, const KernelDesc &Kernel,
                          const char *Label, double PaperCoRunWatts) {
  DeviceRates Rates = probeDeviceRates(Spec, Kernel);
  // Both devices run ~1 s concurrently; the slower one then finishes.
  double CoRunSeconds = 1.0;
  SimProcessor Proc(Spec);
  Proc.enableTrace(0.05);
  Proc.cpu().enqueue(Kernel, 1.5 * CoRunSeconds * Rates.CpuItersPerSec);
  Proc.gpu().enqueue(Kernel, CoRunSeconds * Rates.GpuItersPerSec);
  Proc.runUntilIdle();
  Proc.trace()->finish();

  RunningStats CoRun;
  double MaxWatts = 0;
  for (const TraceSample &Sample : Proc.trace()->samples()) {
    MaxWatts = std::max(MaxWatts, Sample.PackageWatts);
    if (Sample.GpuWatts > 5.0 * Spec.GpuPower.LeakageWatts &&
        Sample.TimeSec > 0.1)
      CoRun.add(Sample.PackageWatts);
  }

  std::printf("\n--- %s micro-benchmark ---\n", Label);
  std::printf("%8s %9s  %s\n", "time", "pkg W", "package power");
  for (const TraceSample &Sample : Proc.trace()->samples())
    std::printf("%8s %9.2f  |%s|\n",
                formatDuration(Sample.TimeSec).c_str(),
                Sample.PackageWatts,
                bench::bar(Sample.PackageWatts, MaxWatts, 40).c_str());
  std::printf("steady co-run package power: %.1f W (paper: ~%.0f W)\n",
              CoRun.mean(), PaperCoRunWatts);
}

int main(int Argc, char **Argv) {
  Flags Args(Argc, Argv);
  if (Args.rejectUnknown({}, "usage: fig03_micro_traces"))
    return 2;
  bench::printBanner(
      "Figure 3: power traces of long-running compute- and memory-bound "
      "micro-benchmarks (desktop)",
      "compute-bound co-run ~55 W; memory-bound co-run ~63 W");
  PlatformSpec Spec = haswellDesktop();
  runMicroTrace(Spec, computeBoundMicroKernel(), "compute-bound", 55);
  runMicroTrace(Spec, memoryBoundMicroKernel(), "memory-bound", 63);
  return 0;
}
