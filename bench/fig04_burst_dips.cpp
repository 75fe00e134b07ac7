//===-- bench/fig04_burst_dips.cpp - Reproduce Fig. 4 ---------------------===//
//
// Part of the ecas project, under the MIT License.
//
// Fig. 4: a memory-bound micro-benchmark executed ten times with 5% of
// the work on the GPU. Each short GPU burst pulls the package from
// ~60 W to well below 40 W while the PCU conservatively rebudgets the
// CPU, then power ramps back.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "ecas/hw/Presets.h"
#include "ecas/power/MicroBenchmarks.h"
#include "ecas/sim/SimProcessor.h"
#include "ecas/support/Format.h"

#include <cstdio>

using namespace ecas;

int main(int Argc, char **Argv) {
  Flags Args(Argc, Argv);
  if (Args.rejectUnknown({"executions"},
                         "usage: fig04_burst_dips [--executions=N]"))
    return 2;
  bench::printBanner(
      "Figure 4: memory-bound micro executed 10x with a 5% GPU share "
      "(desktop)",
      "package drops from ~60 W to <~40 W during each GPU burst");

  PlatformSpec Spec = haswellDesktop();
  KernelDesc Kernel = memoryBoundMicroKernel();
  DeviceRates Rates = probeDeviceRates(Spec, Kernel);

  auto Executions = static_cast<unsigned>(
      bench::numberFlag<long long>(Args, "executions", 10, 1, 1000000));
  // Each execution: ~2 s of CPU work with 5% of iterations on the GPU.
  double PerExecution = 2.0 * Rates.CpuItersPerSec;

  SimProcessor Proc(Spec);
  Proc.enableTrace(0.1);
  for (unsigned Exec = 0; Exec != Executions; ++Exec) {
    Proc.gpu().enqueue(Kernel, 0.05 * PerExecution);
    Proc.cpu().enqueue(Kernel, 0.95 * PerExecution);
    Proc.runUntilIdle();
    Proc.runFor(0.2); // Idle gap between executions.
  }
  Proc.trace()->finish();

  double MaxWatts = 0, MinBusyWatts = 1e30;
  for (const TraceSample &Sample : Proc.trace()->samples()) {
    MaxWatts = std::max(MaxWatts, Sample.PackageWatts);
    if (Sample.PackageWatts > 15.0) // Skip idle-gap samples.
      MinBusyWatts = std::min(MinBusyWatts, Sample.PackageWatts);
  }

  std::printf("%8s %9s  %s\n", "time", "pkg W", "package power");
  for (const TraceSample &Sample : Proc.trace()->samples())
    std::printf("%8s %9.2f  |%s|%s\n",
                formatDuration(Sample.TimeSec).c_str(),
                Sample.PackageWatts,
                bench::bar(Sample.PackageWatts, MaxWatts, 40).c_str(),
                Sample.GpuWatts > 3.0 ? "  <- GPU active" : "");
  std::printf("\npeak package power: %.1f W (paper: ~60 W)\n", MaxWatts);
  std::printf("deepest busy-phase dip: %.1f W (paper: <~40 W)\n",
              MinBusyWatts);
  return 0;
}
