//===-- examples/quickstart.cpp - Five-minute tour -------------------------===//
//
// Part of the ecas project, under the MIT License.
//
// The minimal end-to-end flow:
//   1. pick a platform (the paper's Haswell desktop),
//   2. characterize its power behaviour once (eight micro-benchmark
//      sweeps fitted with sixth-order polynomials),
//   3. hand the curves to the energy-aware scheduler and run a workload,
//   4. compare against CPU-alone, GPU-alone, and the exhaustive Oracle.
//
//===----------------------------------------------------------------------===//

#include "ecas/core/ExecutionSession.h"
#include "ecas/hw/Presets.h"
#include "ecas/power/Characterizer.h"
#include "ecas/support/Format.h"
#include "ecas/workloads/Registry.h"

#include <cstdio>

using namespace ecas;

int main() {
  // 1. The platform. Presets reproduce the paper's two machines; custom
  //    SKUs are plain structs (see examples/characterize_platform.cpp).
  PlatformSpec Spec = haswellDesktop();
  std::printf("platform: %s (%u CPU cores, %u GPU EUs, %u-way GPU "
              "parallelism)\n",
              Spec.Name.c_str(), Spec.Cpu.Cores, Spec.Gpu.ExecutionUnits,
              Spec.gpuHardwareParallelism());

  // 2. One-time power characterization (cache the result with
  //    PowerCurveSet::serialize() in a real deployment).
  Characterizer Probe(Spec);
  PowerCurveSet Curves = Probe.characterize();
  std::printf("characterized %s: 8 categories fitted\n",
              Curves.platformName().c_str());

  // 3. A workload: Black-Scholes, 2000 launches of 64K options.
  WorkloadConfig Config;
  Workload Bs = *findWorkload(desktopSuite(Config), "BS");
  std::printf("workload: %s, %u invocations, %.0f total iterations\n\n",
              Bs.Name.c_str(), Bs.numInvocations(), Bs.totalIterations());

  // 4. Run it under every scheme through the unified run() API: one
  //    RunOptions bundle, one SchemeKind per comparison scheme.
  ExecutionSession Session(Spec);
  RunOptions Options;
  Options.Trace = &Bs.Trace;
  Options.Curves = &Curves;
  Options.Objective = Metric::edp();
  SessionReport Oracle = Session.run(SchemeKind::Oracle, Options);
  for (const SessionReport &R :
       {Session.run(SchemeKind::CpuOnly, Options),
        Session.run(SchemeKind::GpuOnly, Options),
        Session.run(SchemeKind::Perf, Options),
        Session.run(SchemeKind::Eas, Options), Oracle}) {
    std::printf("%-7s time %-10s energy %-10s avg %5.1f W  EDP %.4g  "
                "(%.1f%% of oracle, mean alpha %.2f)\n",
                schemeKindName(R.Kind), formatDuration(R.Seconds).c_str(),
                formatEnergy(R.Joules).c_str(), R.averageWatts(),
                R.MetricValue, 100.0 * Oracle.MetricValue / R.MetricValue,
                R.MeanAlpha);
  }
  return 0;
}
