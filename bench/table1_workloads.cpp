//===-- bench/table1_workloads.cpp - Reproduce Table 1 --------------------===//
//
// Part of the ecas project, under the MIT License.
//
// Table 1: per-workload statistics — invocation counts, regular vs
// irregular, and the online classification (compute/memory, CPU
// short/long, GPU short/long). The classification column is *measured*
// by running the EAS profiler on the simulated desktop, then compared
// against the paper's Table 1 entry.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "ecas/core/EasScheduler.h"
#include "ecas/hw/Presets.h"
#include "ecas/support/Format.h"

#include <cstdio>

using namespace ecas;

/// Runs EAS over the trace until the kernel gets classified; returns the
/// last profiled classification.
static bool classifyByProfiling(const PlatformSpec &Spec,
                                const PowerCurveSet &Curves,
                                const Workload &W, WorkloadClass &Out) {
  SimProcessor Proc(Spec);
  EasScheduler Scheduler(PowerCurveFamily::fromSingle(Curves), Metric::edp());
  bool Classified = false;
  for (const KernelInvocation &Invocation : W.Trace) {
    auto Outcome =
        Scheduler.execute(Proc, Invocation.Kernel, Invocation.Iterations);
    if (Outcome.Profiled) {
      Out = Outcome.Class;
      Classified = true;
    }
  }
  return Classified;
}

int main(int Argc, char **Argv) {
  Flags Args(Argc, Argv);
  if (Args.rejectUnknown({"scale", "seed"},
                         "usage: table1_workloads [--scale=X] [--seed=N]"))
    return 2;
  bench::printBanner(
      "Table 1: workload statistics and online classification (desktop)",
      "7 irregular + 5 regular workloads; classifications per Table 1's "
      "C/M and S/L columns");

  PlatformSpec Spec = haswellDesktop();
  PowerCurveSet Curves = Characterizer(Spec).characterize();
  std::vector<Workload> Suite = desktopSuite(bench::configFromFlags(Args));

  std::printf("%-5s %-22s %6s %12s %5s %9s %9s %6s\n", "abbr", "name",
              "invoc", "iterations", "reg", "expected", "measured",
              "match");
  unsigned Matches = 0, Classified = 0;
  for (const Workload &W : Suite) {
    WorkloadClass Expected;
    Expected.Bound = W.ExpectedBound;
    Expected.CpuDuration = W.ExpectedCpu;
    Expected.GpuDuration = W.ExpectedGpu;
    WorkloadClass Measured;
    bool Got = classifyByProfiling(Spec, Curves, W, Measured);
    bool Match = Got && Measured == Expected;
    if (Got)
      ++Classified;
    if (Match)
      ++Matches;
    std::printf("%-5s %-22s %6u %12.0f %5s %9s %9s %6s\n",
                W.Abbrev.c_str(), W.Name.c_str(), W.numInvocations(),
                W.totalIterations(), W.Regular ? "R" : "IR",
                Expected.shortName().c_str(),
                Got ? Measured.shortName().c_str() : "(cpu)",
                Got ? (Match ? "yes" : "NO") : "-");
  }
  std::printf("\n%u of %u profiled classifications match Table 1\n",
              Matches, Classified);
  std::printf("(paper invocation counts: BFS 1748, CC 2147, SP 2577 on "
              "W-USA; graph traces here derive from the synthetic road "
              "network, so counts scale with --scale)\n");
  return 0;
}
