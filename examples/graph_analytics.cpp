//===-- examples/graph_analytics.cpp - Irregular graph workloads ----------===//
//
// Part of the ecas project, under the MIT License.
//
// The paper's motivating domain: irregular graph analytics on a road
// network. This example runs the *real* algorithms (BFS, connected
// components, shortest paths) on a generated road graph, shows the
// frontier dynamics that make them hard to schedule, and then compares
// scheduling schemes on the resulting invocation traces — including the
// Fig. 1 crossover, where best-performance and minimum-energy splits
// disagree.
//
//===----------------------------------------------------------------------===//

#include "ecas/core/ExecutionSession.h"
#include "ecas/hw/Presets.h"
#include "ecas/power/Characterizer.h"
#include "ecas/support/Flags.h"
#include "ecas/support/Format.h"
#include "ecas/workloads/GraphWorkloads.h"

#include <algorithm>
#include <cstdio>

using namespace ecas;

int main(int Argc, char **Argv) {
  Flags Args(Argc, Argv);
  if (Args.rejectUnknown({"scale"}, "usage: graph_analytics [--scale=X]"))
    return 2;
  WorkloadConfig Config;
  ErrorOr<double> Scale = Args.getNumber("scale", 0.2);
  if (!Scale || !WorkloadConfig::validScale(*Scale)) {
    std::fprintf(stderr, "error: --scale wants a number in (0, %g]\n",
                 WorkloadConfig::MaxScale);
    return 2;
  }
  Config.Scale = *Scale;

  // Real algorithms on a real (synthetic) road network.
  uint32_t Width, Height;
  graphDimensions(Config, Width, Height);
  RoadGraph Graph = makeRoadGraph(Width, Height, Config.Seed);
  std::printf("road network: %ux%u grid, %u nodes, %zu directed edges\n",
              Width, Height, Graph.numNodes(), Graph.numEdges());

  GraphAlgoResult Bfs = runBfsLevels(Graph, 0);
  GraphAlgoResult Cc = runConnectedComponents(Graph);
  GraphAlgoResult Sssp = runShortestPaths(Graph, 0);
  auto PeakOf = [](const std::vector<double> &Rounds) {
    return *std::max_element(Rounds.begin(), Rounds.end());
  };
  std::printf("BFS : %5zu levels, peak frontier %6.0f, checksum %llu\n",
              Bfs.RoundSizes.size(), PeakOf(Bfs.RoundSizes),
              static_cast<unsigned long long>(Bfs.Checksum));
  std::printf("CC  : %5zu rounds, %llu components\n", Cc.RoundSizes.size(),
              static_cast<unsigned long long>(Cc.Checksum >> 32));
  std::printf("SSSP: %5zu rounds, distance checksum %llu\n\n",
              Sssp.RoundSizes.size(),
              static_cast<unsigned long long>(Sssp.Checksum));

  // Schedule the derived traces on the simulated desktop.
  PlatformSpec Spec = haswellDesktop();
  PowerCurveSet Curves = Characterizer(Spec).characterize();
  ExecutionSession Session(Spec);
  RunOptions Options;
  Options.Curves = &Curves;
  Options.Objective = Metric::edp();

  for (const Workload &W : {makeBfsWorkload(Config), makeCcWorkload(Config),
                            makeSsspWorkload(Config)}) {
    Options.Trace = &W.Trace;
    SessionReport Oracle = Session.run(SchemeKind::Oracle, Options);
    SessionReport Eas = Session.run(SchemeKind::Eas, Options);
    SessionReport Gpu = Session.run(SchemeKind::GpuOnly, Options);
    std::printf("%-4s EDP: oracle %-9s (alpha %.1f) | EAS %5.1f%% of "
                "oracle (alpha %.2f) | GPU-alone %5.1f%%\n",
                W.Abbrev.c_str(),
                formatString("%.3g", Oracle.MetricValue).c_str(),
                Oracle.MeanAlpha,
                100 * Oracle.MetricValue / Eas.MetricValue, Eas.MeanAlpha,
                100 * Oracle.MetricValue / Gpu.MetricValue);
  }

  // The Fig. 1 crossover on CC: best time vs minimum energy.
  Workload Cc2 = makeCcWorkload(Config);
  Options.Trace = &Cc2.Trace;
  Options.Objective = Metric::energy();
  double BestPerfAlpha = 0, BestPerfSeconds = 1e30;
  double BestEnergyAlpha = 0, BestEnergyJoules = 1e30;
  for (double Alpha = 0.0; Alpha <= 1.0 + 1e-9; Alpha += 0.1) {
    Options.Alpha = std::min(Alpha, 1.0);
    SessionReport R = Session.run(SchemeKind::FixedAlpha, Options);
    if (R.Seconds < BestPerfSeconds) {
      BestPerfSeconds = R.Seconds;
      BestPerfAlpha = Options.Alpha;
    }
    if (R.Joules < BestEnergyJoules) {
      BestEnergyJoules = R.Joules;
      BestEnergyAlpha = Options.Alpha;
    }
  }
  std::printf("\nCC crossover: best performance at %.0f%% GPU offload, "
              "minimum energy at %.0f%% — \"the lowest energy use or best "
              "performance may require both the CPU and GPU\"\n",
              100 * BestPerfAlpha, 100 * BestEnergyAlpha);
  return 0;
}
