//===-- bench/micro_decision.cpp - Decision hot-path latency ---------------===//
//
// Part of the ecas project, under the MIT License.
//
//===----------------------------------------------------------------------===//
//
// Measures the steady-state scheduling decision: the warmed table-G hit
// (lookup, operating-point reuse, partitioned dispatch bookkeeping) and
// the joint (alpha, frequency) search that profiling repetitions pay —
// both run with a 4-state DVFS ladder so the figures cover the joint
// decision core, not just the legacy alpha axis. Links
// support/AllocGuard.cpp so the run also reports allocations per
// decision — the committed BENCH_decision.json at the repo root pins
// allocations_per_decision at 0, the same property HotPathTest asserts
// and tools/ecas_hotpath.py proves statically (DESIGN.md §14).
//
// Usage: micro_decision [output.json]   (default: BENCH_decision.json)
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "ecas/core/EasScheduler.h"
#include "ecas/core/OperatingPoint.h"
#include "ecas/core/TimeModel.h"
#include "ecas/hw/Presets.h"
#include "ecas/power/MicroBenchmarks.h"
#include "ecas/support/AllocGuard.h"

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

using namespace ecas;

namespace {

using Clock = std::chrono::steady_clock;

double nsSince(Clock::time_point Start) {
  return std::chrono::duration<double, std::nano>(Clock::now() - Start)
      .count();
}

} // namespace

int main(int Argc, char **Argv) {
  std::string OutPath = Argc > 1 ? Argv[1] : "BENCH_decision.json";
  bench::printBanner(
      "micro_decision: steady-state decision latency",
      "hot path is allocation-free; decisions are sub-microsecond");

  constexpr unsigned NumPStates = 4;
  PlatformSpec Spec = haswellDesktop();
  Spec.synthesizePStates(NumPStates);
  PowerCurveFamily Curves = characterizeFamily(Spec);
  SimProcessor Proc(Spec);
  EasConfig Config;
  Config.PStates = true;
  EasScheduler Scheduler(Curves, Metric::edp(), Config);
  KernelDesc Kernel = computeBoundMicroKernel();

  // Learn the kernel and warm every lazily-grown buffer to steady state.
  constexpr double N = 2e6;
  if (!Scheduler.execute(Proc, Kernel, N).Profiled) {
    std::fprintf(stderr, "error: first invocation did not profile\n");
    return 1;
  }
  for (int I = 0; I != 16; ++I) {
    if (!Scheduler.execute(Proc, Kernel, N).TableHit) {
      std::fprintf(stderr, "error: warmup invocation missed table G\n");
      return 1;
    }
  }

  // Warmed table-hit decisions: wall-clock latency + allocation count.
  // Each execute() simulates the whole dispatch, so the figure is the
  // runtime's per-invocation overhead including the simulator step —
  // an upper bound on the scheduling decision itself.
  constexpr int HitIterations = 2000;
  std::vector<double> HitNs;
  HitNs.reserve(HitIterations);
  AllocTally HitTally;
  for (int I = 0; I != HitIterations; ++I) {
    Clock::time_point T0 = Clock::now();
    auto Outcome = Scheduler.execute(Proc, Kernel, N);
    HitNs.push_back(nsSince(T0));
    if (!Outcome.TableHit) {
      std::fprintf(stderr, "error: measured invocation missed table G\n");
      return 1;
    }
  }
  uint64_t HitAllocs = HitTally.allocations();
  bench::LatencyStats Hit = bench::summarize(HitNs);
  double AllocsPerDecision =
      static_cast<double>(HitAllocs) / HitIterations;

  // Joint (alpha, frequency) search at profiling fidelity: the 0.05
  // alpha grid plus golden-section refine, evaluated across the whole
  // DVFS ladder. (The JSON keys keep their alpha_search_* names so CI
  // diffs stay comparable with baselines from the alpha-only search.)
  TimeModel Model(4e8, 7e8);
  WorkloadClass Class;
  PStateView Views[kMaxPStates];
  for (unsigned S = 0; S != NumPStates; ++S) {
    PStateSpec State = Spec.pstateAt(S);
    PStateSpec Full = Spec.pstateAt(0);
    Views[S].Curve = &Curves.stateCurves(S).curveFor(Class);
    Views[S].CpuFreqScale = State.CpuFreqGHz / Full.CpuFreqGHz;
    Views[S].GpuFreqScale = State.GpuFreqGHz / Full.GpuFreqGHz;
  }
  Metric Objective = Metric::edp();
  OperatingPointSearchConfig Search;
  Search.Step = 0.05;
  Search.Refine = true;
  Search.MemBoundFraction = 0.2;
  (void)chooseOperatingPoint(Model, Views, NumPStates, Objective, N,
                             Search); // warm
  constexpr int SearchIterations = 5000;
  std::vector<double> SearchNs;
  SearchNs.reserve(SearchIterations);
  AllocTally SearchTally;
  unsigned Evals = 0;
  for (int I = 0; I != SearchIterations; ++I) {
    Clock::time_point T0 = Clock::now();
    Decision Choice =
        chooseOperatingPoint(Model, Views, NumPStates, Objective, N, Search);
    SearchNs.push_back(nsSince(T0));
    Evals = Choice.Evaluations;
  }
  uint64_t SearchAllocs = SearchTally.allocations();
  bench::LatencyStats Alpha = bench::summarize(SearchNs);

  std::printf("table-hit decision: p50 %.0f ns  p90 %.0f ns  p99 %.0f ns  "
              "mean %.0f ns  (%d invocations, %llu allocations)\n",
              Hit.P50, Hit.P90, Hit.P99, Hit.Mean, HitIterations,
              static_cast<unsigned long long>(HitAllocs));
  std::printf("joint search (%u P-states): p50 %.0f ns  p90 %.0f ns  "
              "p99 %.0f ns  mean %.0f ns  (%u evaluations/search, "
              "%llu allocations)\n",
              NumPStates, Alpha.P50, Alpha.P90, Alpha.P99, Alpha.Mean, Evals,
              static_cast<unsigned long long>(SearchAllocs));

  std::FILE *Out = std::fopen(OutPath.c_str(), "w");
  if (!Out) {
    std::fprintf(stderr, "error: cannot write %s\n", OutPath.c_str());
    return 1;
  }
  std::fprintf(Out,
               "{\n"
               "  \"bench\": \"decision\",\n"
               "  \"platform\": \"haswell-desktop\",\n"
               "  \"pstates\": %u,\n"
               "  \"invocations\": %d,\n"
               "  \"table_hit_latency_ns\": "
               "{\"p50\": %.0f, \"p90\": %.0f, \"p99\": %.0f, "
               "\"mean\": %.0f},\n"
               "  \"alpha_search_latency_ns\": "
               "{\"p50\": %.0f, \"p90\": %.0f, \"p99\": %.0f, "
               "\"mean\": %.0f},\n"
               "  \"alpha_search_evaluations\": %u,\n"
               "  \"allocations_per_decision\": %.0f,\n"
               "  \"allocations_per_alpha_search\": %.0f\n"
               "}\n",
               NumPStates, HitIterations, Hit.P50, Hit.P90, Hit.P99, Hit.Mean,
               Alpha.P50,
               Alpha.P90, Alpha.P99, Alpha.Mean, Evals, AllocsPerDecision,
               static_cast<double>(SearchAllocs) / SearchIterations);
  std::fclose(Out);
  std::printf("wrote %s\n", OutPath.c_str());

  return AllocsPerDecision == 0.0 ? 0 : 1;
}
