//===-- bench/micro_obs.cpp - Flight-recorder overhead budget --------------===//
//
// Part of the ecas project, under the MIT License.
//
//===----------------------------------------------------------------------===//
//
// Prices the always-on forensics of DESIGN.md §16: the same warmed
// table-hit decision run twice — recorder disarmed (null FlightRecorder
// pointer, the bit-identical no-op path) and armed (every decision lands
// in the rings). The run FAILS if the armed-minus-disarmed p50 exceeds
// 15% of the disarmed p50 measured in the same run: "always-on" is only
// defensible while it is nearly free. The budget prices the flight
// recorder alone; perfbench's obs.armed_hit_overhead_ns prices metrics
// plus flight. tests/HotPathTest.cpp holds the zero-allocation gate for
// both armed configurations.
//
// Usage: micro_obs
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "ecas/core/EasScheduler.h"
#include "ecas/hw/Presets.h"
#include "ecas/obs/FlightRecorder.h"
#include "ecas/power/MicroBenchmarks.h"
#include "ecas/support/Stats.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <vector>

using namespace ecas;

namespace {

using Clock = std::chrono::steady_clock;

/// One warmed scheduler, recorder optionally armed, replaying the same
/// table-hit decision and collecting each hit's host latency.
struct WarmedHit {
  static constexpr double N = 2e6;
  SimProcessor Proc{haswellDesktop()};
  EasScheduler Scheduler;
  KernelDesc Kernel = computeBoundMicroKernel();
  std::vector<double> SamplesNs;

  WarmedHit(const PowerCurveFamily &Curves, const EasConfig &Config)
      : Scheduler(Curves, Metric::edp(), Config) {
    if (!Scheduler.execute(Proc, Kernel, N).Profiled) {
      std::fprintf(stderr, "error: first invocation did not profile\n");
      std::exit(1);
    }
    timeHits(16);
    SamplesNs.clear();
  }

  void timeHits(int Count) {
    for (int I = 0; I != Count; ++I) {
      Clock::time_point T0 = Clock::now();
      bool Hit = Scheduler.execute(Proc, Kernel, N).TableHit;
      SamplesNs.push_back(
          std::chrono::duration<double, std::nano>(Clock::now() - T0)
              .count());
      if (!Hit) {
        std::fprintf(stderr, "error: invocation missed table G\n");
        std::exit(1);
      }
    }
  }

  double p50() {
    std::sort(SamplesNs.begin(), SamplesNs.end());
    return quantileSorted(SamplesNs, 0.50);
  }
};

} // namespace

int main() {
  bench::printBanner(
      "micro_obs: flight-recorder overhead on a warmed table hit",
      "always-on forensics must cost < 15% of a table-hit decision");

  // The two configurations are timed in alternating blocks, each going
  // first half the time, so host frequency drift during the run lands
  // on both sides alike.
  constexpr int Blocks = 20;
  constexpr int PerBlock = 100;
  PowerCurveFamily Curves = PowerCurveFamily::fromSingle(
      Characterizer(haswellDesktop()).characterize());
  obs::FlightRecorder Flight;
  EasConfig ArmedConfig;
  ArmedConfig.Flight = &Flight;
  WarmedHit Disarmed(Curves, EasConfig{});
  WarmedHit Armed(Curves, ArmedConfig);
  WarmedHit *Order[2] = {&Disarmed, &Armed};
  for (int B = 0; B != Blocks; ++B) {
    Order[B % 2]->timeHits(PerBlock);
    Order[1 - B % 2]->timeHits(PerBlock);
  }
  double DisarmedNs = Disarmed.p50();
  double ArmedNs = Armed.p50();
  obs::FlightSnapshot Snap = Flight.drain();
  if (Snap.DecisionsRecorded == 0) {
    std::fprintf(stderr,
                 "error: armed run recorded nothing; overhead is vacuous\n");
    return 1;
  }

  double OverheadNs = ArmedNs - DisarmedNs;
  double BudgetNs = 0.15 * DisarmedNs;
  std::printf("disarmed hit p50:  %.0f ns\n", DisarmedNs);
  std::printf("armed hit p50:     %.0f ns  (%llu decisions recorded)\n",
              ArmedNs,
              static_cast<unsigned long long>(Snap.DecisionsRecorded));
  std::printf("recorder overhead: %.0f ns  (budget %.0f ns = 15%% of the "
              "disarmed p50)\n",
              OverheadNs, BudgetNs);
  if (OverheadNs > BudgetNs) {
    std::fprintf(stderr,
                 "FAIL: recorder overhead %.0f ns exceeds the %.0f ns "
                 "budget\n",
                 OverheadNs, BudgetNs);
    return 1;
  }
  return 0;
}
