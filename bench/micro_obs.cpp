//===-- bench/micro_obs.cpp - Flight-recorder overhead budget --------------===//
//
// Part of the ecas project, under the MIT License.
//
//===----------------------------------------------------------------------===//
//
// Prices the always-on forensics of DESIGN.md §16: the same warmed
// table-hit decision micro_decision measures, run twice — recorder
// disarmed (null FlightRecorder pointer, the bit-identical no-op path)
// and armed (every decision lands in the rings) — plus the latency of
// capturing one full incident bundle. The committed BENCH_obs.json at
// the repo root pins the numbers, and the run FAILS if the armed
// overhead exceeds 15% of the table-hit p50 that BENCH_decision.json
// records: "always-on" is only defensible while it is nearly free.
//
// Links support/AllocGuard.cpp so the armed loop also proves
// allocations_per_decision stays 0 with the recorder attached.
//
// Usage: micro_obs [output.json] [baseline_hit_p50_ns]
//        (defaults: BENCH_obs.json, 589 — BENCH_decision.json's p50)
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "ecas/core/EasScheduler.h"
#include "ecas/hw/Presets.h"
#include "ecas/obs/FlightRecorder.h"
#include "ecas/obs/Incident.h"
#include "ecas/obs/Metrics.h"
#include "ecas/power/MicroBenchmarks.h"
#include "ecas/support/AllocGuard.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include <unistd.h>

using namespace ecas;

namespace {

using Clock = std::chrono::steady_clock;

double nsSince(Clock::time_point Start) {
  return std::chrono::duration<double, std::nano>(Clock::now() - Start)
      .count();
}

/// One warmed scheduler (recorder optionally armed) measured over the
/// same table-hit loop micro_decision uses. Returns latency stats and
/// the allocation count observed during the measured window.
bench::LatencyStats measureDecisions(obs::FlightRecorder *Flight,
                                     int Iterations, uint64_t &AllocsOut) {
  PlatformSpec Spec = haswellDesktop();
  SimProcessor Proc(Spec);
  static PowerCurveFamily Curves = PowerCurveFamily::fromSingle(
      Characterizer(haswellDesktop()).characterize());
  EasConfig Config;
  Config.Flight = Flight;
  EasScheduler Scheduler(Curves, Metric::edp(), Config);
  KernelDesc Kernel = computeBoundMicroKernel();

  constexpr double N = 2e6;
  if (!Scheduler.execute(Proc, Kernel, N).Profiled) {
    std::fprintf(stderr, "error: first invocation did not profile\n");
    std::exit(1);
  }
  for (int I = 0; I != 16; ++I) {
    if (!Scheduler.execute(Proc, Kernel, N).TableHit) {
      std::fprintf(stderr, "error: warmup invocation missed table G\n");
      std::exit(1);
    }
  }

  std::vector<double> SamplesNs;
  SamplesNs.reserve(static_cast<size_t>(Iterations));
  AllocTally Tally;
  for (int I = 0; I != Iterations; ++I) {
    Clock::time_point T0 = Clock::now();
    auto Outcome = Scheduler.execute(Proc, Kernel, N);
    SamplesNs.push_back(nsSince(T0));
    if (!Outcome.TableHit) {
      std::fprintf(stderr, "error: measured invocation missed table G\n");
      std::exit(1);
    }
  }
  AllocsOut = Tally.allocations();
  return bench::summarize(SamplesNs);
}

} // namespace

int main(int Argc, char **Argv) {
  std::string OutPath = Argc > 1 ? Argv[1] : "BENCH_obs.json";
  double BaselineHitP50Ns = Argc > 2 ? std::atof(Argv[2]) : 589.0;
  bench::printBanner(
      "micro_obs: flight-recorder overhead + incident-dump latency",
      "always-on forensics must cost < 15% of a table-hit decision");

  constexpr int Iterations = 2000;
  uint64_t NullAllocs = 0;
  uint64_t ArmedAllocs = 0;
  bench::LatencyStats Null =
      measureDecisions(nullptr, Iterations, NullAllocs);
  obs::FlightRecorder Flight;
  bench::LatencyStats Armed =
      measureDecisions(&Flight, Iterations, ArmedAllocs);
  obs::FlightSnapshot Snap = Flight.drain();
  if (Snap.DecisionsRecorded == 0) {
    std::fprintf(stderr,
                 "error: armed run recorded nothing; overhead is vacuous\n");
    return 1;
  }

  double OverheadNs = Armed.P50 - Null.P50;
  double BudgetNs = 0.15 * BaselineHitP50Ns;

  // Incident capture: drain + render + atomic writes of a full bundle
  // (manual dumps bypass the rate limit, exactly like a control-socket
  // `dump`). This is off-hot-path latency, reported for operators who
  // will trigger it against a live service.
  obs::MetricsRegistry Registry;
  Registry.counter("bench_obs_marker").add(1.0);
  obs::IncidentConfig IncidentCfg;
  IncidentCfg.Dir = "/tmp/ecas-bench-obs-incidents";
  IncidentCfg.MaxBundles = 2;
  obs::IncidentWriter Writer(IncidentCfg);
  obs::IncidentInputs Inputs;
  Inputs.Flight = &Flight;
  Inputs.Metrics = &Registry;
  Inputs.TableDigest = "tableg entries=1\n";
  Inputs.ServiceStatus = "ecas-statusz v1\nuptime_sec 0.0\nend\n";
  constexpr int DumpIterations = 20;
  std::vector<double> DumpNs;
  DumpNs.reserve(DumpIterations);
  for (int I = 0; I != DumpIterations; ++I) {
    Clock::time_point T0 = Clock::now();
    ErrorOr<std::string> Bundle =
        Writer.write(Inputs, {}, static_cast<double>(I), /*Force=*/true);
    DumpNs.push_back(nsSince(T0));
    if (!Bundle.ok()) {
      std::fprintf(stderr, "error: incident dump failed: %s\n",
                   Bundle.status().toString().c_str());
      return 1;
    }
  }
  bench::LatencyStats Dump = bench::summarize(DumpNs);

  std::printf("disarmed decision: p50 %.0f ns  p90 %.0f ns  mean %.0f ns\n",
              Null.P50, Null.P90, Null.Mean);
  std::printf("armed decision:    p50 %.0f ns  p90 %.0f ns  mean %.0f ns  "
              "(%llu events, %llu decisions recorded)\n",
              Armed.P50, Armed.P90, Armed.Mean,
              static_cast<unsigned long long>(Snap.EventsRecorded),
              static_cast<unsigned long long>(Snap.DecisionsRecorded));
  std::printf("recorder overhead: %.0f ns at p50 (budget %.0f ns = 15%% of "
              "baseline %.0f ns)\n",
              OverheadNs, BudgetNs, BaselineHitP50Ns);
  std::printf("incident dump:     p50 %.0f ns  p99 %.0f ns  "
              "(%d full bundles)\n",
              Dump.P50, Dump.P99, DumpIterations);

  std::FILE *Out = std::fopen(OutPath.c_str(), "w");
  if (!Out) {
    std::fprintf(stderr, "error: cannot write %s\n", OutPath.c_str());
    return 1;
  }
  std::fprintf(Out,
               "{\n"
               "  \"bench\": \"obs\",\n"
               "  \"platform\": \"haswell-desktop\",\n"
               "  \"invocations\": %d,\n"
               "  \"disarmed_decision_ns\": "
               "{\"p50\": %.0f, \"p90\": %.0f, \"p99\": %.0f, "
               "\"mean\": %.0f},\n"
               "  \"armed_decision_ns\": "
               "{\"p50\": %.0f, \"p90\": %.0f, \"p99\": %.0f, "
               "\"mean\": %.0f},\n"
               "  \"recorder_overhead_p50_ns\": %.0f,\n"
               "  \"overhead_budget_ns\": %.0f,\n"
               "  \"baseline_table_hit_p50_ns\": %.0f,\n"
               "  \"incident_dump_ns\": {\"p50\": %.0f, \"p99\": %.0f},\n"
               "  \"allocations_per_armed_decision\": %.0f\n"
               "}\n",
               Iterations, Null.P50, Null.P90, Null.P99, Null.Mean,
               Armed.P50, Armed.P90, Armed.P99, Armed.Mean, OverheadNs,
               BudgetNs, BaselineHitP50Ns, Dump.P50, Dump.P99,
               static_cast<double>(ArmedAllocs) / Iterations);
  std::fclose(Out);
  std::printf("wrote %s\n", OutPath.c_str());

  if (ArmedAllocs != 0) {
    std::fprintf(stderr,
                 "FAIL: armed decisions allocated (%llu over %d)\n",
                 static_cast<unsigned long long>(ArmedAllocs), Iterations);
    return 1;
  }
  if (OverheadNs > BudgetNs) {
    std::fprintf(stderr,
                 "FAIL: recorder overhead %.0f ns exceeds the %.0f ns "
                 "budget\n",
                 OverheadNs, BudgetNs);
    return 1;
  }
  return 0;
}
