//===-- perfbench/src/ServeWarm.cpp - Warm multi-tenant serving -----------===//
//
// Part of the ecas project, under the MIT License.
//
// serve-warm: four tenants x the desktop flat work list (every input of
// the suite, in order), submitted through ServiceFrontEnd with three
// workers, lane cap 64 and serve's 2:5:3 SLA mix. Table G
// is warmed in set-up, so every request is a table hit: the service, the
// hit path and the sim dispatch do all the work; search, profiling and
// the journal do none. Metrics and the flight recorder are armed as
// `ecas-cli serve` arms them; the journal is off.
//
// The load is a saturating closed loop with one generator thread: it
// re-offers a request whose verdict carries a nonzero retry-after at
// once. Completions are not visible from outside the service, so the
// rate comes from the service's own completed count, per window.
//
//===----------------------------------------------------------------------===//

#include "Common.h"

#include "ecas/hw/Presets.h"
#include "ecas/obs/FlightRecorder.h"
#include "ecas/obs/MetricNames.h"
#include "ecas/power/Characterizer.h"
#include "ecas/service/Service.h"

#include <cmath>
#include <limits>

using namespace ecas;
using namespace perfbench;

namespace {

constexpr unsigned NumTenants = 4;
constexpr unsigned Workers = 3;
constexpr size_t LaneCap = 64;

/// Everything set-up builds. The registry and recorder are borrowed by
/// the scheduler, so the whole state lives at a fixed address.
struct State {
  PlatformSpec Spec = haswellDesktop();
  PowerCurveSet Curves;
  PowerCurveFamily Family;
  std::vector<Workload> Suite;
  InvocationTrace Work;
  std::vector<uint64_t> Tenants;
  std::vector<double> OracleEdp;
  obs::MetricsRegistry Registry;
  obs::FlightRecorder Flight;
  std::unique_ptr<EasScheduler> Scheduler;
  /// Oracle/EAS EDP per (tenant, input) of the warm-up passes.
  std::vector<double> Efficiencies;
};

std::unique_ptr<State> setUp(uint64_t Seed, SetupTimes &Times) {
  auto S = std::make_unique<State>();
  Clock::time_point T0 = Clock::now();
  S->Curves = Characterizer(S->Spec).characterize();
  S->Family = PowerCurveFamily::fromSingle(S->Curves);
  Times.Characterize = secondsSince(T0);

  T0 = Clock::now();
  S->Suite = desktopSuite(suiteConfig(Seed));
  S->Work = flatWorkList(S->Suite);
  // Tenant ids (and so their order and table-G keys) come from the seed.
  Xoshiro256 Rng(Seed ^ 0x7e4a5eedULL);
  while (S->Tenants.size() != NumTenants) {
    uint64_t Id = 1 + (Rng.next() >> 40);
    if (std::find(S->Tenants.begin(), S->Tenants.end(), Id) ==
        S->Tenants.end())
      S->Tenants.push_back(Id);
  }
  Times.Inputs = secondsSince(T0);

  T0 = Clock::now();
  S->OracleEdp = oracleMetrics(S->Spec, S->Suite, Metric::edp());
  Times.ReferenceRuns = secondsSince(T0);

  // Warm: one cold EAS pass per tenant over the flat list. Each pass is
  // also what the served decisions are judged by: its EDP per input
  // against the Oracle's.
  T0 = Clock::now();
  EasConfig Config;
  Config.Metrics = &S->Registry;
  Config.Flight = &S->Flight;
  S->Scheduler =
      std::make_unique<EasScheduler>(S->Family, Metric::edp(), Config);
  for (uint64_t Tenant : S->Tenants) {
    SimProcessor Proc(S->Spec);
    RequestContext Ctx;
    Ctx.TenantId = Tenant;
    for (size_t I = 0; I != S->Suite.size(); ++I) {
      double Joules0 = Proc.meter().totalJoules();
      double Sec0 = Proc.now();
      for (const KernelInvocation &Inv : S->Suite[I].Trace)
        S->Scheduler->execute(Proc, Inv.Kernel, Inv.Iterations, Ctx);
      double Edp = (Proc.meter().totalJoules() - Joules0) * (Proc.now() - Sec0);
      S->Efficiencies.push_back(S->OracleEdp[I] / Edp);
    }
  }
  Times.Warm = secondsSince(T0);
  return S;
}

uint64_t tableInvocations(const EasScheduler &Scheduler) {
  uint64_t Total = 0;
  for (const auto &[Key, Rec] : Scheduler.history().entries())
    Total += Rec.Invocations;
  return Total;
}

struct Phase {
  /// The current window's submit latencies.
  Samples SubmitUs;
  Windows Win;
  Samples Depth;
  uint64_t Offered = 0;
  uint64_t Calls = 0;
  uint64_t Overloaded = 0;
  uint64_t GiveUps = 0;
  double Wall = 0.0;
  ServiceStats Stats;
  double Hits = 0.0;
  double Invocations = 0.0;
};

Phase measure(State &S, uint64_t Seed, double Seconds, SpanLog *Log,
              RunResult &Result) {
  Phase P;
  uint64_t Before = tableInvocations(*S.Scheduler);
  obs::MetricsSnapshot Snap0 = S.Registry.snapshot();
  ServiceConfig Config;
  Config.Workers = Workers;
  Config.QueueCapPerClass = LaneCap;
  Config.Metrics = &S.Registry;
  Config.Flight = &S.Flight;
  Xoshiro256 Rng(Seed ^ 0x51a0d1ceULL);

  // Ten windows; completions per window come from the service's own
  // accounting, which lags the submissions by at most the lanes' depth.
  double WindowSec = Seconds / 10.0;
  uint64_t WindowCompleted = 0;
  Clock::time_point Start = Clock::now();
  Clock::time_point WindowStart = Start;
  {
    ServiceFrontEnd Service(*S.Scheduler, S.Spec, Config);
    for (uint64_t R = 0;; ++R) {
      if ((R & 255) == 0 && secondsSince(WindowStart) >= WindowSec) {
        uint64_t Completed = Service.stats().Completed;
        P.Win.close(static_cast<double>(Completed - WindowCompleted),
                    secondsSince(WindowStart), P.SubmitUs);
        WindowCompleted = Completed;
        WindowStart = Clock::now();
        if (secondsSince(Start) >= Seconds)
          break;
      }
      uint64_t Tenant = S.Tenants[R % NumTenants];
      const KernelInvocation &Inv = S.Work[(R / NumTenants) % S.Work.size()];
      // serve's SLA classes without its deadline budgets: BH, MB and SL
      // run 0.27-4.6 virtual seconds, past SLA0's 200 ms (SL also past
      // SLA1's 1 s), so they would be cancelled, and the service time
      // they leave in the admission estimate can hold a request in
      // DeadlineInfeasible with no completion left to lower it, which
      // livelocks an immediate re-offer.
      RequestContext Ctx = drawRequest(Rng, Tenant);
      Ctx.DeadlineSec = std::numeric_limits<double>::infinity();
      ++P.Offered;
      ScopedSpan Request(Log, "request", R);
      for (;;) {
        if (Log)
          P.Depth.add(static_cast<double>(
              Service.queueDepth(SlaClass::Sla0) +
              Service.queueDepth(SlaClass::Sla1) +
              Service.queueDepth(SlaClass::Sla2)));
        ScopedSpan Submit(Log, "submit", R, Request.index());
        Clock::time_point T0 = Clock::now();
        SubmitResult Verdict = Service.submit(Inv.Kernel, Inv.Iterations, Ctx);
        double Us = nsSince(T0) / 1e3;
        ++P.Calls;
        // The loop saturates the lanes, so most calls bounce; the latency
        // metric is the call that enqueues, once per request.
        if (Verdict.admitted()) {
          P.SubmitUs.add(Us);
          break;
        }
        // A zero hint means "do not retry": the request is given up.
        if (Verdict.RetryAfterSec <= 0.0) {
          ++P.GiveUps;
          break;
        }
        P.Overloaded += Verdict.Verdict.code() == ErrCode::Overloaded;
      }
    }
    P.Stats = Service.shutdown();
  }
  P.Wall = secondsSince(Start);

  obs::MetricsSnapshot Snap1 = S.Registry.snapshot();
  P.Hits = Snap1.total(obs::names::TableHitsTotal) -
           Snap0.total(obs::names::TableHitsTotal);
  P.Invocations = Snap1.total(obs::names::InvocationsTotal) -
                  Snap0.total(obs::names::InvocationsTotal);
  uint64_t After = tableInvocations(*S.Scheduler);
  Result.check(P.Stats.consistent(),
               "serve-warm: submitted != rejected + shed + completed + "
               "cancelled");
  Result.check(After - Before == P.Stats.Completed,
               "serve-warm: table-G invocations grew by " +
                   std::to_string(After - Before) + ", completed " +
                   std::to_string(P.Stats.Completed));
  Result.check(P.Stats.Completed > 0, "serve-warm: nothing completed");
  Result.Attempted += P.Offered;
  Result.Failed += P.Stats.Shed + P.Stats.Cancelled + P.GiveUps;
  std::printf("serve-warm: %llu offered, %llu submit calls (%llu "
              "overloaded), %llu completed, %llu shed, %llu cancelled, "
              "%llu given up in %.2f s; %.0f of %.0f executions were "
              "table hits\n",
              static_cast<unsigned long long>(P.Offered),
              static_cast<unsigned long long>(P.Calls),
              static_cast<unsigned long long>(P.Overloaded),
              static_cast<unsigned long long>(P.Stats.Completed),
              static_cast<unsigned long long>(P.Stats.Shed),
              static_cast<unsigned long long>(P.Stats.Cancelled),
              static_cast<unsigned long long>(P.GiveUps), P.Wall, P.Hits,
              P.Invocations);
  return P;
}

} // namespace

void perfbench::runServeWarm(const Options &Opts, RunResult &Result) {
  std::vector<SetupTimes> Setups(SetupRepeats);
  std::unique_ptr<State> S;
  for (SetupTimes &Times : Setups) {
    S.reset();
    S = setUp(Opts.Seed, Times);
  }
  reportSetup(Setups, Result);
  size_t Keys = S->Scheduler->history().size();
  Result.check(S->Work.size() > 0 && Keys > 0, "serve-warm: empty table G");
  double EffSum = 0.0;
  for (double Eff : S->Efficiencies) {
    Result.check(std::isfinite(Eff) && Eff > 0.0,
                 "serve-warm: non-positive warm-pass efficiency");
    EffSum += Eff;
  }
  Result.set("quality_pct", 100.0 * EffSum / S->Efficiencies.size());
  std::printf("serve-warm: %zu invocations x %u tenants, %zu table-G keys\n",
              S->Work.size(), NumTenants, Keys);

  Phase Untraced = measure(*S, Opts.Seed,
                           Opts.Trace ? Opts.Seconds / 2 : Opts.Seconds,
                           nullptr, Result);
  double UntracedRate = median(Untraced.Win.Rate);
  Result.set("inv_per_s", UntracedRate);
  Result.set("call_us_p50", median(Untraced.Win.P50));
  Result.set("call.us_p99", median(Untraced.Win.P99));
  Result.set("heap_mb", median(Untraced.Win.HeapMb));
  if (!Opts.Trace)
    return;

  Tracer Spans(true, 1, 400000);
  Phase Traced = measure(*S, Opts.Seed + 1, Opts.Seconds / 2, Spans.log(0),
                         Result);
  double TracedRate = median(Traced.Win.Rate);
  Result.set("trace.overhead_pct", 100.0 * (UntracedRate / TracedRate - 1.0));
  Result.set("trace.spans", static_cast<double>(Spans.spanCount()));
  Result.set("service.overloaded_per_1k",
             1000.0 * Traced.Overloaded / static_cast<double>(Traced.Calls));
  Result.set("service.queue_depth_mean", Traced.Depth.mean());
  double WorkerNs = Workers * Traced.Wall * 1e9 / Traced.Stats.Completed;
  Result.set("service.worker_ns_per_req", WorkerNs);
  Result.set("core.table_hit_frac",
             Traced.Invocations ? Traced.Hits / Traced.Invocations : 0.0);
  obs::MetricsSnapshot Snap = S->Registry.snapshot();
  Result.set("core.model_time_rel_err",
             histogramMean(Snap, obs::names::ModelTimeRelError));
  Result.set("core.model_energy_rel_err",
             histogramMean(Snap, obs::names::ModelEnergyRelError));

  ReplayInputs Replay;
  Replay.Armed = S->Scheduler.get();
  Replay.Curves = &S->Family;
  Replay.Objective = Metric::edp();
  Replay.Spec = S->Spec;
  Replay.Work = &S->Work;
  Replay.Tenants = S->Tenants;
  Replay.Seed = Opts.Seed;
  Replay.SnapshotPath = Opts.OutDir + "/serve-warm-replay.tblg";
  replayLayers(Replay, Result);
  Result.set("service.overhead_ns_per_req",
             WorkerNs - Result.Values["core.hit_ns_p50"]);

  for (const std::string &Line : Spans.selfTimeSummary())
    std::printf("  span %s\n", Line.c_str());
  std::string SpanPath = Opts.OutDir + "/spans-serve-warm.csv";
  Result.check(Spans.write(SpanPath), "serve-warm: cannot write " + SpanPath);
}
