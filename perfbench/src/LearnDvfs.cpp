//===-- perfbench/src/LearnDvfs.cpp - Cold DVFS learning ------------------===//
//
// Part of the ecas project, under the MIT License.
//
// learn-dvfs: three application threads, each with its own SimProcessor
// and its own tenants, call EasScheduler::execute directly over the
// desktop flat work list, one pass per tenant, so every tenant-kernel
// key arrives cold once and then hits. The scheduler runs the 4-P-state
// joint (alpha, f) search under the energy objective with metrics and
// the flight recorder armed and the write-ahead journal on (default
// group commit). These are the writes beside serve-warm's reads:
// profiling, the joint search, table-G merges and the journal dominate.
//
// The journal lives in the run's output directory inside the checkout
// with fsync off, so the shared host disk stays out of the numbers while
// group-commit changes still show in the flush count. A scheduler
// serves one epoch of tenants; between epochs (untimed) it is shut down,
// checked for recovery, and its files are deleted, which bounds the
// bytes a run writes.
//
//===----------------------------------------------------------------------===//

#include "Common.h"

#include "ecas/core/HistoryJournal.h"
#include "ecas/hw/Presets.h"
#include "ecas/obs/FlightRecorder.h"
#include "ecas/power/Characterizer.h"

#include <atomic>
#include <cmath>
#include <cstdio>
#include <set>
#include <thread>

using namespace ecas;
using namespace perfbench;

namespace {

constexpr unsigned NumPStates = 4;
constexpr unsigned Threads = 3;
constexpr unsigned TenantsPerThreadPerEpoch = 3;

struct Inputs {
  PlatformSpec Spec = haswellDesktop();
  PowerCurveFamily Family;
  std::vector<Workload> Suite;
  InvocationTrace Work;
  size_t DistinctKernels = 0;
  /// Fixed-frequency Oracle energy per input.
  std::vector<double> OracleJoules;
};

std::unique_ptr<Inputs> setUp(uint64_t Seed, SetupTimes &Times) {
  auto In = std::make_unique<Inputs>();
  Clock::time_point T0 = Clock::now();
  In->Spec.synthesizePStates(NumPStates);
  In->Family = characterizeFamily(In->Spec);
  Times.Characterize = secondsSince(T0);

  T0 = Clock::now();
  In->Suite = desktopSuite(suiteConfig(Seed));
  In->Work = flatWorkList(In->Suite);
  std::set<uint64_t> Ids;
  for (const KernelInvocation &Inv : In->Work)
    Ids.insert(Inv.Kernel.Id);
  In->DistinctKernels = Ids.size();
  Times.Inputs = secondsSince(T0);

  T0 = Clock::now();
  In->OracleJoules = oracleMetrics(In->Spec, In->Suite, Metric::energy());
  Times.ReferenceRuns = secondsSince(T0);
  return In;
}

/// What one application thread measured.
struct ThreadStats {
  Samples CallUs;
  Samples ProfiledMs;
  Samples HitUs;
  uint64_t Calls = 0;
  uint64_t Hits = 0;
  uint64_t Profiled = 0;
  uint64_t Failed = 0;
  uint64_t Searches = 0;
  uint64_t Reps = 0;
  uint64_t Tenants = 0;
  double ModelTimeErrSum = 0.0;
  double ModelEnergyErrSum = 0.0;
  uint64_t ModelSamples = 0;
  double EffSum = 0.0;
  uint64_t EffCount = 0;
};

struct Phase {
  /// Counts over the whole phase; CallUs and HitUs stay per epoch.
  ThreadStats Total;
  Windows Win;
  std::vector<double> HitP99;
  double Wall = 0.0;
  unsigned Epochs = 0;
  HistoryJournal::Stats Journal;
};

/// One tenant's pass over the flat list, input by input so each input's
/// energy can be set against the fixed-frequency Oracle's. The pass
/// starts at input \p FirstInput and wraps around.
void tenantPass(const Inputs &In, EasScheduler &Scheduler, SimProcessor &Proc,
                uint64_t Tenant, size_t FirstInput, ThreadStats &T,
                SpanLog *Log) {
  RequestContext Ctx;
  Ctx.TenantId = Tenant;
  ScopedSpan Pass(Log, "tenant-pass", Tenant);
  uint64_t Index = 0;
  for (size_t K = 0; K != In.Suite.size(); ++K) {
    size_t I = (FirstInput + K) % In.Suite.size();
    double Joules0 = Proc.meter().totalJoules();
    for (const KernelInvocation &Inv : In.Suite[I].Trace) {
      ScopedSpan Call(Log, "execute", (Tenant << 24) | Index++, Pass.index());
      Clock::time_point T0 = Clock::now();
      EasScheduler::InvocationOutcome Out =
          Scheduler.execute(Proc, Inv.Kernel, Inv.Iterations, Ctx);
      double Ns = nsSince(T0);
      ++T.Calls;
      T.CallUs.add(Ns / 1e3);
      if (Out.Profiled) {
        ++T.Profiled;
        T.ProfiledMs.add(Ns / 1e6);
      }
      if (Out.TableHit) {
        ++T.Hits;
        T.HitUs.add(Ns / 1e3);
      }
      T.Failed += Out.Rejected || Out.Cancelled;
      T.Searches += Out.AlphaSearches;
      T.Reps += Out.ProfileRepetitions;
      if (Out.hasModelSample()) {
        T.ModelTimeErrSum += Out.timeRelError();
        T.ModelEnergyErrSum += Out.energyRelError();
        ++T.ModelSamples;
      }
    }
    double Eff = In.OracleJoules[I] / (Proc.meter().totalJoules() - Joules0);
    if (std::isfinite(Eff)) {
      T.EffSum += Eff;
      ++T.EffCount;
    }
  }
  ++T.Tenants;
}

bool sameRecord(const KernelRecord &A, const KernelRecord &B) {
  return A.Invocations == B.Invocations &&
         A.QuarantinedRuns == B.QuarantinedRuns && A.CpuOnly == B.CpuOnly &&
         A.Confident == B.Confident && A.PState == B.PState &&
         A.Class.index() == B.Class.index() &&
         A.Alpha.weightedSum() == B.Alpha.weightedSum() &&
         A.Alpha.totalWeight() == B.Alpha.totalWeight() &&
         A.Sample.CpuThroughput == B.Sample.CpuThroughput &&
         A.Sample.GpuThroughput == B.Sample.GpuThroughput &&
         A.Sample.CpuIterations == B.Sample.CpuIterations &&
         A.Sample.GpuIterations == B.Sample.GpuIterations &&
         A.Sample.MissPerLoadStore == B.Sample.MissPerLoadStore;
}

bool sameTable(const std::vector<std::pair<uint64_t, KernelRecord>> &A,
               const std::vector<std::pair<uint64_t, KernelRecord>> &B) {
  if (A.size() != B.size())
    return false;
  for (size_t I = 0; I != A.size(); ++I)
    if (A[I].first != B[I].first || !sameRecord(A[I].second, B[I].second))
      return false;
  return true;
}

EasConfig durableConfig(const std::string &Dir) {
  EasConfig Config;
  Config.PStates = true;
  Config.HistoryFile = Dir + "/learn-dvfs.tblg";
  Config.Journal.Enabled = true;
  Config.Journal.SyncOnFlush = false;
  return Config;
}

/// Runs epochs of Threads x TenantsPerThreadPerEpoch tenant passes until
/// \p Seconds of timed work have elapsed. Epoch turnover is untimed.
Phase measure(const Inputs &In, const Options &Opts, double Seconds,
              uint64_t &NextTenant, Tracer *Spans, RunResult &Result) {
  Phase P;
  std::vector<ThreadStats> PerThread(Threads);
  while (P.Wall < Seconds) {
    // Each epoch's threads are new, and a recorder keeps the rings of
    // threads that have ended. Shared across epochs, the sinks grew the
    // live heap by 0.65 MB an epoch, so heap_mb counted epochs.
    obs::MetricsRegistry Registry;
    obs::FlightRecorder Flight;
    const std::string &Dir = Opts.OutDir;
    EasConfig Config = durableConfig(Dir);
    std::remove(Config.HistoryFile.c_str());
    std::remove((Config.HistoryFile + ".wal").c_str());
    Config.Metrics = &Registry;
    Config.Flight = &Flight;
    auto Scheduler =
        std::make_unique<EasScheduler>(In.Family, Metric::energy(), Config);
    Result.check(Scheduler->journaling(),
                 "learn-dvfs: journal did not open: " +
                     Scheduler->journalStatus().message());

    std::atomic<uint64_t> TenantsDone{0};
    double Remaining = Seconds - P.Wall;
    uint64_t FirstTenant = NextTenant;
    Clock::time_point Start = Clock::now();
    std::vector<std::thread> Pool;
    for (unsigned T = 0; T != Threads; ++T)
      Pool.emplace_back([&, T] {
        SimProcessor Proc(In.Spec);
        SpanLog *Log = Spans ? Spans->log(T) : nullptr;
        for (unsigned J = 0; J != TenantsPerThreadPerEpoch; ++J) {
          if (J && secondsSince(Start) >= Remaining)
            break;
          uint64_t Tenant = FirstTenant + T * TenantsPerThreadPerEpoch + J;
          // Threads start their passes at different inputs, so the few
          // multi-megabyte profiling merges do not all land at once.
          tenantPass(In, *Scheduler, Proc, Tenant,
                     T * In.Suite.size() / Threads, PerThread[T], Log);
          ++TenantsDone;
        }
      });
    for (std::thread &Worker : Pool)
      Worker.join();
    double EpochSec = secondsSince(Start);
    P.Wall += EpochSec;
    NextTenant += Threads * TenantsPerThreadPerEpoch;
    ++P.Epochs;
    // Each epoch is one window of the reported medians.
    Samples EpochUs, EpochHitUs;
    uint64_t EpochCalls = 0;
    for (ThreadStats &T : PerThread) {
      EpochUs.append(T.CallUs);
      EpochHitUs.append(T.HitUs);
      EpochCalls += T.CallUs.size();
      T.CallUs.clear();
      T.HitUs.clear();
    }
    P.HitP99.push_back(EpochHitUs.tail(0.99));
    P.Win.close(static_cast<double>(EpochCalls), EpochSec, EpochUs);

    Result.check(Scheduler->history().size() ==
                     TenantsDone.load() * In.DistinctKernels,
                 "learn-dvfs: table G holds " +
                     std::to_string(Scheduler->history().size()) +
                     " keys, expected tenants x distinct kernels");
    Result.check(Scheduler->flushJournal().ok(),
                 "learn-dvfs: journal flush failed");
    auto Live = Scheduler->history().entries();
    HistoryJournal::Stats J = Scheduler->journalStats();
    P.Journal.Appends += J.Appends;
    P.Journal.AppendedBytes += J.AppendedBytes;
    P.Journal.Flushes += J.Flushes;
    // A fresh scheduler over what shutdown left must recover the table.
    Result.check(Scheduler->shutdown(1.0).ok(), "learn-dvfs: shutdown failed");
    Scheduler.reset();
    {
      EasScheduler Fresh(In.Family, Metric::energy(), durableConfig(Dir));
      Result.check(sameTable(Fresh.history().entries(), Live),
                   "learn-dvfs: recovered table differs from the live one");
    }
    std::remove(Config.HistoryFile.c_str());
    std::remove((Config.HistoryFile + ".wal").c_str());
  }
  for (const ThreadStats &T : PerThread) {
    ThreadStats &A = P.Total;
    A.ProfiledMs.append(T.ProfiledMs);
    A.Calls += T.Calls;
    A.Hits += T.Hits;
    A.Profiled += T.Profiled;
    A.Failed += T.Failed;
    A.Searches += T.Searches;
    A.Reps += T.Reps;
    A.Tenants += T.Tenants;
    A.ModelTimeErrSum += T.ModelTimeErrSum;
    A.ModelEnergyErrSum += T.ModelEnergyErrSum;
    A.ModelSamples += T.ModelSamples;
    A.EffSum += T.EffSum;
    A.EffCount += T.EffCount;
  }
  Result.Attempted += P.Total.Calls;
  Result.Failed += P.Total.Failed;
  std::printf("learn-dvfs: %u epochs, %llu tenant passes, %llu calls "
              "(%llu profiled, %llu hits), %llu journal bytes in %llu "
              "flushes, %.2f s timed\n",
              P.Epochs, static_cast<unsigned long long>(P.Total.Tenants),
              static_cast<unsigned long long>(P.Total.Calls),
              static_cast<unsigned long long>(P.Total.Profiled),
              static_cast<unsigned long long>(P.Total.Hits),
              static_cast<unsigned long long>(P.Journal.AppendedBytes),
              static_cast<unsigned long long>(P.Journal.Flushes), P.Wall);
  return P;
}

/// HistoryJournal::flush of groups the size learn-dvfs's group commits
/// averaged, built from table-hit delta records.
double journalFlushUs(const Phase &P, const std::string &OutDir,
                      RunResult &Result) {
  if (P.Journal.Flushes == 0)
    return 0.0;
  HistoryDeltaRecord Hit;
  Hit.Key = 1;
  Hit.InvocationsDelta = 1;
  std::string Frame;
  encodeDeltaFrame(Frame, Hit);
  double GroupBytes =
      static_cast<double>(P.Journal.AppendedBytes) / P.Journal.Flushes;
  unsigned Records = std::max(1u, static_cast<unsigned>(std::lround(
                                      GroupBytes / Frame.size())));
  JournalOptions Options;
  Options.Path = OutDir + "/flush-probe.wal";
  Options.SyncOnFlush = false;
  Options.GroupCommitRecords = Records + 1;
  Options.GroupCommitBytes = 1 << 30;
  std::remove(Options.Path.c_str());
  ErrorOr<std::unique_ptr<HistoryJournal>> Journal =
      HistoryJournal::open(Options, 1);
  Result.check(Journal.ok(), "learn-dvfs: cannot open the flush probe");
  if (!Journal.ok())
    return 0.0;
  Samples Us;
  for (unsigned Group = 0; Group != 200; ++Group) {
    for (unsigned R = 0; R != Records; ++R)
      (*Journal)->enqueue(Hit);
    Clock::time_point T0 = Clock::now();
    Result.check((*Journal)->flush().ok(), "learn-dvfs: probe flush failed");
    Us.add(nsSince(T0) / 1e3);
  }
  Journal->reset();
  std::remove(Options.Path.c_str());
  return Us.quantile(0.5);
}

} // namespace

void perfbench::runLearnDvfs(const Options &Opts, RunResult &Result) {
  std::vector<SetupTimes> Setups(SetupRepeats);
  std::unique_ptr<Inputs> In;
  for (SetupTimes &Times : Setups)
    In = setUp(Opts.Seed, Times);
  reportSetup(Setups, Result);

  // Tenant ids start at a seeded offset, so the seed also drives the
  // table-G keys and their order.
  uint64_t NextTenant = 1 + (Xoshiro256(Opts.Seed ^ 0x1ea4dULL).next() >> 44);
  Phase Untraced =
      measure(*In, Opts, Opts.Trace ? Opts.Seconds / 2 : Opts.Seconds,
              NextTenant, nullptr, Result);
  ThreadStats &U = Untraced.Total;
  double UntracedRate = median(Untraced.Win.Rate);
  Result.set("inv_per_s", UntracedRate);
  Result.set("call_us_p50", median(Untraced.Win.P50));
  Result.set("call.us_p99", median(Untraced.Win.P99));
  Result.set("quality_pct", U.EffCount ? 100.0 * U.EffSum / U.EffCount : 0.0);
  Result.set("heap_mb", median(Untraced.Win.HeapMb));
  if (!Opts.Trace)
    return;

  Tracer Spans(true, Threads);
  Phase Traced = measure(*In, Opts, Opts.Seconds / 2, NextTenant, &Spans,
                         Result);
  ThreadStats &T = Traced.Total;
  Result.set("trace.overhead_pct",
             100.0 * (UntracedRate / median(Traced.Win.Rate) - 1.0));
  Result.set("trace.spans", static_cast<double>(Spans.spanCount()));
  Result.set("call.profiled_ms_p90", T.ProfiledMs.quantile(0.9));
  Result.set("call.profiled_ms_p99", T.ProfiledMs.tail(0.99));
  Result.set("call.hit_us_p99", median(Traced.HitP99));
  Result.set("core.table_hit_frac", static_cast<double>(T.Hits) / T.Calls);
  Result.set("core.searches_per_profiled",
             T.Profiled ? static_cast<double>(T.Searches) / T.Profiled : 0.0);
  Result.set("profile.reps_per_profiled",
             T.Profiled ? static_cast<double>(T.Reps) / T.Profiled : 0.0);
  Result.set("core.model_time_rel_err",
             T.ModelSamples ? T.ModelTimeErrSum / T.ModelSamples : 0.0);
  Result.set("core.model_energy_rel_err",
             T.ModelSamples ? T.ModelEnergyErrSum / T.ModelSamples : 0.0);
  Result.set("core.journal_bytes_per_inv",
             static_cast<double>(Traced.Journal.AppendedBytes) / T.Calls);
  Result.set("core.journal_flushes_per_1k_inv",
             1000.0 * Traced.Journal.Flushes / T.Calls);
  Result.set("core.journal_flush_us_p50",
             journalFlushUs(Traced, Opts.OutDir, Result));
  std::printf("  base: %llu calls, %llu profiled, %llu hits\n",
              static_cast<unsigned long long>(T.Calls),
              static_cast<unsigned long long>(T.Profiled),
              static_cast<unsigned long long>(T.Hits));

  // Replays run against a warmed (one tenant pass) twin of the learning
  // scheduler with its sinks armed and no journal.
  obs::MetricsRegistry Registry;
  obs::FlightRecorder Flight;
  EasConfig Config;
  Config.PStates = true;
  Config.Metrics = &Registry;
  Config.Flight = &Flight;
  EasScheduler Armed(In->Family, Metric::energy(), Config);
  SimProcessor WarmProc(In->Spec);
  ThreadStats Warm;
  tenantPass(*In, Armed, WarmProc, 1, 0, Warm, nullptr);
  ReplayInputs Replay;
  Replay.Armed = &Armed;
  Replay.Curves = &In->Family;
  Replay.Objective = Metric::energy();
  Replay.PStates = true;
  Replay.Spec = In->Spec;
  Replay.Work = &In->Work;
  Replay.Tenants = {1};
  Replay.Seed = Opts.Seed;
  Replay.SnapshotPath = Opts.OutDir + "/learn-dvfs-replay.tblg";
  replayLayers(Replay, Result);

  for (const std::string &Line : Spans.selfTimeSummary())
    std::printf("  span %s\n", Line.c_str());
  std::string SpanPath = Opts.OutDir + "/spans-learn-dvfs.csv";
  Result.check(Spans.write(SpanPath), "learn-dvfs: cannot write " + SpanPath);
}
