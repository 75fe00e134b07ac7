//===-- perfbench/src/Replay.cpp - Per-layer replay of a workload's calls -===//
//
// Part of the ecas project, under the MIT License.
//
// A warmed execute() nests table-G lookup, the sinks and the simulated
// dispatch, and profiling nests the operating-point search. The traced
// run therefore replays the workload's own inputs (same kernel,
// iterations, alpha and P-state) against each layer's public function
// and times it alone. Cheap calls are timed in batches of 32 so the
// clock read does not dominate them.
//
//===----------------------------------------------------------------------===//

#include "Common.h"

#include "ecas/core/OperatingPoint.h"
#include "ecas/core/Schedulers.h"
#include "ecas/service/Admission.h"
#include "ecas/service/SlaQueue.h"

#include <algorithm>
#include <cstdio>
#include <map>

using namespace ecas;
using namespace perfbench;

namespace {

constexpr size_t MaxItems = 2048;
constexpr unsigned Batch = 32;

struct Item {
  const KernelInvocation *Inv = nullptr;
  RequestContext Ctx;
  uint64_t Key = 0;
  KernelRecord Rec;
};

/// Evenly spaced calls of the work list whose key table G answers
/// directly (the steady-state hit of runTableHit).
std::vector<Item> hitItems(const ReplayInputs &In, double GpuProfileSize) {
  std::vector<Item> Items;
  const InvocationTrace &Work = *In.Work;
  size_t Total = Work.size() * In.Tenants.size();
  size_t Step = std::max<size_t>(1, Total / MaxItems);
  for (size_t I = 0; I < Total && Items.size() < MaxItems; I += Step) {
    Item It;
    It.Inv = &Work[I % Work.size()];
    It.Ctx.TenantId = In.Tenants[(I / Work.size()) % In.Tenants.size()];
    It.Key = namespacedKernelKey(It.Ctx.TenantId, It.Inv->Kernel.Id);
    if (!In.Armed->history().lookup(It.Key, It.Rec))
      continue;
    if (It.Rec.Alpha.hasValue() &&
        (It.Rec.Confident || It.Inv->Iterations < GpuProfileSize))
      Items.push_back(It);
  }
  return Items;
}

unsigned learnedPState(const ReplayInputs &In, const KernelRecord &Rec) {
  if (!In.PStates)
    return 0;
  return std::min({Rec.PState, In.Spec.pstateCount() - 1,
                   In.Curves->numPStates() - 1, kMaxPStates - 1});
}

void replayHits(const ReplayInputs &In, const std::vector<Item> &Items,
                RunResult &Result) {
  // The disarmed twin holds the same table G (restored from a snapshot)
  // and no sinks, so armed minus disarmed is what the sinks cost a hit.
  Status Snap = In.Armed->snapshot(In.SnapshotPath);
  Result.check(Snap.ok(), "replay: snapshot failed: " + Snap.message());
  EasConfig Bare;
  Bare.PStates = In.PStates;
  Bare.HistoryFile = In.SnapshotPath;
  EasScheduler Disarmed(*In.Curves, In.Objective, Bare);
  Result.check(Disarmed.restoredRecords() == In.Armed->history().size(),
               "replay: disarmed twin did not restore every table-G record");

  SimProcessor ArmedProc(In.Spec), BareProc(In.Spec);
  Samples ArmedNs, BareNs;
  uint64_t Misses = 0;
  // Round 0 warms both schedulers' buffers and is not timed.
  for (unsigned Round = 0; Round != 4; ++Round)
    for (const Item &It : Items) {
      Clock::time_point T0 = Clock::now();
      auto A = In.Armed->execute(ArmedProc, It.Inv->Kernel,
                                 It.Inv->Iterations, It.Ctx);
      double ArmedSample = nsSince(T0);
      T0 = Clock::now();
      auto B = Disarmed.execute(BareProc, It.Inv->Kernel, It.Inv->Iterations,
                                It.Ctx);
      double BareSample = nsSince(T0);
      Misses += !A.TableHit + !B.TableHit;
      if (Round) {
        ArmedNs.add(ArmedSample);
        BareNs.add(BareSample);
      }
    }
  Result.check(Misses == 0, "replay: a warmed call missed table G");
  Result.set("core.hit_ns_p50", ArmedNs.quantile(0.5));
  Result.set("core.hit_ns_p99", ArmedNs.tail(0.99));
  Result.set("obs.armed_hit_overhead_ns",
             ArmedNs.quantile(0.5) - BareNs.quantile(0.5));
  Disarmed.shutdown(0.0);
  std::remove(In.SnapshotPath.c_str());
}

void replayDispatch(const ReplayInputs &In, const std::vector<Item> &Items,
                    RunResult &Result) {
  SimProcessor Proc(In.Spec);
  Samples Ns;
  for (unsigned Round = 0; Round != 3; ++Round)
    for (const Item &It : Items) {
      if (In.PStates) {
        PStateSpec Cap = In.Spec.pstateAt(learnedPState(In, It.Rec));
        Proc.pcu().setFrequencyCap(Cap.CpuFreqGHz, Cap.GpuFreqGHz);
      }
      Clock::time_point T0 = Clock::now();
      runPartitioned(Proc, It.Inv->Kernel, It.Inv->Iterations,
                     It.Rec.Alpha.value());
      Ns.add(nsSince(T0));
    }
  Result.set("sim.dispatch_ns_p50", Ns.quantile(0.5));
}

void replayLookup(const ReplayInputs &In, const std::vector<Item> &Items,
                  RunResult &Result) {
  Samples Ns;
  KernelRecord Rec;
  for (unsigned Round = 0; Round != 20; ++Round)
    for (size_t Begin = 0; Begin + Batch <= Items.size(); Begin += Batch) {
      Clock::time_point T0 = Clock::now();
      for (size_t I = Begin; I != Begin + Batch; ++I)
        In.Armed->history().lookup(Items[I].Key, Rec);
      Ns.add(nsSince(T0) / Batch);
    }
  Result.set("core.lookup_ns_p50", Ns.quantile(0.5));
}

/// The operating-point search the profiled path runs, rebuilt from each
/// learned record: its throughputs, class, miss ratio and the platform's
/// P-state views, at the remainder N the last repetition searches over.
void replaySearch(const ReplayInputs &In, const std::vector<Item> &Items,
                  RunResult &Result) {
  std::map<uint64_t, const Item *> ByKey;
  for (const Item &It : Items)
    ByKey.emplace(It.Key, &It);
  ClassifierThresholds Thresholds;
  unsigned NumViews =
      In.PStates ? std::min({In.Spec.pstateCount(), In.Curves->numPStates(),
                             kMaxPStates})
                 : 1;
  PStateSpec Full = In.Spec.pstateAt(0);
  Samples Ns;
  Samples Evals;
  for (const auto &[Key, It] : ByKey) {
    const KernelRecord &Rec = It->Rec;
    if (Rec.Sample.CpuThroughput <= 0.0 && Rec.Sample.GpuThroughput <= 0.0)
      continue;
    TimeModel Model(Rec.Sample.CpuThroughput, Rec.Sample.GpuThroughput);
    PStateView Views[kMaxPStates];
    for (unsigned S = 0; S != NumViews; ++S) {
      PStateSpec State = In.Spec.pstateAt(S);
      Views[S].Curve = &In.Curves->stateCurves(S).curveFor(Rec.Class);
      Views[S].CpuFreqScale = S == 0 ? 1.0 : State.CpuFreqGHz / Full.CpuFreqGHz;
      Views[S].GpuFreqScale = S == 0 ? 1.0 : State.GpuFreqGHz / Full.GpuFreqGHz;
    }
    OperatingPointSearchConfig Search;
    if (Rec.Sample.MissPerLoadStore > 0.0)
      Search.MemBoundFraction = std::min(
          Rec.Sample.MissPerLoadStore / Thresholds.MemoryIntensity, 1.0);
    double N = std::max(It->Inv->Iterations * 0.5, 1.0);
    for (unsigned R = 0; R != 200; ++R) {
      Clock::time_point T0 = Clock::now();
      Decision Choice =
          chooseOperatingPoint(Model, Views, NumViews, In.Objective, N, Search);
      Ns.add(nsSince(T0));
      if (R == 0)
        Evals.add(Choice.Evaluations);
    }
  }
  Result.set("core.search_ns_p50", Ns.quantile(0.5));
  Result.set("core.search_evals", Evals.mean());
}

/// profileOnce over each distinct kernel's first profitable invocation,
/// repeated the way the profiled path repeats it (until half is left).
void replayProfile(const ReplayInputs &In, RunResult &Result) {
  double GpuProfileSize = In.Spec.defaultGpuProfileSize();
  std::map<uint64_t, const KernelInvocation *> Firsts;
  for (const KernelInvocation &Inv : *In.Work)
    if (Inv.Iterations >= GpuProfileSize)
      Firsts.emplace(Inv.Kernel.Id, &Inv);
  Samples Us;
  for (unsigned Round = 0; Round != 3; ++Round)
    for (const auto &[Id, Inv] : Firsts) {
      SimProcessor Proc(In.Spec);
      OnlineProfiler Profiler(Proc, GpuProfileSize);
      double Nrem = Inv->Iterations;
      for (unsigned Rep = 0; Rep != 64 && Nrem > 0.5 * Inv->Iterations;
           ++Rep) {
        Clock::time_point T0 = Clock::now();
        ProfileSample Sample = Profiler.profileOnce(Inv->Kernel, Nrem);
        Us.add(nsSince(T0) / 1e3);
        if (Sample.ElapsedSeconds <= 0.0)
          break;
      }
    }
  Result.set("profile.rep_us_p50", Us.quantile(0.5));
}

void replayService(const ReplayInputs &In, const std::vector<Item> &Items,
                   RunResult &Result) {
  Xoshiro256 Rng(In.Seed ^ 0xad315510ULL);
  std::vector<RequestContext> Contexts;
  for (const Item &It : Items)
    Contexts.push_back(drawRequest(Rng, It.Ctx.TenantId));

  AdmissionPolicy Policy;
  Policy.Workers = 3;
  AdmissionController Admission(Policy);
  constexpr size_t LaneCap = 64;
  Samples AdmitNs;
  uint64_t Admitted = 0;
  for (unsigned Round = 0; Round != 20; ++Round)
    for (size_t Begin = 0; Begin + Batch <= Contexts.size(); Begin += Batch) {
      Clock::time_point T0 = Clock::now();
      for (size_t I = Begin; I != Begin + Batch; ++I)
        Admitted += Admission.admit(Contexts[I], I % LaneCap, LaneCap)
                        .admitted();
      AdmitNs.add(nsSince(T0) / Batch);
    }
  Result.check(Admitted > 0, "replay: admission rejected every request");
  Result.set("service.admit_ns_p50", AdmitNs.quantile(0.5));

  SlaQueue Queue(LaneCap);
  Samples QueueNs;
  uint64_t Lost = 0;
  for (unsigned Round = 0; Round != 5; ++Round)
    for (size_t Begin = 0; Begin + Batch <= Items.size(); Begin += Batch) {
      Clock::time_point T0 = Clock::now();
      for (size_t I = Begin; I != Begin + Batch; ++I) {
        QueuedRequest Request;
        Request.Kernel = Items[I].Inv->Kernel;
        Request.Iterations = Items[I].Inv->Iterations;
        Request.Ctx = Contexts[I];
        Request.Sequence = I;
        Lost += !Queue.tryPush(std::move(Request));
        Lost += !Queue.tryPop().has_value();
      }
      QueueNs.add(nsSince(T0) / Batch);
    }
  Result.check(Lost == 0, "replay: SLA queue lost a request");
  Result.set("service.queue_push_pop_ns_p50", QueueNs.quantile(0.5));
}

} // namespace

void perfbench::replayLayers(const ReplayInputs &In, RunResult &Result) {
  std::vector<Item> Items = hitItems(In, In.Spec.defaultGpuProfileSize());
  Result.check(Items.size() >= Batch, "replay: too few warmed calls");
  if (Items.size() < Batch)
    return;
  replayHits(In, Items, Result);
  replayDispatch(In, Items, Result);
  replayLookup(In, Items, Result);
  replaySearch(In, Items, Result);
  replayProfile(In, Result);
  replayService(In, Items, Result);
}
