//===-- ecas/profile/OnlineProfiler.cpp - Adaptive online profiling -------===//
//
// Part of the ecas project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "ecas/profile/OnlineProfiler.h"

#include "ecas/support/Assert.h"
#include "ecas/support/Format.h"

#include <algorithm>

using namespace ecas;

void ProfileSample::accumulate(const ProfileSample &Other) {
  if (ElapsedSeconds + Other.ElapsedSeconds <= 0.0) {
    *this = Other;
    return;
  }
  addSums(Other);
  updateThroughputs();
}

void SampleWeightedAlpha::addSample(double Alpha, double Weight) {
  ECAS_CHECK(Alpha >= 0.0 && Alpha <= 1.0, "alpha must be in [0,1]");
  ECAS_CHECK(Weight >= 0.0, "sample weight cannot be negative");
  WeightedSum += Alpha * Weight;
  TotalWeight += Weight;
}

double SampleWeightedAlpha::value() const {
  ECAS_CHECK(TotalWeight > 0.0, "no alpha samples accumulated");
  return WeightedSum / TotalWeight;
}

SampleWeightedAlpha SampleWeightedAlpha::fromParts(double WeightedSum,
                                                   double TotalWeight) {
  ECAS_CHECK(TotalWeight >= 0.0, "total weight cannot be negative");
  SampleWeightedAlpha Alpha;
  Alpha.WeightedSum = WeightedSum;
  Alpha.TotalWeight = TotalWeight;
  return Alpha;
}

OnlineProfiler::OnlineProfiler(SimProcessor &Proc, double GpuProfileSize)
    : Proc(Proc), GpuProfileSize(GpuProfileSize) {
  ECAS_CHECK(GpuProfileSize > 0.0, "GPU profile size must be positive");
}

void OnlineProfiler::setWatchdogPollSec(double Seconds) {
  ECAS_CHECK(Seconds > 0.0, "watchdog poll interval must be positive");
  WatchdogPollSec = Seconds;
}

ProfileSample OnlineProfiler::profileOnce(const KernelDesc &Kernel,
                                          double &RemainingIters) {
  ProfileSample Sample;
  if (RemainingIters <= 0.0)
    return Sample;

  FaultInjector *Faults = Proc.faults();

  // A refused profiling enqueue measures nothing; report the failure and
  // let the scheduler's policy decide between retrying and degrading.
  if (Faults && Faults->gpuLaunchFails(Proc.now())) {
    Sample.GpuLaunchFailed = true;
    if (Trace)
      Trace->instant("profile", "profile-launch-failed",
                     obs::VirtualTime(Proc.now()));
    return Sample;
  }

  double GpuChunk = std::min(GpuProfileSize, RemainingIters);
  double CpuShare = RemainingIters - GpuChunk;

  PerfCounters CpuBefore = Proc.cpu().counters();
  PerfCounters GpuBefore = Proc.gpu().counters();
  double Start = Proc.now();
  double HostStart = Trace ? obs::FlightRecorder::hostSeconds() : 0.0;

  // Fig. 7 step 32: the proxy waits for the GPU chunk while the CPU
  // workers drain the pool; then (step 33) it terminates the CPU
  // workers, returning their unprocessed share to the pool.
  double Unprocessed = 0.0;
  if (!Faults) {
    // The exact unbounded wait. A repetition that would take the same
    // slices as the last stepped one is charged from its plan.
    Unprocessed = Proc.runRepetition(Kernel, GpuChunk, CpuShare, Plan);
  } else {
    // With an injector active the wait is guarded by a progress
    // watchdog: a GPU that stays busy without retiring an iteration
    // across a whole poll interval is declared hung and its unprocessed
    // chunk cancelled.
    Proc.gpu().enqueue(Kernel, GpuChunk);
    if (CpuShare > 0.0)
      Proc.cpu().enqueue(Kernel, CpuShare);
    while (Proc.gpu().busy()) {
      double PendingBefore = Proc.gpu().pendingIterations();
      Proc.runUntilGpuIdle(WatchdogPollSec);
      if (Proc.gpu().busy() &&
          Proc.gpu().pendingIterations() >= PendingBefore - 1e-9) {
        Sample.GpuHung = true;
        Proc.gpu().cancelRemaining();
        break;
      }
    }
    Unprocessed = Proc.cpu().cancelRemaining();
  }

  double Elapsed = Proc.now() - Start;
  PerfCounters CpuDelta = Proc.cpu().counters() - CpuBefore;
  PerfCounters GpuDelta = Proc.gpu().counters() - GpuBefore;

  // On the clean path the GPU processed its whole chunk by construction;
  // under faults, trust only what the counters saw retire.
  Sample.GpuIterations = Sample.GpuHung ? GpuDelta.IterationsDone : GpuChunk;
  Sample.CpuIterations = CpuShare - Unprocessed;
  Sample.ElapsedSeconds = Elapsed;
  // Throughputs come from per-device execution time: the CPU's busy
  // seconds (it may run out of pool before the GPU finishes) and the
  // GPU's kernel-event window (launch overhead excluded — what OpenCL
  // profiling events report). One bulk launch for the post-profiling
  // remainder amortizes its own dispatch cost, so folding per-chunk
  // launch overhead into R_G would bias alpha against the GPU.
  Sample.CpuBusySeconds = CpuDelta.BusySeconds;
  Sample.GpuBusySeconds = GpuDelta.BusySeconds;
  if (CpuDelta.BusySeconds > 0.0)
    Sample.CpuThroughput = Sample.CpuIterations / CpuDelta.BusySeconds;
  if (GpuDelta.BusySeconds > 0.0)
    Sample.GpuThroughput = Sample.GpuIterations / GpuDelta.BusySeconds;
  Sample.MissPerLoadStore = CpuDelta.missPerLoadStore();
  Sample.InstructionsRetired = CpuDelta.InstructionsRetired;
  if (Faults) {
    // Counter-noise faults perturb what PCM-style reads report, not what
    // the hardware did: independent draws per counter, as each MSR read
    // glitches on its own.
    Sample.MissPerLoadStore *= Faults->counterNoiseScale(Proc.now());
    Sample.InstructionsRetired *= Faults->counterNoiseScale(Proc.now());
  }

  RemainingIters -= Sample.GpuIterations + Sample.CpuIterations;
  RemainingIters = std::max(RemainingIters, 0.0);
  if (RepSeconds && Sample.ElapsedSeconds > 0.0)
    RepSeconds->record(Sample.ElapsedSeconds);
  if (Trace)
    Trace->completeSpan(
        "profile", "profile-rep", HostStart,
        obs::FlightRecorder::hostSeconds() - HostStart,
        obs::VirtualTime(Start),
        formatString("cpu=%.0f gpu=%.0f elapsed=%.6fs%s",
                     Sample.CpuIterations, Sample.GpuIterations,
                     Sample.ElapsedSeconds, Sample.GpuHung ? " hung" : ""));
  return Sample;
}

WorkloadClass
OnlineProfiler::classify(const ProfileSample &Sample, double RemainingIters,
                         const ClassifierThresholds &Thresholds) const {
  // Single-device estimates for the remaining work use the combined-mode
  // throughputs: the best black-box estimate available without running
  // more experiments (Section 5's Short/Long criterion).
  double CpuSeconds = Sample.CpuThroughput > 0.0
                          ? RemainingIters / Sample.CpuThroughput
                          : 1e30;
  double GpuSeconds = Sample.GpuThroughput > 0.0
                          ? RemainingIters / Sample.GpuThroughput
                          : 1e30;
  return classifyWorkload(Sample.MissPerLoadStore, CpuSeconds, GpuSeconds,
                          Thresholds);
}
