//===-- ecas/profile/OnlineProfiler.h - Adaptive online profiling *- C++ -*==//
//
// Part of the ecas project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The lightweight online profiling of Section 3.1 (after Kaleem et al.,
/// PACT'14): the GPU proxy offloads GPU_PROFILE_SIZE iterations while CPU
/// workers drain the shared pool; when the GPU chunk completes, the CPU
/// side is halted and per-device throughputs plus hardware-counter
/// readings are extracted. Profiling runs against the simulated
/// processor, so everything the scheduler learns comes through the same
/// black-box channels it would use on real silicon.
///
//===----------------------------------------------------------------------===//

#ifndef ECAS_PROFILE_ONLINEPROFILER_H
#define ECAS_PROFILE_ONLINEPROFILER_H

#include "ecas/device/KernelDesc.h"
#include "ecas/obs/Metrics.h"
#include "ecas/obs/FlightRecorder.h"
#include "ecas/profile/WorkloadClass.h"
#include "ecas/sim/SimProcessor.h"
#include "ecas/support/HotPath.h"

#include <algorithm>
#include <cfloat>
#include <optional>

namespace ecas {

/// One profiling repetition's measurements.
struct ProfileSample {
  /// Combined-mode device throughputs in iterations/second (R_C, R_G).
  double CpuThroughput = 0.0;
  double GpuThroughput = 0.0;
  double CpuIterations = 0.0;
  double GpuIterations = 0.0;
  double ElapsedSeconds = 0.0;
  /// Per-device execution time underlying the throughput estimates.
  double CpuBusySeconds = 0.0;
  double GpuBusySeconds = 0.0;
  /// LLC misses per load-store over the profiled CPU execution.
  double MissPerLoadStore = 0.0;
  double InstructionsRetired = 0.0;
  /// The GPU refused the profiling enqueue; the repetition measured
  /// nothing and the scheduler should fall back to resilient execution.
  bool GpuLaunchFailed = false;
  /// The watchdog saw the GPU chunk stop retiring; its unprocessed share
  /// was returned to the pool and the throughputs cover only what ran.
  bool GpuHung = false;

  /// Merges another repetition into this sample: iteration counts,
  /// busy seconds, elapsed time and instructions add; the throughputs
  /// are recomputed from the summed iterations and busy seconds; the
  /// miss ratio is blended weighted by elapsed time. When neither sample
  /// has elapsed time, this one becomes \p Other.
  void accumulate(const ProfileSample &Other);

  /// accumulate() without the throughputs, which it never reads: a run
  /// of addSums() calls and then updateThroughputs() leaves the bits the
  /// same run of accumulate() calls leaves, given samples whose
  /// throughputs come from their own sums (as profileOnce() makes them).
  void addSums(const ProfileSample &Other) {
    double SelfTime = ElapsedSeconds;
    double OtherTime = Other.ElapsedSeconds;
    double Total = SelfTime + OtherTime;
    if (Total <= 0.0) {
      *this = Other;
      return;
    }
    GpuLaunchFailed = GpuLaunchFailed || Other.GpuLaunchFailed;
    GpuHung = GpuHung || Other.GpuHung;
    CpuIterations += Other.CpuIterations;
    GpuIterations += Other.GpuIterations;
    CpuBusySeconds += Other.CpuBusySeconds;
    GpuBusySeconds += Other.GpuBusySeconds;
    InstructionsRetired += Other.InstructionsRetired;
    // Time-weighted blend of the ratio statistics.
    MissPerLoadStore = (MissPerLoadStore * SelfTime +
                        Other.MissPerLoadStore * OtherTime) /
                       Total;
    ElapsedSeconds = Total;
  }

  /// The throughputs from the summed iterations and busy seconds.
  void updateThroughputs() {
    CpuThroughput =
        CpuBusySeconds > 0.0 ? CpuIterations / CpuBusySeconds : 0.0;
    GpuThroughput =
        GpuBusySeconds > 0.0 ? GpuIterations / GpuBusySeconds : 0.0;
  }

  /// True when updateThroughputs() would certainly find a positive GPU
  /// throughput, without dividing: at least one GPU iteration over a
  /// positive, finite busy time.
  bool gpuThroughputPositive() const {
    return GpuIterations >= 1.0 && GpuBusySeconds > 0.0 &&
           GpuBusySeconds <= DBL_MAX;
  }
};

/// Sample-weighted accumulator for the GPU offload ratio across kernel
/// invocations ([12]'s technique, Fig. 7 step 26): each alpha estimate is
/// weighted by the number of iterations that produced it.
class SampleWeightedAlpha {
public:
  void addSample(double Alpha, double Weight);
  bool hasValue() const { return TotalWeight > 0.0; }
  double value() const;

  /// Accumulator internals, exposed for exact round-trips through the
  /// durable table-G snapshots (value() alone cannot reconstruct the
  /// weight future merges blend against).
  double weightedSum() const { return WeightedSum; }
  double totalWeight() const { return TotalWeight; }
  static SampleWeightedAlpha fromParts(double WeightedSum,
                                       double TotalWeight);

private:
  double WeightedSum = 0.0;
  double TotalWeight = 0.0;
};

/// Runs profiling repetitions on a simulated processor.
class OnlineProfiler {
public:
  /// \p GpuProfileSize is the per-repetition GPU chunk (Fig. 7 step 31);
  /// pick it from PlatformSpec::defaultGpuProfileSize().
  OnlineProfiler(SimProcessor &Proc, double GpuProfileSize);

  /// Hang-watchdog poll interval used while a fault injector is active
  /// on the processor (no effect otherwise); schedulers propagate their
  /// GpuHealthConfig::WatchdogPollSec here.
  void setWatchdogPollSec(double Seconds);

  /// Attaches a trace recorder (nullptr detaches): each repetition then
  /// emits a "profile-rep" span covering its virtual-time window, with
  /// the measured split in the detail. Purely observational — the
  /// profiler's measurements and RemainingIters arithmetic are
  /// bit-identical with or without a recorder.
  void setTrace(obs::FlightRecorder *Recorder) { Trace = Recorder; }

  /// Attaches a histogram (nullptr detaches) that receives each
  /// repetition's elapsed virtual seconds (eas_profile_rep_seconds) —
  /// the per-repetition cost underlying the paper's "low overhead"
  /// claim. Purely observational, like setTrace().
  void setRepSeconds(obs::Histogram *H) { RepSeconds = H; }

  /// One repetition: offloads min(GpuProfileSize, remaining) iterations
  /// of \p Kernel to the GPU while the CPU drains the rest of the shared
  /// pool; on GPU completion the CPU share is cancelled back into the
  /// pool. \p RemainingIters is decremented by everything processed.
  /// Without a fault injector the simulator runs it through
  /// SimProcessor::runRepetition() and the plan kept here, so a steady
  /// repetition costs a replay of the last stepped one's slices, with
  /// the same measurements bit for bit. profileReplayed() runs the steady
  /// repetitions that follow one of these in a batch.
  ProfileSample profileOnce(const KernelDesc &Kernel, double &RemainingIters);

  /// The repetitions that follow a profileOnce() of \p Kernel, batched.
  /// Each is what profileOnce() would do next, charged from the plan it
  /// kept: the same additions to the simulator, the same sample bits.
  ///
  /// Checked once: no trace recorder attached (it times each
  /// repetition's span), a full GpuProfileSize chunk left, and
  /// SimProcessor::canReplay(). Then, per repetition, while
  /// \p RemainingIters is above \p Floor and a full chunk is left:
  /// - SimProcessor::ReplayBatch::checkRepetition() (the epoch, the CPU
  ///   share's drain and rate) must hold, or the batch ends before the
  ///   repetition;
  /// - \p Fn(NowSec), the caller's stop check, must be false, or the
  ///   batch ends there too. NowSec is the batch's virtual time, which
  ///   the processor's now() shows only after the batch. It is asked once
  ///   for each repetition the batch runs, and not for one the batch
  ///   leaves to the caller;
  /// - the repetition is charged, its counter deltas make the sample,
  ///   RemainingIters goes down as profileOnce() takes it down, and the
  ///   rep histogram records the elapsed time;
  /// - the sample is added to \p Into, then to \p AlsoInto, two distinct
  ///   samples (ProfileSample::addSums()). The batch ends after a
  ///   repetition that might leave \p Into without a positive GPU
  ///   throughput, so a caller that stops on a sample with none checks
  ///   \p Into after the batch.
  /// The simulator's state, the pool and both samples stay in locals and
  /// are stored back once, after the batch; both samples' throughputs
  /// are computed then, from the final sums. \returns the repetitions
  /// run. The next one, if any, goes through profileOnce().
  template <typename FnT>
  ECAS_HOT ECAS_NOINLINE unsigned
  profileReplayed(const KernelDesc &Kernel, double &RemainingIters,
                  double Floor, ProfileSample &Into, ProfileSample &AlsoInto,
                  const FnT &Fn);

  /// Classifies from a (possibly accumulated) sample: single-device
  /// completion estimates for the remaining iterations are derived from
  /// the measured combined-mode throughputs.
  WorkloadClass classify(const ProfileSample &Sample, double RemainingIters,
                         const ClassifierThresholds &Thresholds = {}) const;

private:
  SimProcessor &Proc;
  double GpuProfileSize;
  double WatchdogPollSec = 0.02;
  obs::FlightRecorder *Trace = nullptr;
  obs::Histogram *RepSeconds = nullptr;
  SimProcessor::RepetitionPlan Plan;
};

template <typename FnT>
ECAS_HOT ECAS_NOINLINE unsigned
OnlineProfiler::profileReplayed(const KernelDesc &Kernel,
                                double &RemainingIters, double Floor,
                                ProfileSample &Into, ProfileSample &AlsoInto,
                                const FnT &Fn) {
  if (Trace || !(RemainingIters > Floor && RemainingIters >= GpuProfileSize) ||
      !Proc.canReplay(Plan, Kernel, GpuProfileSize))
    return 0;
  SimProcessor::ReplayBatch Sim(Proc, Plan);
  double Remaining = RemainingIters;
  ProfileSample Local = Into;
  ProfileSample Also = AlsoInto;
  unsigned Repetitions = 0;
  while (Remaining > Floor && Remaining >= GpuProfileSize) {
    double CpuShare = Remaining - GpuProfileSize;
    std::optional<double> Unprocessed = Sim.checkRepetition(CpuShare);
    if (!Unprocessed || Fn(Sim.now()))
      break;
    double Start = Sim.now();
    const PerfCounters &Cpu = Sim.cpuCounters();
    double CpuBusyBefore = Cpu.BusySeconds;
    double GpuBusyBefore = Sim.gpuCounters().BusySeconds;
    double LoadStoresBefore = Cpu.LoadStores;
    double MissesBefore = Cpu.LlcMisses;
    double InstructionsBefore = Cpu.InstructionsRetired;
    Sim.chargeRepetition();
    // profileOnce()'s sample, field for field, without the throughputs.
    ProfileSample Sample;
    Sample.GpuIterations = GpuProfileSize;
    Sample.CpuIterations = CpuShare - *Unprocessed;
    Sample.ElapsedSeconds = Sim.now() - Start;
    Sample.CpuBusySeconds = Cpu.BusySeconds - CpuBusyBefore;
    Sample.GpuBusySeconds = Sim.gpuCounters().BusySeconds - GpuBusyBefore;
    double LoadStores = Cpu.LoadStores - LoadStoresBefore;
    Sample.MissPerLoadStore =
        LoadStores > 0.0 ? (Cpu.LlcMisses - MissesBefore) / LoadStores : 0.0;
    Sample.InstructionsRetired = Cpu.InstructionsRetired - InstructionsBefore;
    Remaining -= Sample.GpuIterations + Sample.CpuIterations;
    Remaining = std::max(Remaining, 0.0);
    if (RepSeconds && Sample.ElapsedSeconds > 0.0)
      // A lock-free bucket increment (obs/Metrics.cpp).
      // ecas-hotpath: allow(extern-call)
      RepSeconds->record(Sample.ElapsedSeconds);
    Local.addSums(Sample);
    Also.addSums(Sample);
    ++Repetitions;
    if (!Local.gpuThroughputPositive())
      break;
  }
  Sim.writeBack();
  if (Repetitions != 0) {
    RemainingIters = Remaining;
    Local.updateThroughputs();
    Also.updateThroughputs();
    Into = Local;
    AlsoInto = Also;
  }
  return Repetitions;
}

} // namespace ecas

#endif // ECAS_PROFILE_ONLINEPROFILER_H
