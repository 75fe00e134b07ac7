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

  /// True when this repetition observed any GPU fault.
  bool faulted() const { return GpuLaunchFailed || GpuHung; }

  /// Merges another repetition into this sample: iteration counts,
  /// busy seconds, elapsed time and instructions add; the throughputs
  /// are recomputed from the summed iterations and busy seconds; the
  /// miss ratio is blended weighted by elapsed time.
  void accumulate(const ProfileSample &Other);
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
  /// the same measurements bit for bit.
  ProfileSample profileOnce(const KernelDesc &Kernel, double &RemainingIters);

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

} // namespace ecas

#endif // ECAS_PROFILE_ONLINEPROFILER_H
