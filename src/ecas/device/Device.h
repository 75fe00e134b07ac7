//===-- ecas/device/Device.h - Simulated device interface ------*- C++ -*-===//
//
// Part of the ecas project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The device abstraction the simulator steps: a queue of (kernel,
/// iteration-count) work items plus a throughput model. SimCpuDevice and
/// SimGpuDevice specialize rateModel(); everything else — queue
/// management, performance counters, partial-slice accounting — is shared.
///
//===----------------------------------------------------------------------===//

#ifndef ECAS_DEVICE_DEVICE_H
#define ECAS_DEVICE_DEVICE_H

#include "ecas/device/KernelDesc.h"
#include "ecas/hw/PlatformSpec.h"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace ecas {

/// Cumulative hardware-counter state, modeled after what Intel PCM
/// exposes (Section 4 uses PCM to read LLC misses and instructions).
struct PerfCounters {
  double InstructionsRetired = 0.0;
  double LoadStores = 0.0;
  double LlcMisses = 0.0;
  double IterationsDone = 0.0;
  double BytesTransferred = 0.0;
  /// Seconds spent executing kernel iterations (what an OpenCL profiling
  /// event's START..END covers).
  double BusySeconds = 0.0;
  /// Seconds spent in launch/dispatch overhead, excluded from
  /// BusySeconds.
  double SetupSeconds = 0.0;

  PerfCounters operator-(const PerfCounters &Rhs) const;
  /// Misses / load-stores; 0 when no memory ops were counted.
  double missPerLoadStore() const;
};

/// Throughput and power-activity answer for a device at one operating
/// point, before bandwidth arbitration.
struct RatePoint {
  /// Iterations per second, unconstrained by shared DRAM bandwidth.
  double ComputeRate = 0.0;
  /// DRAM demand at ComputeRate, in GB/s.
  double BandwidthDemandGBs = 0.0;
  /// Fraction of cycles stalled on memory at ComputeRate (latency view).
  double LatencyStallFraction = 0.0;
};

/// One device's part in one simulator slice, as advance() charged it.
/// When the slice ran a single phase of one work item (its launch setup
/// or its execution) for the whole slice, this is everything needed to
/// charge that slice again without the rate model: SimProcessor's
/// profiling-repetition replay does, through replaySlice(), and so does
/// its fast-forward of steady slices, through repeatSlice().
struct DeviceSlice {
  /// Phases advance() ran: 0 when idle, more than 1 when an item
  /// finished its setup or drained and the next one started.
  unsigned Phases = 0;
  /// The (last) phase was launch setup, not execution.
  bool Setup = false;
  /// The executed item drained in this slice.
  bool Drained = false;
  /// Iterations retired, and the bandwidth-capped rate they ran at.
  double Iterations = 0.0;
  double EffRate = 0.0;
  /// lastActivity() and lastTrafficGBs() after the slice.
  double Activity = 0.0;
  double TrafficGBs = 0.0;
};

/// One simulated compute device with a FIFO of enqueued kernels.
class SimDevice {
public:
  explicit SimDevice(DeviceKind Kind) : Kind(Kind) {}
  virtual ~SimDevice();

  DeviceKind kind() const { return Kind; }

  /// Appends \p Iterations of \p Kernel to the queue. Iterations may be
  /// fractional (the runtime hands devices fractional shares of N).
  /// Takes the cost slice only (a KernelDesc binds here implicitly), so
  /// queueing work never copies the kernel's name; once the ring below
  /// is warmed, enqueue is allocation-free (DESIGN.md §14).
  void enqueue(const KernelCost &Kernel, double Iterations);

  bool busy() const { return Head < Queue.size(); }

  /// Iterations left across all queued work.
  double pendingIterations() const;

  /// Removes all queued work, returning the number of unprocessed
  /// iterations (profiling uses this to drain the CPU's share when the
  /// GPU proxy finishes its chunk).
  double cancelRemaining();

  /// Unconstrained operating point for the kernel at the queue head.
  /// Idle devices report a zero RatePoint.
  RatePoint currentRate(double FreqGHz) const;

  /// The operating point currentRate() would report for \p Iterations of
  /// \p Kernel enqueued on an idle device, without enqueueing them.
  RatePoint rateFor(const KernelCost &Kernel, double FreqGHz,
                    double Iterations) const {
    return rateModel(Kernel, FreqGHz, Iterations);
  }

  /// Seconds for an item with \p IterationsLeft to drain at \p EffRate.
  static double drainSeconds(double IterationsLeft, double EffRate) {
    return IterationsLeft / EffRate;
  }

  /// True when an item left with \p IterationsLeft after retiring
  /// \p Iterations in a slice counts as drained.
  static bool drainedAfter(double IterationsLeft, double Iterations) {
    return IterationsLeft <= 1e-9 * std::max(1.0, Iterations);
  }

  /// True when an item with \p IterationsLeft, run for \p Dt seconds at
  /// the rate of \p Slice's execution phase, neither drains before the
  /// slice ends (which would end it early) nor drains in it.
  static bool runsUndrained(double IterationsLeft, double Dt,
                            const DeviceSlice &Slice) {
    return drainSeconds(IterationsLeft, Slice.EffRate) >= Dt &&
           !drainedAfter(IterationsLeft - Slice.Iterations, Slice.Iterations);
  }

  /// Seconds until the head work item (including its setup cost) drains
  /// at a fixed operating point; +inf-like sentinel when idle.
  double timeToHeadDrain(double FreqGHz, double BandwidthShareGBs) const;

  /// Advances the device by up to \p Dt seconds at \p FreqGHz, allowed to
  /// draw at most \p BandwidthShareGBs of DRAM bandwidth, and overwrites
  /// \p Record with what the slice charged.
  /// \returns the seconds actually consumed: less than \p Dt only when
  /// the queue empties first.
  double advance(double Dt, double FreqGHz, double BandwidthShareGBs,
                 DeviceSlice &Record);

  /// Charges \p Slice, recorded by advance() over a slice of \p Dt
  /// seconds that ran one phase of an item of \p Kernel, to the counters
  /// and lastActivity()/lastTrafficGBs(), with the same additions
  /// advance() made. The queue is not touched.
  void replaySlice(const KernelCost &Kernel, double Dt,
                   const DeviceSlice &Slice);

  /// True when advance() over the next \p Dt seconds, at the operating
  /// point of the slice of \p Dt seconds it just recorded as \p Slice,
  /// would charge \p Slice again: the device was idle for that slice and
  /// still is, or it ran one execution phase of the head item for all of
  /// it and the item runsUndrained() through the next one too.
  bool canRepeat(double Dt, const DeviceSlice &Slice) const;

  /// A count of slices that canRepeat() certainly allows one after
  /// another, each charged by repeatSlice(), for \p Slice recorded over
  /// the Dt they repeat: unbounded for an idle slice on a device that is
  /// still idle, none when canRepeat() fails now, and otherwise four
  /// short of the head item's iterations left in whole slices, at most
  /// 1024: every one of them then ends more than three slices from
  /// draining, whatever the rounding of the repeated subtraction.
  uint64_t certainRepeats(const DeviceSlice &Slice) const;

  /// Charges \p Slice once more over \p Dt seconds, with the same
  /// additions to the head item, the counters and lastActivity()/
  /// lastTrafficGBs() that advance() would make. canRepeat() must hold.
  void repeatSlice(double Dt, const DeviceSlice &Slice);

  const PerfCounters &counters() const { return Counters; }

  /// Activity factor in [0,1] for the power model during the last
  /// advance() call: blends compute and memory activity by the realized
  /// stall fraction, or the idle activity when nothing ran.
  double lastActivity() const { return LastActivity; }

  /// Achieved DRAM traffic during the last advance() call, in GB/s.
  double lastTrafficGBs() const { return LastTrafficGBs; }

  /// Black-box frequency-hint channel (the paper's stated future work:
  /// runtime feedback into power management). The runtime announces the
  /// fastest clock it wants this device to run at; the substrate clamps
  /// the governor's choice to the hint each slice. 0 (the default)
  /// means no hint and leaves behaviour bit-identical. The scheduler
  /// only writes hints — it never reads simulated frequencies back.
  void setFrequencyHintGHz(double GHz) { FrequencyHintGHz = GHz; }
  double frequencyHintGHz() const { return FrequencyHintGHz; }

protected:
  /// Device-specific throughput model for \p Kernel at \p FreqGHz for a
  /// work item that was enqueued with \p ItemIters iterations (GPUs lose
  /// occupancy on small dispatches — a wave model keyed to the dispatch
  /// size, like a single NDRange with all work items resident).
  virtual RatePoint rateModel(const KernelCost &Kernel, double FreqGHz,
                              double ItemIters) const = 0;

  /// Power-model activity factors for this device.
  virtual const DevicePowerSpec &powerSpec() const = 0;

  /// Drops the head item's cached rate. A subclass calls this when an
  /// input of rateModel other than the frequency changes (the GPU's
  /// fault derate).
  void invalidateRate() {
    if (busy())
      head().RateFreqGHz = -1.0;
  }

private:
  struct WorkItem {
    /// Numeric cost slice only — no name, so a WorkItem is trivially
    /// copyable and queueing one never allocates.
    KernelCost Kernel;
    double IterationsLeft;
    /// Dispatch size at enqueue; fixes the occupancy for the whole item.
    double InitialIterations;
    /// Pending fixed startup cost (GPU launch latency) in seconds.
    double SetupSecondsLeft;
    /// rateModel's answer at RateFreqGHz (negative: none yet). A
    /// simulator step asks for the head's rate three times at one clock
    /// (currentRate, timeToHeadDrain, advance); the model runs once.
    mutable double RateFreqGHz = -1.0;
    mutable RatePoint Rate;
  };

  /// rateModel for \p Item at \p FreqGHz, through the item's cache.
  RatePoint itemRate(const WorkItem &Item, double FreqGHz) const;

  /// The counter additions for \p Iterations of \p Kernel retired.
  void chargeIterations(const KernelCost &Kernel, double Iterations);

  /// Closes a slice: adds \p ExecSeconds of kernel execution to the busy
  /// counter and sets lastActivity()/lastTrafficGBs().
  void closeSlice(double ExecSeconds, double Activity, double TrafficGBs);

  /// FIFO access over the vector-backed ring. The live items are
  /// [Head, Queue.size()); draining resets Head and clear()s the vector
  /// while keeping its capacity, so a warmed device's enqueue/advance
  /// cycle is allocation-free — a std::deque here allocated and freed a
  /// node every few dispatches as the cursor crossed node boundaries.
  const WorkItem &head() const { return Queue[Head]; }
  WorkItem &head() { return Queue[Head]; }
  void popHead();

  DeviceKind Kind;
  std::vector<WorkItem> Queue;
  size_t Head = 0;
  PerfCounters Counters;
  double LastActivity = 0.0;
  double LastTrafficGBs = 0.0;
  double FrequencyHintGHz = 0.0;

protected:
  /// Fixed per-enqueue setup cost; GPU overrides with launch latency.
  virtual double setupSeconds() const { return 0.0; }
};

} // namespace ecas

#endif // ECAS_DEVICE_DEVICE_H
