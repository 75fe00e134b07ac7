//===-- ecas/fault/GpuHealth.h - GPU quarantine state machine --*- C++ -*-===//
//
// Part of the ecas project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The degradation policy's bookkeeping: a three-state machine tracking
/// whether the runtime may hand work to the GPU.
///
///   Healthy ──hang / launch abandoned──▶ Quarantined
///   Quarantined ──backoff expires──▶ Probing (next dispatch re-probes)
///   Probing ──dispatch succeeds──▶ Healthy   (recovery; backoff resets)
///   Probing ──dispatch fails──▶ Quarantined  (backoff doubles)
///
/// The monitor is pure policy over observations the runtime already has
/// (an enqueue failed, a watchdog expired, a dispatch completed); it
/// never inspects the injector, so the same code path would govern a
/// real driver. Corbera et al.'s point that degradation is part of the
/// scheduler, not an afterthought, is realized here: every execution
/// primitive consults this monitor before touching the GPU.
///
//===----------------------------------------------------------------------===//

#ifndef ECAS_FAULT_GPUHEALTH_H
#define ECAS_FAULT_GPUHEALTH_H

#include "ecas/obs/FlightRecorder.h"
#include "ecas/obs/Metrics.h"
#include "ecas/support/HotPath.h"
#include "ecas/support/ThreadAnnotations.h"

#include <atomic>

namespace ecas {

/// Tunables of the retry / quarantine / re-probe policy.
struct GpuHealthConfig {
  /// Enqueue retries before a launch is abandoned to the CPU.
  unsigned MaxLaunchRetries = 3;
  /// First retry delay; doubles per attempt up to the cap.
  double InitialRetryBackoffSec = 100e-6;
  double RetryBackoffMultiplier = 2.0;
  double MaxRetryBackoffSec = 10e-3;
  /// First quarantine length; doubles per re-quarantine up to the cap,
  /// and resets on a successful recovery.
  double InitialQuarantineSec = 0.05;
  double QuarantineBackoffMultiplier = 2.0;
  double MaxQuarantineSec = 2.0;
  /// Hang watchdog: the GPU is declared hung when a dispatch shows no
  /// iteration progress across one whole poll interval.
  double WatchdogPollSec = 0.02;
};

enum class GpuHealthState { Healthy, Quarantined, Probing };

/// Returns "healthy", "quarantined", or "probing".
const char *gpuHealthStateName(GpuHealthState State);

/// Tracks GPU availability for one execution context (an
/// ExecutionSession run or an EasScheduler instance). Internally
/// synchronized: concurrent EasScheduler clients observe and feed the
/// state machine under one mutex, so transitions stay atomic (a probe
/// grant and its counter bump cannot interleave with a quarantine).
class GpuHealthMonitor {
public:
  explicit GpuHealthMonitor(GpuHealthConfig Config = {});

  const GpuHealthConfig &config() const { return Config; }
  GpuHealthState state() const {
    LockGuard Lock(Mutex);
    return State;
  }

  /// True while no fault has ever been observed — callers use this to
  /// stay on the exact fault-free fast path. Lock-free: the scheduler
  /// consults it on every dispatch, and taking the leaf mutex per
  /// decision would put a lock on the ECAS_HOT table-hit path. The
  /// mirror is published (release) under the mutex at the first fault;
  /// a stale true is indistinguishable from the dispatch having been
  /// ordered before that fault.
  ECAS_HOT bool pristine() const {
    return PristineFast.load(std::memory_order_acquire);
  }

  /// May the runtime hand work to the GPU at \p NowSec? While
  /// quarantined, returns false until the backoff expires; the first
  /// query after expiry transitions to Probing and returns true, making
  /// the caller's next dispatch the re-probe. Healthy and Probing states
  /// answer from a lock-free mirror; only the Quarantined expiry check
  /// (which may transition to Probing) takes the leaf mutex.
  ECAS_HOT bool gpuUsable(double NowSec);

  /// A single enqueue attempt failed (will be retried).
  void noteLaunchFailure(double NowSec);
  /// Retries exhausted; the launch was rerouted to the CPU. Quarantines.
  void noteLaunchAbandoned(double NowSec);
  /// The watchdog declared a dispatch hung. Quarantines.
  void noteHang(double NowSec);
  /// A GPU dispatch ran to completion. From Probing this is the
  /// recovery that re-admits the device and resets the backoff. From
  /// Healthy it changes nothing and returns after one mirror load.
  void noteGpuSuccess(double NowSec);

  /// Reaction-side tallies (what the policy did, not what was injected).
  struct Stats {
    unsigned LaunchFailures = 0;
    unsigned LaunchesAbandoned = 0;
    unsigned HangsDetected = 0;
    unsigned Quarantines = 0;
    unsigned ProbesAttempted = 0;
    unsigned Recoveries = 0;
  };
  /// Consistent copy of the tallies (by value: the live counters mutate
  /// under the monitor's mutex).
  Stats stats() const {
    LockGuard Lock(Mutex);
    return Counters;
  }

  /// Monotone recovery counter; schedulers compare it across
  /// invocations to notice a re-admission and re-optimize alpha.
  /// Lock-free mirror of Counters.Recoveries, read once per decision.
  ECAS_HOT unsigned recoveries() const {
    return RecoveriesFast.load(std::memory_order_acquire);
  }

  double quarantinedUntil() const {
    LockGuard Lock(Mutex);
    return QuarantinedUntil;
  }

  /// Counters and recorders for the reaction-side transitions (hang,
  /// quarantine, probe, recovery; recorders also get launch retries).
  /// All are fed after the monitor's mutex is released: it is a
  /// documented leaf, so no other lock (a recorder's included) may be
  /// acquired under it. Null members are skipped. Attach before
  /// concurrent use — the EasScheduler constructor does — because the
  /// hook pointers themselves are unsynchronized (the counters and
  /// recorders they point at are thread-safe).
  struct MetricHooks {
    obs::Counter *Hangs = nullptr;
    obs::Counter *Quarantines = nullptr;
    obs::Counter *Probes = nullptr;
    obs::Counter *Recoveries = nullptr;
    /// Recorders that get each transition as a "health" instant stamped
    /// with the observation's virtual time: the capture trace
    /// (EasConfig::Trace) and the flight ring (DESIGN.md §16), which
    /// gets them even without a registry, so a crash bundle carries the
    /// hang/quarantine timeline.
    obs::FlightRecorder *Trace = nullptr;
    obs::FlightRecorder *Flight = nullptr;
  };
  void setMetrics(const MetricHooks &Hooks) { Metrics = Hooks; }

private:
  void quarantine(double NowSec) ECAS_REQUIRES(Mutex);
  /// Emits the "health" instant \p Name at virtual time \p NowSec to
  /// each attached recorder. Never called with the mutex held.
  void emit(const char *Name, double NowSec,
            const char *Detail = "") const;

  GpuHealthConfig Config;
  /// Leaf lock: nothing else is acquired while this monitor's mutex is
  /// held (DESIGN.md §9 lock hierarchy).
  mutable AnnotatedMutex Mutex{"GpuHealth"};
  GpuHealthState State ECAS_GUARDED_BY(Mutex) = GpuHealthState::Healthy;
  //===--------------------------------------------------------------===//
  // Lock-free fast-path mirrors (DESIGN.md §14). The guarded fields
  // above stay authoritative; every transition republishes the mirrors
  // (release stores under the mutex) so the per-decision reads —
  // pristine(), recoveries(), and gpuUsable()'s Healthy/Probing answer —
  // cost one atomic load instead of a leaf-mutex round trip.
  //===--------------------------------------------------------------===//
  std::atomic<GpuHealthState> StateFast{GpuHealthState::Healthy};
  std::atomic<bool> PristineFast{true};
  std::atomic<unsigned> RecoveriesFast{0};
  Stats Counters ECAS_GUARDED_BY(Mutex);
  bool Pristine ECAS_GUARDED_BY(Mutex) = true;
  double QuarantinedUntil ECAS_GUARDED_BY(Mutex) = 0.0;
  double CurrentQuarantineSec ECAS_GUARDED_BY(Mutex);
  /// Not guarded: written once by setMetrics() before concurrent use.
  MetricHooks Metrics;
};

} // namespace ecas

#endif // ECAS_FAULT_GPUHEALTH_H
