//===-- ecas/fault/GpuHealth.cpp - GPU quarantine state machine -----------===//
//
// Part of the ecas project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "ecas/fault/GpuHealth.h"

#include "ecas/support/Assert.h"

#include <algorithm>

using namespace ecas;

const char *ecas::gpuHealthStateName(GpuHealthState State) {
  switch (State) {
  case GpuHealthState::Healthy:
    return "healthy";
  case GpuHealthState::Quarantined:
    return "quarantined";
  case GpuHealthState::Probing:
    return "probing";
  }
  ECAS_UNREACHABLE("unknown health state");
}

GpuHealthMonitor::GpuHealthMonitor(GpuHealthConfig ConfigIn)
    : Config(ConfigIn), CurrentQuarantineSec(Config.InitialQuarantineSec) {
  ECAS_CHECK(Config.InitialQuarantineSec > 0.0 &&
                 Config.QuarantineBackoffMultiplier >= 1.0,
             "quarantine backoff must be positive and non-shrinking");
  ECAS_CHECK(Config.WatchdogPollSec > 0.0,
             "watchdog poll interval must be positive");
}

bool GpuHealthMonitor::gpuUsable(double NowSec) {
  // Steady-state fast path: a Healthy (or already-Probing) device needs
  // no bookkeeping, so one mirror load answers without the leaf mutex.
  // A stale Healthy read racing a quarantine is benign — equivalent to
  // this dispatch having been ordered just before the fault.
  GpuHealthState Fast = StateFast.load(std::memory_order_acquire);
  if (Fast != GpuHealthState::Quarantined)
    return true;

  bool Probing = false;
  bool Usable = [&] {
    // Quarantine slow path: only reached when the atomic mirror above
    // already said Quarantined, never on the pristine fast path.
    LockGuard Lock(Mutex); // ecas-hotpath: allow(lock)
    switch (State) {
    case GpuHealthState::Healthy:
    case GpuHealthState::Probing:
      return true;
    case GpuHealthState::Quarantined:
      if (NowSec < QuarantinedUntil)
        return false;
      State = GpuHealthState::Probing;
      StateFast.store(GpuHealthState::Probing, std::memory_order_release);
      ++Counters.ProbesAttempted;
      Probing = true;
      return true;
    }
    ECAS_UNREACHABLE("unknown health state");
  }();
  // Leaf-lock discipline: events and counter bumps only after the
  // mutex is released.
  if (Probing) {
    emit("probe", NowSec);
    if (Metrics.Probes)
      Metrics.Probes->add();
  }
  return Usable;
}

void GpuHealthMonitor::emit(const char *Name, double NowSec,
                            const char *Detail) const {
  for (obs::FlightRecorder *Recorder : {Metrics.Trace, Metrics.Flight})
    if (Recorder)
      Recorder->instant("health", Name, obs::VirtualTime(NowSec), Detail);
}

void GpuHealthMonitor::quarantine(double NowSec) {
  ++Counters.Quarantines;
  State = GpuHealthState::Quarantined;
  StateFast.store(GpuHealthState::Quarantined, std::memory_order_release);
  QuarantinedUntil = NowSec + CurrentQuarantineSec;
  CurrentQuarantineSec =
      std::min(CurrentQuarantineSec * Config.QuarantineBackoffMultiplier,
               Config.MaxQuarantineSec);
}

// Fault-mode bookkeeping: runPartitionedResilient only calls the
// note*() mutators when fault injection is live or health has already
// degraded; the pristine steady state takes the lock-free legacy path.
// ecas-hotpath: allow(lock)
void GpuHealthMonitor::noteLaunchFailure(double NowSec) {
  {
    LockGuard Lock(Mutex);
    Pristine = false;
    PristineFast.store(false, std::memory_order_release);
    ++Counters.LaunchFailures;
  }
  emit("launch-retry", NowSec);
}

// ecas-hotpath: allow(lock)
void GpuHealthMonitor::noteLaunchAbandoned(double NowSec) {
  {
    LockGuard Lock(Mutex);
    Pristine = false;
    PristineFast.store(false, std::memory_order_release);
    ++Counters.LaunchesAbandoned;
    quarantine(NowSec);
  }
  emit("quarantine", NowSec, "launch-abandoned");
  if (Metrics.Quarantines)
    Metrics.Quarantines->add();
}

// ecas-hotpath: allow(lock)
void GpuHealthMonitor::noteHang(double NowSec) {
  {
    LockGuard Lock(Mutex);
    Pristine = false;
    PristineFast.store(false, std::memory_order_release);
    ++Counters.HangsDetected;
    quarantine(NowSec);
  }
  emit("hang", NowSec);
  emit("quarantine", NowSec, "hang");
  if (Metrics.Hangs)
    Metrics.Hangs->add();
  if (Metrics.Quarantines)
    Metrics.Quarantines->add();
}

// ecas-hotpath: allow(lock)
void GpuHealthMonitor::noteGpuSuccess(double NowSec) {
  // Steady-state fast path, as in gpuUsable(): from Healthy the slow
  // path below would only store Healthy over Healthy. Profiling notes a
  // success every repetition, so this keeps the leaf mutex off that
  // loop. A stale Healthy read racing a quarantine orders this success
  // just before the fault.
  if (StateFast.load(std::memory_order_acquire) == GpuHealthState::Healthy)
    return;
  bool Recovered = false;
  {
    LockGuard Lock(Mutex);
    if (State == GpuHealthState::Probing) {
      ++Counters.Recoveries;
      RecoveriesFast.store(Counters.Recoveries, std::memory_order_release);
      CurrentQuarantineSec = Config.InitialQuarantineSec;
      Recovered = true;
    }
    State = GpuHealthState::Healthy;
    StateFast.store(GpuHealthState::Healthy, std::memory_order_release);
  }
  if (Recovered) {
    emit("recovery", NowSec);
    if (Metrics.Recoveries)
      Metrics.Recoveries->add();
  }
}
