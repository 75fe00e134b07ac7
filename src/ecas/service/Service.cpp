//===-- ecas/service/Service.cpp - Multi-tenant service front end ---------===//
//
// Part of the ecas project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "ecas/service/Service.h"

#include "ecas/obs/MetricNames.h"
#include "ecas/obs/MetricsExport.h"
#include "ecas/service/Control.h"
#include "ecas/support/Assert.h"
#include "ecas/support/Format.h"

#include <algorithm>
#include <chrono>

using namespace ecas;

Status ServiceConfig::validate() const {
  auto Invalid = [](std::string Message) {
    return Status::error(ErrCode::InvalidArgument, std::move(Message));
  };
  if (Workers == 0)
    return Invalid("service needs at least one worker");
  if (!Weights.valid())
    return Invalid("every SLA dequeue weight must be >= 1");
  if (DrainGraceSec < 0.0)
    return Invalid(formatString("negative drain grace %g", DrainGraceSec));
  if (IdleFlushSec < 0.0)
    return Invalid(formatString("negative idle-flush tick %g", IdleFlushSec));
  AdmissionPolicy Effective = Admission;
  Effective.Workers = Workers;
  return Effective.validate();
}

int ecas::serveExitCode(const ServiceStats &Stats,
                        double ShedThresholdFraction) {
  if (Stats.Sla0DeadlineMisses > 0)
    return 1;
  if (Stats.shedFraction() > ShedThresholdFraction)
    return 1;
  return 0;
}

namespace {
AdmissionPolicy effectivePolicy(const ServiceConfig &Config) {
  AdmissionPolicy Policy = Config.Admission;
  Policy.Workers = Config.Workers;
  return Policy;
}

double hostSteadySeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
} // namespace

ServiceFrontEnd::ServiceFrontEnd(EasScheduler &SchedulerIn,
                                 const PlatformSpec &SpecIn,
                                 ServiceConfig ConfigIn)
    : Scheduler(SchedulerIn), Spec(SpecIn), Config(std::move(ConfigIn)),
      Queue(Config.QueueCapPerClass, Config.Weights),
      Admission(effectivePolicy(Config), &Scheduler.health()) {
  if (Status Valid = Config.validate(); !Valid.ok())
    reportFatalError(Valid.toString().c_str(), __FILE__, __LINE__);
  if (!Config.Clock)
    Config.Clock = hostSteadySeconds;
  // Uptime is observability, not scheduling: read the host clock
  // directly so statusz never perturbs an injected Config.Clock's call
  // sequence (deterministic step-clock tests depend on it).
  StartSec = hostSteadySeconds();
  registerInstruments();
  {
    LockGuard Lock(TokenMutex);
    ActiveTokens.resize(Config.Workers);
  }
  WorkerThreads.reserve(Config.Workers);
  for (unsigned I = 0; I != Config.Workers; ++I)
    WorkerThreads.emplace_back([this, I] { workerLoop(I); });
}

ServiceFrontEnd::~ServiceFrontEnd() { shutdown(); }

void ServiceFrontEnd::registerInstruments() {
  obs::MetricsRegistry *M = Config.Metrics;
  if (!M)
    return;
  const std::vector<double> WaitBuckets = obs::logBuckets(1e-4, 2.0, 20);
  for (unsigned I = 0; I != NumSlaClasses; ++I) {
    obs::MetricLabels BySla{{"sla", slaClassName(slaFromIndex(I))}};
    Ins.Submitted[I] = &M->counter(obs::names::ServiceSubmittedTotal, BySla,
                                   "Requests offered to the service");
    Ins.Completed[I] = &M->counter(obs::names::ServiceCompletedTotal, BySla,
                                   "Requests executed to completion");
    Ins.Cancelled[I] =
        &M->counter(obs::names::ServiceCancelledTotal, BySla,
                    "Requests cut short mid-flight (deadline token or "
                    "shutdown hard-stop)");
    Ins.QueueDepth[I] = &M->gauge(obs::names::ServiceQueueDepth, BySla,
                                  "Requests currently queued in this lane");
    Ins.QueueWait[I] =
        &M->histogram(obs::names::ServiceQueueWaitSeconds, WaitBuckets, BySla,
                      "Service-clock seconds between enqueue and dequeue");
    Ins.DeadlineMiss[I] = &M->counter(
        obs::names::ServiceDeadlineMissTotal, BySla,
        "Requests that blew their deadline while the service owned them "
        "(shed in queue, cancelled by their token, or completed late)");
  }
  Ins.Admitted = &M->counter(obs::names::ServiceAdmittedTotal, {},
                             "Requests that entered a queue lane");
  Ins.RejectedOverloaded =
      &M->counter(obs::names::ServiceRejectedTotal,
                  {{"reason", "overloaded"}},
                  "Submissions bounced by backpressure");
  Ins.RejectedInfeasible =
      &M->counter(obs::names::ServiceRejectedTotal,
                  {{"reason", "deadline_infeasible"}},
                  "Submissions whose deadline could not be met");
  Ins.RetryAfter = &M->histogram(obs::names::ServiceRetryAfterSeconds,
                                 obs::logBuckets(1e-3, 2.0, 16), {},
                                 "Backoff hints handed to rejected clients");
}

obs::Counter *ServiceFrontEnd::shedCounter(const QueuedRequest &Request) {
  if (!Config.Metrics)
    return nullptr;
  // Registered on demand: the tenant label space is open-ended, and
  // shedding is off the submit/execute fast paths, so the registry's
  // find-or-create mutex is acceptable here.
  return &Config.Metrics->counter(
      obs::names::ServiceShedTotal,
      {{"tenant", formatString("%llu", static_cast<unsigned long long>(
                                           Request.Ctx.TenantId))},
       {"sla", slaClassName(Request.Ctx.Sla)}},
      "Requests dropped at dequeue because their deadline expired while "
      "queued");
}

void ServiceFrontEnd::updateDepthGauges() {
  if (!Config.Metrics)
    return;
  for (unsigned I = 0; I != NumSlaClasses; ++I)
    Ins.QueueDepth[I]->set(
        static_cast<double>(Queue.depth(slaFromIndex(I))));
}

void ServiceFrontEnd::accountDeadlineMiss(SlaClass Sla) {
  unsigned I = slaIndex(Sla);
  ++Counts.DeadlineMissesBySla[I];
  if (Sla == SlaClass::Sla0)
    ++Counts.Sla0DeadlineMisses;
}

void ServiceFrontEnd::bumpTenant(uint64_t TenantId,
                                 uint64_t ServiceStats::TenantBucket::*Field) {
  for (size_t I = 0; I != Counts.TenantsTracked; ++I) {
    if (Counts.Tenants[I].TenantId == TenantId) {
      ++(Counts.Tenants[I].*Field);
      return;
    }
  }
  if (Counts.TenantsTracked < ServiceStats::MaxTrackedTenants) {
    ServiceStats::TenantBucket &Bucket =
        Counts.Tenants[Counts.TenantsTracked++];
    Bucket.TenantId = TenantId;
    ++(Bucket.*Field);
    return;
  }
  ++Counts.TenantsUntracked;
}

SubmitResult ServiceFrontEnd::submit(const KernelDesc &Kernel,
                                     double Iterations,
                                     const RequestContext &Ctx) {
  SubmitResult Result;
  Result.Sequence = NextSequence.fetch_add(1, std::memory_order_relaxed);
  unsigned Sla = slaIndex(Ctx.Sla);
  {
    LockGuard Lock(StatsMutex);
    ++Counts.Submitted;
    ++Counts.SubmittedBySla[Sla];
    bumpTenant(Ctx.TenantId, &ServiceStats::TenantBucket::Submitted);
  }
  if (Ins.Submitted[Sla])
    Ins.Submitted[Sla]->add();

  auto Reject = [&](Status Verdict, double RetryAfterSec) {
    {
      LockGuard Lock(StatsMutex);
      ++Counts.Rejected;
      ++Counts.RejectedBySla[Sla];
    }
    if (Config.Metrics) {
      obs::Counter *C = Verdict.code() == ErrCode::Overloaded
                            ? Ins.RejectedOverloaded
                            : Ins.RejectedInfeasible;
      C->add();
      if (RetryAfterSec > 0.0)
        Ins.RetryAfter->record(RetryAfterSec);
    }
    Result.Verdict = std::move(Verdict);
    Result.RetryAfterSec = RetryAfterSec;
    return Result;
  };

  if (!Accepting.load(std::memory_order_acquire))
    return Reject(Status::error(ErrCode::Overloaded,
                                "service is shutting down"),
                  0.0);

  AdmissionController::Decision Decision =
      Admission.admit(Ctx, Queue.depth(Ctx.Sla), Queue.capacityPerClass());
  if (!Decision.admitted())
    return Reject(std::move(Decision.Verdict), Decision.RetryAfterSec);

  QueuedRequest Request;
  Request.Kernel = Kernel;
  Request.Iterations = Iterations;
  Request.Ctx = Ctx;
  Request.EnqueueSec = Config.Clock();
  Request.Sequence = Result.Sequence;
  if (!Queue.tryPush(std::move(Request))) {
    // Lost the race against concurrent producers (or the queue closed
    // between the accepting check and the push); same verdict as a full
    // lane seen at admission time.
    double RetryAfter = Admission.policy().MinRetryAfterSec;
    return Reject(
        Status::error(ErrCode::Overloaded,
                      formatString("%s lane filled while admitting",
                                   slaClassName(Ctx.Sla))),
        RetryAfter);
  }

  if (Ins.Admitted)
    Ins.Admitted->add();
  updateDepthGauges();
  return Result;
}

void ServiceFrontEnd::accountShed(const QueuedRequest &Request,
                                  double WaitSec) {
  unsigned Sla = slaIndex(Request.Ctx.Sla);
  {
    LockGuard Lock(StatsMutex);
    ++Counts.Shed;
    ++Counts.ShedBySla[Sla];
    // Shedding only happens to requests whose deadline expired in queue,
    // so every shed is by definition a deadline miss.
    accountDeadlineMiss(Request.Ctx.Sla);
    bumpTenant(Request.Ctx.TenantId, &ServiceStats::TenantBucket::Shed);
    Counts.MaxQueueWaitSec[Sla] =
        std::max(Counts.MaxQueueWaitSec[Sla], WaitSec);
  }
  if (obs::Counter *C = shedCounter(Request))
    C->add();
  if (Ins.DeadlineMiss[Sla])
    Ins.DeadlineMiss[Sla]->add();
  if (Ins.QueueWait[Sla])
    Ins.QueueWait[Sla]->record(WaitSec);
  if (Config.Flight)
    Config.Flight->instant("service", "shed", {}, {}, WaitSec);
}

void ServiceFrontEnd::accountCancelled(const QueuedRequest &Request,
                                       bool DeadlineMiss) {
  unsigned Sla = slaIndex(Request.Ctx.Sla);
  {
    LockGuard Lock(StatsMutex);
    ++Counts.Cancelled;
    ++Counts.CancelledBySla[Sla];
    if (DeadlineMiss)
      accountDeadlineMiss(Request.Ctx.Sla);
    bumpTenant(Request.Ctx.TenantId,
               &ServiceStats::TenantBucket::Cancelled);
  }
  if (Ins.Cancelled[Sla])
    Ins.Cancelled[Sla]->add();
  if (DeadlineMiss) {
    if (Ins.DeadlineMiss[Sla])
      Ins.DeadlineMiss[Sla]->add();
    if (Config.Flight)
      Config.Flight->instant("service", "deadline-miss");
  }
}

void ServiceFrontEnd::accountCompleted(const QueuedRequest &Request,
                                       double WaitSec, double ServiceSec) {
  unsigned Sla = slaIndex(Request.Ctx.Sla);
  bool MissedDeadline =
      Request.Ctx.hasDeadline() &&
      WaitSec + ServiceSec > Request.Ctx.DeadlineSec;
  {
    LockGuard Lock(StatsMutex);
    ++Counts.Completed;
    ++Counts.CompletedBySla[Sla];
    if (MissedDeadline)
      accountDeadlineMiss(Request.Ctx.Sla);
    bumpTenant(Request.Ctx.TenantId,
               &ServiceStats::TenantBucket::Completed);
    Counts.MaxQueueWaitSec[Sla] =
        std::max(Counts.MaxQueueWaitSec[Sla], WaitSec);
  }
  if (Ins.Completed[Sla])
    Ins.Completed[Sla]->add();
  if (MissedDeadline) {
    if (Ins.DeadlineMiss[Sla])
      Ins.DeadlineMiss[Sla]->add();
    if (Config.Flight)
      Config.Flight->instant("service", "deadline-miss");
  }
  if (Ins.QueueWait[Sla])
    Ins.QueueWait[Sla]->record(WaitSec);
}

void ServiceFrontEnd::workerLoop(unsigned WorkerIndex) {
  SimProcessor Proc(Spec);
  const bool IdleTick =
      Config.IdleFlushSec > 0.0 && Scheduler.journaling();
  while (true) {
    std::optional<QueuedRequest> Request =
        IdleTick ? Queue.popFor(Config.IdleFlushSec) : Queue.pop();
    if (!Request) {
      // Once closed, depth only shrinks, so closed-and-empty is a
      // stable exit condition; closed with residue means a push raced
      // our timeout — loop and pop it.
      if (Queue.closed() && Queue.totalDepth() == 0)
        break;
      // Idle: commit the journal's group-commit tail so a lull (or a
      // kill -9 during one) costs nothing that was enqueued before it.
      (void)Scheduler.flushJournal();
      continue;
    }
    InFlight.fetch_add(1, std::memory_order_acq_rel);
    updateDepthGauges();
    double NowSec = Config.Clock();
    double WaitSec = std::max(0.0, NowSec - Request->EnqueueSec);

    // Register this request's token before judging anything, under the
    // same mutex the hard-stop takes: either the hard-stop sees (and
    // cancels) the token, or this worker sees HardStop — no window where
    // a request slips past both.
    CancellationToken Token;
    bool Stopped;
    {
      LockGuard Lock(TokenMutex);
      Stopped = HardStop;
      if (!Stopped)
        ActiveTokens[WorkerIndex] = Token;
    }
    if (Stopped) {
      // Shutdown hard-stop: void residual queued work without running it.
      accountCancelled(*Request, /*DeadlineMiss=*/false);
      InFlight.fetch_sub(1, std::memory_order_acq_rel);
      continue;
    }

    // Deadline-aware shedding happens here — after the queue wait is
    // known, strictly before any profiling or dispatch starts. Once
    // execution begins, a blown deadline is the token's business (a
    // cancellation, not a shed).
    if (Request->Ctx.hasDeadline() &&
        WaitSec >= Request->Ctx.DeadlineSec) {
      {
        LockGuard Lock(TokenMutex);
        ActiveTokens[WorkerIndex].reset();
      }
      accountShed(*Request, WaitSec);
      InFlight.fetch_sub(1, std::memory_order_acq_rel);
      continue;
    }

    // The remaining budget becomes an absolute deadline on this worker's
    // virtual clock; the scheduler's cooperative points honour it.
    if (Request->Ctx.hasDeadline())
      Token.setDeadline(Proc.now() +
                        (Request->Ctx.DeadlineSec - WaitSec));

    double ExecStart = Proc.now();
    EasScheduler::InvocationOutcome Outcome = Scheduler.execute(
        Proc, Request->Kernel, Request->Iterations, Request->Ctx, &Token);
    double ExecSec = Proc.now() - ExecStart;

    bool StoppedDuringRun;
    {
      LockGuard Lock(TokenMutex);
      StoppedDuringRun = HardStop;
      ActiveTokens[WorkerIndex].reset();
    }

    if (Outcome.Rejected || Outcome.Cancelled) {
      // A rejected outcome means the scheduler itself is shutting down;
      // a cancelled one means the deadline token (or the hard-stop)
      // fired mid-flight. Only a genuine deadline expiry counts as an
      // SLA0 miss.
      bool DeadlineMiss = Outcome.Cancelled && !StoppedDuringRun &&
                          Request->Ctx.hasDeadline();
      accountCancelled(*Request, DeadlineMiss);
    } else {
      accountCompleted(*Request, WaitSec, ExecSec);
      Admission.noteServiceTime(ExecSec);
    }
    InFlight.fetch_sub(1, std::memory_order_acq_rel);
  }
}

Status ServiceFrontEnd::startControl(const std::string &SocketPath) {
  if (Control && Control->running())
    return Status::error(ErrCode::InvalidArgument,
                         "control endpoint already started");
  if (!Control)
    Control = std::make_unique<service::ControlServer>();
  Control->setHandler("statusz", [this] { return renderStatusz(); });
  Control->setHandler("metricz", [this] {
    if (!Config.Metrics)
      return std::string("err no metrics registry\n");
    return obs::renderPrometheus(Config.Metrics->snapshot());
  });
  std::function<std::string()> Dump = DumpHook;
  Control->setHandler("dump", [Dump] {
    if (!Dump)
      return std::string("err no dump hook\n");
    return Dump();
  });
  return Control->start(SocketPath);
}

void ServiceFrontEnd::setDumpHook(std::function<std::string()> Hook) {
  DumpHook = std::move(Hook);
}

std::string ecas::renderTableGDigest(const EasScheduler &Scheduler) {
  std::vector<std::pair<uint64_t, KernelRecord>> Entries =
      Scheduler.history().entries();
  uint64_t Confident = 0, CpuOnly = 0, Invocations = 0, Quarantined = 0;
  for (const auto &[Key, Rec] : Entries) {
    Confident += Rec.Confident ? 1 : 0;
    CpuOnly += Rec.CpuOnly ? 1 : 0;
    Invocations += Rec.Invocations;
    Quarantined += Rec.QuarantinedRuns;
  }
  std::string Out = formatString(
      "tableg entries=%zu confident=%llu cpu_only=%llu invocations=%llu "
      "quarantined_runs=%llu\n",
      Entries.size(), static_cast<unsigned long long>(Confident),
      static_cast<unsigned long long>(CpuOnly),
      static_cast<unsigned long long>(Invocations),
      static_cast<unsigned long long>(Quarantined));
  // Bound the per-entry listing so a statusz against a huge table stays
  // a screenful; the summary line above is always complete.
  constexpr size_t MaxListed = 64;
  size_t Listed = std::min(Entries.size(), MaxListed);
  for (size_t I = 0; I != Listed; ++I) {
    const auto &[Key, Rec] = Entries[I];
    // Entries mid-profiling have no alpha samples yet; -1 marks "not
    // yet measured" without tripping the accumulator's own check.
    double Alpha = Rec.Alpha.hasValue() ? Rec.Alpha.value() : -1.0;
    Out += formatString(
        "tableg_entry key=%llu class=%s alpha=%.3f pstate=%u "
        "invocations=%u quarantined=%u confident=%d cpu_only=%d\n",
        static_cast<unsigned long long>(Key), Rec.Class.name().c_str(), Alpha,
        Rec.PState, Rec.Invocations, Rec.QuarantinedRuns,
        Rec.Confident ? 1 : 0, Rec.CpuOnly ? 1 : 0);
  }
  if (Entries.size() > MaxListed)
    Out += formatString("tableg_elided %zu\n", Entries.size() - MaxListed);
  return Out;
}

std::string ServiceFrontEnd::renderStatusz() const {
  ServiceStats Stats = stats();
  std::string Out = "ecas-statusz v1\n";
  Out += formatString("uptime_sec %.3f\n", hostSteadySeconds() - StartSec);
  Out += formatString("accepting %d\n", accepting() ? 1 : 0);
  Out += formatString("workers %u\n", Config.Workers);
  for (unsigned I = 0; I != NumSlaClasses; ++I) {
    SlaClass Sla = slaFromIndex(I);
    Out += formatString(
        "sla %s depth=%zu submitted=%llu rejected=%llu shed=%llu "
        "completed=%llu cancelled=%llu deadline_miss=%llu "
        "max_wait_sec=%.6f\n",
        slaClassName(Sla), Queue.depth(Sla),
        static_cast<unsigned long long>(Stats.SubmittedBySla[I]),
        static_cast<unsigned long long>(Stats.RejectedBySla[I]),
        static_cast<unsigned long long>(Stats.ShedBySla[I]),
        static_cast<unsigned long long>(Stats.CompletedBySla[I]),
        static_cast<unsigned long long>(Stats.CancelledBySla[I]),
        static_cast<unsigned long long>(Stats.DeadlineMissesBySla[I]),
        Stats.MaxQueueWaitSec[I]);
  }
  for (size_t I = 0; I != Stats.TenantsTracked; ++I) {
    const ServiceStats::TenantBucket &Bucket = Stats.Tenants[I];
    Out += formatString(
        "tenant %llu submitted=%llu completed=%llu shed=%llu "
        "cancelled=%llu\n",
        static_cast<unsigned long long>(Bucket.TenantId),
        static_cast<unsigned long long>(Bucket.Submitted),
        static_cast<unsigned long long>(Bucket.Completed),
        static_cast<unsigned long long>(Bucket.Shed),
        static_cast<unsigned long long>(Bucket.Cancelled));
  }
  if (Stats.TenantsUntracked)
    Out += formatString("tenants_untracked %llu\n",
                        static_cast<unsigned long long>(
                            Stats.TenantsUntracked));
  Out += renderTableGDigest(Scheduler);
  if (Config.Metrics) {
    obs::MetricsSnapshot Snap = Config.Metrics->snapshot();
    for (const obs::MetricSample &Sample : Snap.Samples) {
      if (Sample.Name != obs::names::PStateResidencySeconds)
        continue;
      Out += formatString("pstate %s residency_sec=%.6f\n",
                          Sample.Labels[0].second.c_str(), Sample.Value);
    }
  }
  const GpuHealthMonitor &Health = Scheduler.health();
  GpuHealthMonitor::Stats HealthStats = Health.stats();
  Out += formatString(
      "gpu state=%s hangs=%u quarantines=%u probes=%u recoveries=%u\n",
      gpuHealthStateName(Health.state()), HealthStats.HangsDetected,
      HealthStats.Quarantines, HealthStats.ProbesAttempted,
      HealthStats.Recoveries);
  Out += "end\n";
  return Out;
}

ServiceStats ServiceFrontEnd::shutdown() {
  bool First = false;
  if (!ShutdownStarted.compare_exchange_strong(First, true,
                                               std::memory_order_acq_rel)) {
    UniqueLock Lock(ShutdownMutex);
    while (!ShutdownComplete)
      ShutdownDone.wait(Lock.native());
    return stats();
  }

  // Phase 1: stop admitting and let the workers drain what is queued.
  Accepting.store(false, std::memory_order_release);
  Queue.close();
  using SteadyClock = std::chrono::steady_clock;
  SteadyClock::time_point GraceEnd =
      SteadyClock::now() + std::chrono::duration_cast<SteadyClock::duration>(
                               std::chrono::duration<double>(
                                   std::max(Config.DrainGraceSec, 0.0)));
  auto drained = [this] {
    return Queue.totalDepth() == 0 &&
           InFlight.load(std::memory_order_acquire) == 0;
  };
  while (!drained() && SteadyClock::now() < GraceEnd)
    std::this_thread::sleep_for(std::chrono::microseconds(200));

  // Phase 2: grace expired — cancel in-flight work and void the rest of
  // the queue. Workers observe HardStop before executing anything new.
  if (!drained()) {
    LockGuard Lock(TokenMutex);
    HardStop = true;
    for (std::optional<CancellationToken> &Token : ActiveTokens)
      if (Token)
        Token->cancel();
  }

  for (std::thread &Worker : WorkerThreads)
    Worker.join();
  updateDepthGauges();
  if (Control)
    Control->stop();

  {
    LockGuard Lock(ShutdownMutex);
    ShutdownComplete = true;
  }
  ShutdownDone.notify_all();
  return stats();
}

ServiceStats ServiceFrontEnd::stats() const {
  LockGuard Lock(StatsMutex);
  return Counts;
}
