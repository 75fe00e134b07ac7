//===-- tests/ServiceTest.cpp - multi-tenant service front end ------------===//
//
// Part of the ecas project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// The overload-resilient service layer: bounded rings, the SLA-class
/// weighted-round-robin queue, admission control (backpressure, deadline
/// feasibility, quarantine inflation), per-tenant table-G namespacing,
/// deadline-aware shedding, serve exit-code mapping — and the chaos-soak
/// harness that drives thousands of mixed-SLA requests through a faulty
/// platform and asserts the accounting conservation law, SLA fairness,
/// and graceful shutdown. Sized to stay tractable under TSan.
///
//===----------------------------------------------------------------------===//

#include "ecas/service/Service.h"

#include "ecas/core/EasScheduler.h"
#include "ecas/hw/Presets.h"
#include "ecas/obs/MetricNames.h"
#include "ecas/service/Admission.h"
#include "ecas/service/Bounded.h"
#include "ecas/service/SlaQueue.h"
#include "ecas/sim/SimProcessor.h"
#include "ecas/support/Random.h"

#include "TestSupport.h"

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <thread>
#include <vector>

using namespace ecas;

namespace {

QueuedRequest requestFor(SlaClass Sla, uint64_t Sequence = 0) {
  QueuedRequest Request;
  Request.Kernel = namedKernel("q");
  Request.Iterations = 1.0;
  Request.Ctx.TenantId = 1;
  Request.Ctx.Sla = Sla;
  Request.Sequence = Sequence;
  return Request;
}

} // namespace

//===----------------------------------------------------------------------===//
// BoundedRing
//===----------------------------------------------------------------------===//

TEST(BoundedRing, FifoOrderWithinFixedCapacity) {
  BoundedRing<int> Ring(3);
  EXPECT_TRUE(Ring.empty());
  EXPECT_TRUE(Ring.tryPush(1));
  EXPECT_TRUE(Ring.tryPush(2));
  EXPECT_TRUE(Ring.tryPush(3));
  EXPECT_TRUE(Ring.full());
  EXPECT_FALSE(Ring.tryPush(4));

  EXPECT_EQ(Ring.pop(), 1);
  EXPECT_TRUE(Ring.tryPush(4)); // wraps over the freed slot
  EXPECT_EQ(Ring.pop(), 2);
  EXPECT_EQ(Ring.pop(), 3);
  EXPECT_EQ(Ring.pop(), 4);
  EXPECT_TRUE(Ring.empty());
}

TEST(BoundedRing, ZeroCapacityIsPermanentlyFull) {
  BoundedRing<int> Ring(0);
  EXPECT_TRUE(Ring.empty());
  EXPECT_TRUE(Ring.full());
  EXPECT_FALSE(Ring.tryPush(1));
  EXPECT_FALSE(Ring.tryPush(2));
}

//===----------------------------------------------------------------------===//
// SlaQueue: weighted cross-class dequeue
//===----------------------------------------------------------------------===//

TEST(SlaQueue, WeightedRoundRobinServesStrictestFirstWithoutStarvation) {
  SlaQueue Queue(12); // default weights {6, 3, 1}
  for (unsigned I = 0; I != 12; ++I) {
    ASSERT_TRUE(Queue.tryPush(requestFor(SlaClass::Sla0)));
    ASSERT_TRUE(Queue.tryPush(requestFor(SlaClass::Sla1)));
    ASSERT_TRUE(Queue.tryPush(requestFor(SlaClass::Sla2)));
  }

  std::vector<unsigned> Order;
  while (std::optional<QueuedRequest> Request = Queue.tryPop())
    Order.push_back(slaIndex(Request->Ctx.Sla));
  ASSERT_EQ(Order.size(), 36u);

  // While every lane is nonempty, each refill cycle serves SLA0 first
  // and exactly per the weights: 6x SLA0, then 3x SLA1, then 1x SLA2.
  const std::vector<unsigned> Cycle = {0, 0, 0, 0, 0, 0, 1, 1, 1, 2};
  for (unsigned I = 0; I != 20; ++I)
    EXPECT_EQ(Order[I], Cycle[I % 10]) << "position " << I;

  // Nothing is lost and nothing is starved: all 12 of each class drain.
  unsigned Counts[NumSlaClasses] = {};
  for (unsigned Sla : Order)
    ++Counts[Sla];
  for (unsigned I = 0; I != NumSlaClasses; ++I)
    EXPECT_EQ(Counts[I], 12u) << slaClassName(slaFromIndex(I));

  // SLA2 is served within every full cycle — SLA0 cannot starve it.
  EXPECT_EQ(Order[9], 2u);
  EXPECT_EQ(Order[19], 2u);
}

TEST(SlaQueue, FullLaneAndClosedQueueRejectPushes) {
  SlaQueue Queue(1);
  EXPECT_TRUE(Queue.tryPush(requestFor(SlaClass::Sla1)));
  EXPECT_FALSE(Queue.tryPush(requestFor(SlaClass::Sla1))) << "lane full";
  EXPECT_TRUE(Queue.tryPush(requestFor(SlaClass::Sla2)))
      << "lanes are independent";
  Queue.close();
  EXPECT_TRUE(Queue.closed());
  EXPECT_FALSE(Queue.tryPush(requestFor(SlaClass::Sla0))) << "closed";
  // Already-queued requests stay poppable until drained.
  EXPECT_TRUE(Queue.pop().has_value());
  EXPECT_TRUE(Queue.pop().has_value());
  EXPECT_FALSE(Queue.pop().has_value()) << "closed and drained";
}

TEST(SlaQueue, CloseWakesBlockedPopper) {
  SlaQueue Queue(4);
  std::atomic<bool> PopReturned{false};
  std::thread Popper([&] {
    EXPECT_FALSE(Queue.pop().has_value());
    PopReturned.store(true);
  });
  // The popper blocks on the empty queue until close() wakes it.
  Queue.close();
  Popper.join();
  EXPECT_TRUE(PopReturned.load());
}

//===----------------------------------------------------------------------===//
// Admission control
//===----------------------------------------------------------------------===//

TEST(Admission, ExpiredDeadlineAtSubmitIsInfeasibleWithNoRetry) {
  AdmissionController Ctl(AdmissionPolicy{});
  RequestContext Ctx;
  Ctx.Sla = SlaClass::Sla0;
  Ctx.DeadlineSec = 0.0;
  AdmissionController::Decision D = Ctl.admit(Ctx, 0, 64);
  EXPECT_FALSE(D.admitted());
  EXPECT_EQ(D.Verdict.code(), ErrCode::DeadlineInfeasible);
  EXPECT_EQ(D.RetryAfterSec, 0.0) << "no backoff revives a dead deadline";
}

TEST(Admission, FullLaneIsOverloadedWithBoundedRetryHint) {
  AdmissionPolicy Policy;
  AdmissionController Ctl(Policy);
  RequestContext Ctx; // no deadline
  AdmissionController::Decision D = Ctl.admit(Ctx, 64, 64);
  EXPECT_FALSE(D.admitted());
  EXPECT_EQ(D.Verdict.code(), ErrCode::Overloaded);
  EXPECT_GE(D.RetryAfterSec, Policy.MinRetryAfterSec);
  EXPECT_LE(D.RetryAfterSec, Policy.MaxRetryAfterSec);
}

TEST(Admission, DoomedDeadlineBehindBacklogIsRejected) {
  AdmissionPolicy Policy;
  Policy.Workers = 1;
  Policy.DefaultServiceSec = 0.05;
  AdmissionController Ctl(Policy);
  RequestContext Ctx;
  Ctx.DeadlineSec = 0.1; // 10 queued x 50 ms each cannot fit 100 ms
  AdmissionController::Decision D = Ctl.admit(Ctx, 10, 64);
  EXPECT_FALSE(D.admitted());
  EXPECT_EQ(D.Verdict.code(), ErrCode::DeadlineInfeasible);
  EXPECT_GT(D.RetryAfterSec, 0.0) << "capacity problem: retry is sensible";

  // The same budget sails through an empty lane.
  EXPECT_TRUE(Ctl.admit(Ctx, 0, 64).admitted());
}

TEST(Admission, QuarantineInflatesTheServiceEstimate) {
  GpuHealthMonitor Health;
  AdmissionPolicy Policy;
  Policy.DefaultServiceSec = 0.05;
  Policy.QuarantineInflation = 4.0;
  AdmissionController Ctl(Policy, &Health);

  RequestContext Ctx;
  Ctx.DeadlineSec = 0.1; // fits 50 ms, not 200 ms
  EXPECT_TRUE(Ctl.admit(Ctx, 0, 64).admitted());

  Health.noteHang(0.0);
  ASSERT_EQ(Health.state(), GpuHealthState::Quarantined);
  AdmissionController::Decision D = Ctl.admit(Ctx, 0, 64);
  EXPECT_FALSE(D.admitted());
  EXPECT_EQ(D.Verdict.code(), ErrCode::DeadlineInfeasible);
}

TEST(Admission, EwmaFirstSampleReplacesPriorThenSmooths) {
  AdmissionPolicy Policy;
  Policy.DefaultServiceSec = 0.05;
  Policy.ServiceEwmaAlpha = 0.2;
  AdmissionController Ctl(Policy);
  EXPECT_DOUBLE_EQ(Ctl.estimatedServiceSec(), 0.05);
  Ctl.noteServiceTime(1.0);
  EXPECT_DOUBLE_EQ(Ctl.estimatedServiceSec(), 1.0)
      << "first measurement replaces the prior outright";
  Ctl.noteServiceTime(0.5);
  EXPECT_DOUBLE_EQ(Ctl.estimatedServiceSec(), 1.0 + 0.2 * (0.5 - 1.0));
  Ctl.noteServiceTime(-1.0); // ignored
  EXPECT_DOUBLE_EQ(Ctl.estimatedServiceSec(), 0.9);
}

//===----------------------------------------------------------------------===//
// Per-tenant table-G namespacing
//===----------------------------------------------------------------------===//

TEST(TenantNamespace, AnonymousTenantKeepsRawKernelKey) {
  EXPECT_EQ(namespacedKernelKey(0, 42u), 42u);
  EXPECT_EQ(namespacedKernelKey(0, 0xdeadbeefULL), 0xdeadbeefULL);
}

TEST(TenantNamespace, KeysAreUniqueAcrossTenantsAndNeverZero) {
  std::set<uint64_t> Keys;
  for (uint64_t Tenant = 1; Tenant <= 50; ++Tenant)
    for (uint64_t Kernel = 1; Kernel <= 20; ++Kernel) {
      uint64_t Key = namespacedKernelKey(Tenant, Kernel);
      EXPECT_NE(Key, 0u);
      EXPECT_TRUE(Keys.insert(Key).second)
          << "collision at tenant " << Tenant << " kernel " << Kernel;
    }

  // Adversarial kernel id equal to the tenant's mix word would cancel
  // to zero; the fallback must still produce a nonzero key.
  for (uint64_t Tenant = 1; Tenant <= 10; ++Tenant) {
    SplitMix64 Mixer(Tenant);
    EXPECT_NE(namespacedKernelKey(Tenant, Mixer.next()), 0u);
  }
}

TEST(TenantNamespace, TenantsLearnSeparateTableGRecords) {
  EasScheduler Scheduler(desktopFamily(), Metric::edp(), {});
  SimProcessor Proc(haswellDesktop());
  KernelDesc Kernel = namedKernel("shared-kernel");

  RequestContext TenantA;
  TenantA.TenantId = 1;
  RequestContext TenantB;
  TenantB.TenantId = 2;
  Scheduler.execute(Proc, Kernel, 4e6, TenantA);
  Scheduler.execute(Proc, Kernel, 4e6, TenantB);

  // Same kernel, two tenants, two records — and neither lives under the
  // raw kernel id an anonymous caller would use.
  EXPECT_EQ(Scheduler.history().size(), 2u);
  KernelRecord Rec;
  EXPECT_TRUE(
      Scheduler.history().lookup(namespacedKernelKey(1, Kernel.Id), Rec));
  EXPECT_TRUE(
      Scheduler.history().lookup(namespacedKernelKey(2, Kernel.Id), Rec));
  EXPECT_FALSE(Scheduler.history().lookup(Kernel.Id, Rec));
  EXPECT_TRUE(Scheduler.shutdown().ok());
}

//===----------------------------------------------------------------------===//
// Exit-code mapping
//===----------------------------------------------------------------------===//

TEST(ServeExit, Sla0MissOrShedStormExitsNonzero) {
  ServiceStats Clean;
  Clean.Submitted = 10;
  Clean.Completed = 10;
  EXPECT_EQ(serveExitCode(Clean, 0.5), 0);

  ServiceStats Missed = Clean;
  Missed.Sla0DeadlineMisses = 1;
  EXPECT_EQ(serveExitCode(Missed, 0.5), 1);

  ServiceStats Stormy;
  Stormy.Submitted = 10;
  Stormy.Shed = 6;
  Stormy.Completed = 4;
  EXPECT_EQ(serveExitCode(Stormy, 0.5), 1) << "60% shed over 50% threshold";
  EXPECT_EQ(serveExitCode(Stormy, 0.7), 0) << "under threshold";
}

//===----------------------------------------------------------------------===//
// ServiceFrontEnd
//===----------------------------------------------------------------------===//

TEST(Service, CompletesRequestsAndBalancesTheBooks) {
  EasScheduler Scheduler(desktopFamily(), Metric::edp(), {});
  ServiceConfig Config;
  Config.Workers = 2;
  Config.QueueCapPerClass = 32;
  ServiceFrontEnd Service(Scheduler, haswellDesktop(), Config);

  KernelDesc Kernel = namedKernel("svc");
  for (unsigned I = 0; I != 24; ++I) {
    RequestContext Ctx;
    Ctx.TenantId = 1 + I % 3;
    Ctx.Sla = slaFromIndex(I % NumSlaClasses);
    SubmitResult Result = Service.submit(Kernel, 4e6, Ctx);
    EXPECT_TRUE(Result.admitted()) << Result.Verdict.toString();
    EXPECT_EQ(Result.Sequence, I + 1u) << "sequences are monotone";
  }

  ServiceStats Stats = Service.shutdown();
  EXPECT_TRUE(Stats.consistent());
  EXPECT_EQ(Stats.Submitted, 24u);
  EXPECT_EQ(Stats.Completed, 24u);
  EXPECT_EQ(Stats.Rejected + Stats.Shed + Stats.Cancelled, 0u);

  // Every completion is one table-G invocation, keyed per tenant.
  uint64_t Recorded = 0;
  for (const auto &[Key, Rec] : Scheduler.history().entries())
    Recorded += Rec.Invocations;
  EXPECT_EQ(Recorded, Stats.Completed);
  EXPECT_EQ(Scheduler.history().size(), 3u) << "one record per tenant";
  EXPECT_TRUE(Scheduler.shutdown().ok());
}

TEST(Service, ShedsRequestsWhoseDeadlineExpiredWhileQueued) {
  EasScheduler Scheduler(desktopFamily(), Metric::edp(), {});
  obs::MetricsRegistry Registry;
  ServiceConfig Config;
  Config.Workers = 1;
  Config.Metrics = &Registry;
  // Step clock: the submit stamps enqueue time 0, every later reading
  // (the worker's dequeue) sees t=100 — deterministically past any
  // queued deadline without sleeping.
  auto Calls = std::make_shared<std::atomic<unsigned>>(0);
  Config.Clock = [Calls] {
    return Calls->fetch_add(1, std::memory_order_relaxed) == 0 ? 0.0 : 100.0;
  };
  ServiceFrontEnd Service(Scheduler, haswellDesktop(), Config);

  RequestContext Ctx;
  Ctx.TenantId = 7;
  Ctx.Sla = SlaClass::Sla0;
  Ctx.DeadlineSec = 50.0; // feasible at admission, expired at dequeue
  ASSERT_TRUE(Service.submit(namedKernel("shed-me"), 4e6, Ctx).admitted());

  ServiceStats Stats = Service.shutdown();
  EXPECT_TRUE(Stats.consistent());
  EXPECT_EQ(Stats.Shed, 1u);
  EXPECT_EQ(Stats.ShedBySla[0], 1u);
  EXPECT_EQ(Stats.Completed, 0u) << "shed strictly before dispatch";
  EXPECT_EQ(Stats.Sla0DeadlineMisses, 1u);
  EXPECT_EQ(serveExitCode(Stats, 0.99), 1) << "an SLA0 miss is never clean";
  EXPECT_EQ(Scheduler.history().size(), 0u)
      << "a shed request must not touch table G";
  EXPECT_EQ(Registry.snapshot().total(obs::names::ServiceShedTotal), 1.0);
  EXPECT_TRUE(Scheduler.shutdown().ok());
}

TEST(Service, RejectsSubmissionsAfterShutdown) {
  EasScheduler Scheduler(desktopFamily(), Metric::edp(), {});
  ServiceFrontEnd Service(Scheduler, haswellDesktop());
  ServiceStats First = Service.shutdown();
  EXPECT_TRUE(First.consistent());
  EXPECT_FALSE(Service.accepting());

  RequestContext Ctx;
  SubmitResult Result = Service.submit(namedKernel("late"), 1e6, Ctx);
  EXPECT_FALSE(Result.admitted());
  EXPECT_EQ(Result.Verdict.code(), ErrCode::Overloaded);
  EXPECT_EQ(Result.RetryAfterSec, 0.0) << "the service is not coming back";

  // Idempotent: a second shutdown returns the same (consistent) stats.
  ServiceStats Second = Service.shutdown();
  EXPECT_TRUE(Second.consistent());
  EXPECT_EQ(Second.Submitted, First.Submitted + 1);
  EXPECT_TRUE(Scheduler.shutdown().ok());
}

//===----------------------------------------------------------------------===//
// Chaos soak
//===----------------------------------------------------------------------===//

namespace {

/// Drives \p Tenants client threads x \p PerTenant mixed-SLA requests
/// through a service front end on a faulty platform and asserts the
/// invariants every soak must uphold: the accounting conservation law,
/// progress for every SLA class, per-tenant table-G consistency, and a
/// graceful, idempotent shutdown.
void runChaosSoak(const std::string &Scenario, unsigned Tenants,
                  unsigned PerTenant) {
  PlatformSpec Spec = faultySpec(Scenario);
  obs::MetricsRegistry Registry;
  EasConfig SchedulerConfig;
  SchedulerConfig.Metrics = &Registry;
  EasScheduler Scheduler(desktopFamily(), Metric::edp(), SchedulerConfig);

  ServiceConfig Config;
  Config.Workers = 3;
  Config.QueueCapPerClass = 8;
  Config.Metrics = &Registry;
  ServiceFrontEnd Service(Scheduler, Spec, Config);

  std::vector<KernelDesc> Kernels;
  for (unsigned I = 0; I != 4; ++I)
    Kernels.push_back(namedKernel("soak-" + std::to_string(I)));

  std::atomic<uint64_t> Admitted{0}, Bounced{0};
  std::vector<std::thread> Clients;
  for (unsigned T = 0; T != Tenants; ++T)
    Clients.emplace_back([&, T] {
      Xoshiro256 Rng(0xc0ffee + T);
      for (unsigned I = 0; I != PerTenant; ++I) {
        RequestContext Ctx;
        Ctx.TenantId = T + 1;
        Ctx.Sla = slaFromIndex(I % NumSlaClasses);
        // SLA0/SLA1 carry deadlines; some are born impossibly tight so
        // admission, shedding, and mid-flight cancellation all fire.
        if (Ctx.Sla == SlaClass::Sla0)
          Ctx.DeadlineSec = Rng.nextDouble(1e-5, 0.5);
        else if (Ctx.Sla == SlaClass::Sla1)
          Ctx.DeadlineSec = Rng.nextDouble(1e-3, 2.0);
        SubmitResult Result = Service.submit(
            Kernels[I % Kernels.size()], Rng.nextDouble(1e5, 8e6), Ctx);
        if (Result.admitted())
          ++Admitted;
        else
          ++Bounced;
        // Light pacing so the workers interleave with the producers:
        // without it the whole offered load bursts in before anything
        // drains and the soak only ever exercises the rejection path.
        if ((I & 7) == 0)
          std::this_thread::yield();
      }
    });
  for (std::thread &Client : Clients)
    Client.join();

  ServiceStats Stats = Service.shutdown();

  // The conservation law: nothing is lost, nothing is double-counted.
  EXPECT_TRUE(Stats.consistent())
      << Stats.Submitted << " != " << Stats.Rejected << " + " << Stats.Shed
      << " + " << Stats.Completed << " + " << Stats.Cancelled;
  EXPECT_EQ(Stats.Submitted, uint64_t(Tenants) * PerTenant);
  EXPECT_EQ(Stats.Rejected, Bounced.load());
  EXPECT_EQ(Stats.Shed + Stats.Completed + Stats.Cancelled, Admitted.load());

  // Fairness under overload: the strict class makes progress AND the
  // background class is not starved out by it.
  EXPECT_GT(Stats.CompletedBySla[slaIndex(SlaClass::Sla0)] +
                Stats.ShedBySla[slaIndex(SlaClass::Sla0)] +
                Stats.CancelledBySla[slaIndex(SlaClass::Sla0)],
            0u);
  EXPECT_GT(Stats.CompletedBySla[slaIndex(SlaClass::Sla2)], 0u)
      << "SLA2 must complete work even while SLA0/SLA1 flood the queue";

  // Table-G consistency: exactly one invocation per completion (shed
  // and cancelled requests must not inflate the learned history), and
  // every record lives under some tenant's namespaced key.
  uint64_t Recorded = 0;
  for (const auto &[Key, Rec] : Scheduler.history().entries()) {
    Recorded += Rec.Invocations;
    bool Namespaced = false;
    for (uint64_t T = 1; T <= Tenants && !Namespaced; ++T)
      for (const KernelDesc &Kernel : Kernels)
        if (Key == namespacedKernelKey(T, Kernel.Id)) {
          Namespaced = true;
          break;
        }
    EXPECT_TRUE(Namespaced) << "stray table-G key " << Key;
  }
  EXPECT_EQ(Recorded, Stats.Completed);

  // Shutdown is idempotent and final.
  ServiceStats Again = Service.shutdown();
  EXPECT_EQ(Again.Submitted, Stats.Submitted);
  RequestContext Late;
  EXPECT_FALSE(Service.submit(Kernels[0], 1e6, Late).admitted());
  EXPECT_TRUE(Scheduler.shutdown().ok());

  // The metrics taxonomy agrees with the stats it mirrors.
  obs::MetricsSnapshot Snapshot = Registry.snapshot();
  EXPECT_EQ(Snapshot.total(obs::names::ServiceSubmittedTotal),
            static_cast<double>(Stats.Submitted + 1)); // + the late probe
  EXPECT_EQ(Snapshot.total(obs::names::ServiceShedTotal),
            static_cast<double>(Stats.Shed));
  EXPECT_EQ(Snapshot.total(obs::names::ServiceCompletedTotal),
            static_cast<double>(Stats.Completed));
}

} // namespace

TEST(ChaosSoak, OverloadScenarioUpholdsEveryInvariant) {
  runChaosSoak("overload", 6, 250);
}

TEST(ChaosSoak, BurstyTenantScenarioUpholdsEveryInvariant) {
  runChaosSoak("bursty-tenant", 4, 250);
}
