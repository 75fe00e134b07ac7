//===-- tests/ConcurrencyTest.cpp - concurrent service-core coverage ------===//
//
// Part of the ecas project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// The concurrent EAS service core under load: many client threads
/// hammering one shared scheduler (table G) with mixed kernels while a
/// fault plan injects GPU hangs — no lost invocation counts, no alpha
/// contributions dropped, no deadlock on shutdown. Plus the cooperative
/// cancellation surfaces: ThreadPool::parallelFor token polling, expired
/// deadlines, and the scheduler's guarantee that a cancelled invocation
/// never poisons the learned ratio.
///
/// This suite is the primary ThreadSanitizer target (ctest label `tsan`
/// in the tsan preset).
///
//===----------------------------------------------------------------------===//

#include "ecas/core/EasScheduler.h"
#include "ecas/core/KernelHistory.h"
#include "ecas/hw/Presets.h"
#include "ecas/runtime/ThreadPool.h"
#include "ecas/service/Service.h"
#include "ecas/support/Cancellation.h"

#include "TestSupport.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

using namespace ecas;

//===----------------------------------------------------------------------===//
// Table G under concurrent mutation
//===----------------------------------------------------------------------===//

TEST(Concurrency, KernelHistoryLosesNoContributions) {
  constexpr unsigned Threads = 8;
  constexpr unsigned PerThread = 500;
  KernelHistory History;

  std::vector<std::thread> Clients;
  for (unsigned T = 0; T != Threads; ++T)
    Clients.emplace_back([&History, T] {
      for (unsigned I = 0; I != PerThread; ++I) {
        // Everyone merges into the shared kernel 1...
        History.update(1, [](KernelRecord &Rec) {
          Rec.Alpha.addSample(0.5, 1.0);
        });
        History.bumpInvocations(1);
        // ...and into a private kernel, exercising concurrent inserts
        // across shards.
        History.update(100 + T, [](KernelRecord &Rec) {
          Rec.Alpha.addSample(0.25, 2.0);
        });
        History.bumpQuarantinedRuns(100 + T);
      }
    });
  for (std::thread &Client : Clients)
    Client.join();

  EXPECT_EQ(History.size(), 1u + Threads);

  // The shared record saw every one of the Threads * PerThread merges:
  // weights are integral, so the sums are exact.
  std::optional<KernelRecord> Shared = findRecord(History, 1);
  ASSERT_TRUE(Shared.has_value());
  EXPECT_EQ(Shared->Alpha.totalWeight(), double(Threads) * PerThread);
  EXPECT_EQ(Shared->Alpha.weightedSum(), 0.5 * Threads * PerThread);
  EXPECT_EQ(Shared->Invocations, Threads * PerThread);

  for (unsigned T = 0; T != Threads; ++T) {
    std::optional<KernelRecord> Mine = findRecord(History, 100 + T);
    ASSERT_TRUE(Mine.has_value()) << "kernel " << (100 + T);
    EXPECT_EQ(Mine->Alpha.totalWeight(), 2.0 * PerThread);
    EXPECT_EQ(Mine->QuarantinedRuns, PerThread);
    EXPECT_EQ(Mine->Invocations, 0u);
  }
}

TEST(Concurrency, KernelHistoryReadersSeeConsistentVersions) {
  KernelHistory History;
  std::atomic<bool> Stop{false};

  // Writer keeps republishing versions; every published version has
  // alpha value exactly 0.5 (all samples are 0.5), so a reader that ever
  // observes anything else caught a torn record.
  std::thread Writer([&] {
    for (unsigned I = 0; I != 20000; ++I) {
      History.update(77, [](KernelRecord &Rec) {
        Rec.Alpha.addSample(0.5, 1.0);
      });
      History.bumpInvocations(77);
    }
    Stop.store(true, std::memory_order_release);
  });

  std::vector<std::thread> Readers;
  std::atomic<unsigned> Torn{0};
  for (unsigned R = 0; R != 4; ++R)
    Readers.emplace_back([&] {
      KernelRecord Rec;
      while (!Stop.load(std::memory_order_acquire))
        if (History.lookup(77, Rec) && Rec.Alpha.hasValue() &&
            Rec.Alpha.value() != 0.5)
          Torn.fetch_add(1, std::memory_order_relaxed);
    });

  Writer.join();
  for (std::thread &Reader : Readers)
    Reader.join();
  EXPECT_EQ(Torn.load(), 0u);

  std::optional<KernelRecord> Final = findRecord(History, 77);
  ASSERT_TRUE(Final.has_value());
  EXPECT_EQ(Final->Alpha.totalWeight(), 20000.0);
  EXPECT_EQ(Final->Invocations, 20000u);
}

//===----------------------------------------------------------------------===//
// ThreadPool cancellation points
//===----------------------------------------------------------------------===//

TEST(Concurrency, ParallelForStopsAtCancellation) {
  ThreadPool Pool(4);
  constexpr uint64_t N = 1u << 20;

  CancellationToken Cancel;
  std::atomic<uint64_t> Executed{0};
  uint64_t Ran = Pool.parallelFor(0, N, 256,
                                  [&](uint64_t Begin, uint64_t End) {
                                    Executed.fetch_add(
                                        End - Begin,
                                        std::memory_order_relaxed);
                                    if (Executed.load(
                                            std::memory_order_relaxed) >
                                        8192)
                                      Cancel.cancel();
                                  },
                                  &Cancel);

  // Cancellation is polled at range boundaries, so in-flight ranges
  // complete but the bulk of the space is discarded.
  EXPECT_LT(Ran, N);
  EXPECT_GT(Ran, 0u);
  // The return value is an exact count of executed iterations.
  EXPECT_EQ(Ran, Executed.load());
}

TEST(Concurrency, ParallelForWithExpiredDeadlineRunsNothing) {
  ThreadPool Pool(4);
  // Deadline 0 on the host steady clock is always in the past.
  CancellationToken Cancel = CancellationToken::withDeadline(0.0);
  std::atomic<uint64_t> Executed{0};
  uint64_t Ran = Pool.parallelFor(0, 1u << 16, 256,
                                  [&](uint64_t Begin, uint64_t End) {
                                    Executed.fetch_add(
                                        End - Begin,
                                        std::memory_order_relaxed);
                                  },
                                  &Cancel);
  EXPECT_EQ(Ran, 0u);
  EXPECT_EQ(Executed.load(), 0u);

  // The pool survives a cancelled job: the next (uncancelled) job runs
  // to completion.
  uint64_t Full = Pool.parallelFor(0, 1u << 16, 256,
                                   [](uint64_t, uint64_t) {});
  EXPECT_EQ(Full, uint64_t(1) << 16);
}

//===----------------------------------------------------------------------===//
// Scheduler deadlines
//===----------------------------------------------------------------------===//

TEST(Concurrency, ExpiredDeadlineCancelsWithoutPoisoningTableG) {
  EasScheduler Scheduler(desktopFamily(), Metric::edp());
  SimProcessor Proc(haswellDesktop());
  KernelDesc Kernel = namedKernel("deadline-probe");

  // Learn the kernel normally first.
  EasScheduler::InvocationOutcome First = Scheduler.execute(Proc, Kernel, 2e6);
  EXPECT_TRUE(First.Profiled);
  std::optional<KernelRecord> Before =
      findRecord(Scheduler.history(), Kernel.Id);
  ASSERT_TRUE(Before.has_value());

  // A deadline already expired on the virtual clock: the invocation is
  // cancelled at its entry point and must not touch what was learned.
  CancellationToken Expired = CancellationToken::withDeadline(Proc.now());
  EasScheduler::InvocationOutcome Cancelled =
      Scheduler.execute(Proc, Kernel, 2e6, {}, &Expired);
  EXPECT_TRUE(Cancelled.Cancelled);
  EXPECT_FALSE(Cancelled.Rejected);

  std::optional<KernelRecord> After =
      findRecord(Scheduler.history(), Kernel.Id);
  ASSERT_TRUE(After.has_value());
  EXPECT_EQ(After->Alpha.weightedSum(), Before->Alpha.weightedSum());
  EXPECT_EQ(After->Alpha.totalWeight(), Before->Alpha.totalWeight());
  // A cancelled invocation is not counted.
  EXPECT_EQ(After->Invocations, Before->Invocations);

  // A generous deadline leaves the invocation untouched.
  CancellationToken Roomy = CancellationToken::withDeadline(Proc.now() + 1e6);
  EasScheduler::InvocationOutcome Normal =
      Scheduler.execute(Proc, Kernel, 2e6, {}, &Roomy);
  EXPECT_FALSE(Normal.Cancelled);
  std::optional<KernelRecord> Counted =
      findRecord(Scheduler.history(), Kernel.Id);
  ASSERT_TRUE(Counted.has_value());
  EXPECT_EQ(Counted->Invocations, Before->Invocations + 1);
}

//===----------------------------------------------------------------------===//
// Profiled merges racing on one key
//===----------------------------------------------------------------------===//

// Two clients profile one cold key at once. A client that merges after
// the other finds the record changed since its lookup and adds its
// repetitions as one running sum. No profiled iteration may be lost or
// counted twice, and the record must stay finite.
TEST(Concurrency, SameKeyProfilesRaceWithoutLosingIterations) {
  constexpr unsigned Rounds = 8;
  // Sizes whose profiling takes milliseconds, so the two invocations
  // overlap even when the host time-slices both clients on one core.
  const double Sizes[2] = {1e8, 1.5e8};
  // What each client's invocation profiles alone: a cold key on a
  // scheduler of its own, on an identical processor, runs the same
  // repetitions.
  double Solo[2];
  for (unsigned I = 0; I != 2; ++I) {
    EasScheduler Scheduler(desktopFamily(), Metric::edp());
    SimProcessor Proc(haswellDesktop());
    KernelDesc Kernel = namedKernel("same-key-solo");
    ASSERT_TRUE(Scheduler.execute(Proc, Kernel, Sizes[I]).Profiled);
    std::optional<KernelRecord> Rec =
        findRecord(Scheduler.history(), Kernel.Id);
    ASSERT_TRUE(Rec.has_value());
    Solo[I] = Rec->Sample.CpuIterations + Rec->Sample.GpuIterations;
  }

  for (unsigned Round = 0; Round != Rounds; ++Round) {
    EasScheduler Scheduler(desktopFamily(), Metric::edp());
    KernelDesc Kernel = namedKernel("same-key-race-" + std::to_string(Round));
    std::atomic<unsigned> Ready{0};
    bool Profiled[2] = {false, false};
    std::vector<std::thread> Clients;
    for (unsigned I = 0; I != 2; ++I)
      Clients.emplace_back([&, I] {
        SimProcessor Proc(haswellDesktop());
        Ready.fetch_add(1, std::memory_order_acq_rel);
        while (Ready.load(std::memory_order_acquire) != 2) {
        }
        Profiled[I] = Scheduler.execute(Proc, Kernel, Sizes[I]).Profiled;
      });
    for (std::thread &Client : Clients)
      Client.join();

    std::optional<KernelRecord> Rec =
        findRecord(Scheduler.history(), Kernel.Id);
    ASSERT_TRUE(Rec.has_value());
    const ProfileSample &Merged = Rec->Sample;
    double Want = (Profiled[0] ? Solo[0] : 0.0) + (Profiled[1] ? Solo[1] : 0.0);
    EXPECT_NEAR(Merged.CpuIterations + Merged.GpuIterations, Want,
                1e-12 * Want)
        << "round " << Round << " profiled " << Profiled[0] << Profiled[1];
    for (double Field :
         {Merged.CpuThroughput, Merged.GpuThroughput, Merged.CpuIterations,
          Merged.GpuIterations, Merged.ElapsedSeconds, Merged.CpuBusySeconds,
          Merged.GpuBusySeconds, Merged.MissPerLoadStore,
          Merged.InstructionsRetired})
      EXPECT_TRUE(std::isfinite(Field)) << "round " << Round;
  }
}

//===----------------------------------------------------------------------===//
// The acceptance stress: shared scheduler, faults, graceful shutdown
//===----------------------------------------------------------------------===//

TEST(Concurrency, SchedulerStressUnderFaultsLosesNoUpdates) {
  constexpr unsigned Threads = 8;
  constexpr unsigned PerThread = 120;
  constexpr unsigned Kernels = 4;

  PlatformSpec Spec = faultySpec("gpu-hang");
  std::vector<KernelDesc> Mixed;
  for (unsigned K = 0; K != Kernels; ++K)
    Mixed.push_back(namedKernel("stress-" + std::to_string(K)));

  EasScheduler Scheduler(desktopFamily(), Metric::edp());

  std::atomic<unsigned> Completed{0};
  std::atomic<unsigned> Rejected{0};
  std::atomic<unsigned> CancelledCount{0};
  std::vector<std::thread> Clients;
  for (unsigned T = 0; T != Threads; ++T)
    Clients.emplace_back([&, T] {
      // Each client is its own machine: private simulated processor and
      // virtual clock, shared table G and health monitor.
      SimProcessor Proc(Spec);
      for (unsigned I = 0; I != PerThread; ++I) {
        const KernelDesc &Kernel = Mixed[(T + I) % Kernels];
        // Vary sizes so both the small-N CPU pin and the profile path
        // are exercised concurrently.
        double Iterations = (I % 7 == 0) ? 1e3 : 2e6;
        EasScheduler::InvocationOutcome Outcome =
            Scheduler.execute(Proc, Kernel, Iterations);
        if (Outcome.Rejected)
          Rejected.fetch_add(1, std::memory_order_relaxed);
        else if (Outcome.Cancelled)
          CancelledCount.fetch_add(1, std::memory_order_relaxed);
        else
          Completed.fetch_add(1, std::memory_order_relaxed);
      }
    });
  for (std::thread &Client : Clients)
    Client.join();

  // Nothing was shutting down or cancelling, so everything completed.
  EXPECT_EQ(Rejected.load(), 0u);
  EXPECT_EQ(CancelledCount.load(), 0u);
  EXPECT_EQ(Completed.load(), Threads * PerThread);

  // No lost updates in table G: every completed invocation was counted
  // exactly once, whether it hit, profiled, or ran quarantined.
  auto Entries = Scheduler.history().entries();
  EXPECT_EQ(Entries.size(), Kernels);
  unsigned Recorded = 0;
  for (const auto &[Key, Rec] : Entries)
    Recorded += Rec.Invocations;
  EXPECT_EQ(Recorded, Completed.load());

  // Graceful shutdown with nothing in flight: immediate and clean.
  Status Down = Scheduler.shutdown();
  EXPECT_TRUE(Down.ok()) << Down.toString();
  EXPECT_FALSE(Scheduler.acceptingWork());

  // Post-shutdown admission is rejected without touching the table.
  SimProcessor Late(Spec);
  EasScheduler::InvocationOutcome Refused =
      Scheduler.execute(Late, Mixed[0], 2e6);
  EXPECT_TRUE(Refused.Rejected);
  unsigned RecordedAfter = 0;
  for (const auto &[Key, Rec] : Scheduler.history().entries())
    RecordedAfter += Rec.Invocations;
  EXPECT_EQ(RecordedAfter, Recorded);

  // Idempotent: a second shutdown returns the first call's result.
  EXPECT_TRUE(Scheduler.shutdown().ok());
}

TEST(Concurrency, ShutdownDrainsActiveClientsWithoutDeadlock) {
  PlatformSpec Spec = haswellDesktop();
  KernelDesc Kernel = namedKernel("drain-probe");
  EasScheduler Scheduler(desktopFamily(), Metric::edp());

  // Clients run until the admission gate turns them away.
  std::atomic<unsigned> Completed{0};
  std::vector<std::thread> Clients;
  for (unsigned T = 0; T != 4; ++T)
    Clients.emplace_back([&] {
      SimProcessor Proc(Spec);
      while (true) {
        EasScheduler::InvocationOutcome Outcome =
            Scheduler.execute(Proc, Kernel, 2e6);
        if (Outcome.Rejected)
          return;
        Completed.fetch_add(1, std::memory_order_relaxed);
      }
    });

  // Let them get in flight, then close the gate. A zero grace forces
  // the drain token path: stragglers stop at their next cancellation
  // point, so shutdown() must still return (no deadlock) and the
  // clients must all observe Rejected and exit.
  while (Completed.load(std::memory_order_relaxed) < 8)
    std::this_thread::yield();
  Status Down = Scheduler.shutdown(/*DrainGraceSec=*/0.0);
  EXPECT_TRUE(Down.ok()) << Down.toString();
  for (std::thread &Client : Clients)
    Client.join();

  EXPECT_FALSE(Scheduler.acceptingWork());
  EXPECT_GE(Completed.load(), 8u);
}

TEST(Concurrency, ConcurrentShutdownCallsAgree) {
  EasScheduler Scheduler(desktopFamily(), Metric::edp());
  SimProcessor Proc(haswellDesktop());
  Scheduler.execute(Proc, namedKernel("shutdown-race"), 2e6);

  // Many racers, one winner — everyone gets the same (ok) result and
  // nobody hangs.
  std::vector<std::thread> Racers;
  std::atomic<unsigned> Failures{0};
  for (unsigned T = 0; T != 4; ++T)
    Racers.emplace_back([&] {
      if (!Scheduler.shutdown().ok())
        Failures.fetch_add(1, std::memory_order_relaxed);
    });
  for (std::thread &Racer : Racers)
    Racer.join();
  EXPECT_EQ(Failures.load(), 0u);
  EXPECT_FALSE(Scheduler.acceptingWork());
}

//===----------------------------------------------------------------------===//
// Service front-end edge cases under concurrency
//===----------------------------------------------------------------------===//

TEST(Concurrency, ZeroCapacityServiceRejectsEveryConcurrentSubmission) {
  EasScheduler Scheduler(desktopFamily(), Metric::edp());
  ServiceConfig Config;
  Config.Workers = 2;
  Config.QueueCapPerClass = 0; // permanently full: pure backpressure
  ServiceFrontEnd Service(Scheduler, haswellDesktop(), Config);

  constexpr unsigned Threads = 4;
  constexpr unsigned PerThread = 50;
  std::atomic<unsigned> Overloaded{0};
  std::vector<std::thread> Clients;
  for (unsigned T = 0; T != Threads; ++T)
    Clients.emplace_back([&, T] {
      KernelDesc Kernel = namedKernel("zero-cap");
      for (unsigned I = 0; I != PerThread; ++I) {
        RequestContext Ctx;
        Ctx.TenantId = T + 1;
        Ctx.Sla = slaFromIndex(I % NumSlaClasses);
        SubmitResult Result = Service.submit(Kernel, 1e6, Ctx);
        EXPECT_FALSE(Result.admitted());
        if (Result.Verdict.code() == ErrCode::Overloaded) {
          Overloaded.fetch_add(1, std::memory_order_relaxed);
          EXPECT_GT(Result.RetryAfterSec, 0.0);
        }
      }
    });
  for (std::thread &Client : Clients)
    Client.join();

  ServiceStats Stats = Service.shutdown();
  EXPECT_TRUE(Stats.consistent());
  EXPECT_EQ(Stats.Submitted, uint64_t(Threads) * PerThread);
  EXPECT_EQ(Stats.Rejected, Stats.Submitted) << "nothing can ever queue";
  EXPECT_EQ(Overloaded.load(), Stats.Submitted);
  EXPECT_EQ(Stats.Completed + Stats.Shed + Stats.Cancelled, 0u);
  EXPECT_TRUE(Scheduler.shutdown().ok());
}

TEST(Concurrency, ExpiredAtSubmitDeadlineIsRejectedNotQueued) {
  EasScheduler Scheduler(desktopFamily(), Metric::edp());
  ServiceFrontEnd Service(Scheduler, haswellDesktop());

  RequestContext Ctx;
  Ctx.TenantId = 1;
  Ctx.Sla = SlaClass::Sla0;
  Ctx.DeadlineSec = -1.0; // dead on arrival
  SubmitResult Result = Service.submit(namedKernel("doa"), 1e6, Ctx);
  EXPECT_FALSE(Result.admitted());
  EXPECT_EQ(Result.Verdict.code(), ErrCode::DeadlineInfeasible);
  EXPECT_EQ(Result.RetryAfterSec, 0.0) << "retrying cannot help";

  ServiceStats Stats = Service.shutdown();
  EXPECT_TRUE(Stats.consistent());
  EXPECT_EQ(Stats.Rejected, 1u);
  EXPECT_EQ(Stats.Shed, 0u) << "rejected at the door, never queued";
  EXPECT_TRUE(Scheduler.shutdown().ok());
}

TEST(Concurrency, NamespacedKeysStayCollisionFreeAcrossManyTenants) {
  // 200 tenants x 20 kernels sharing the same raw kernel ids: every
  // namespaced key must be distinct (and distinct from the raw ids an
  // anonymous caller maps to).
  std::set<uint64_t> Keys;
  for (uint64_t Kernel = 1; Kernel <= 20; ++Kernel)
    ASSERT_TRUE(Keys.insert(namespacedKernelKey(0, Kernel)).second);
  for (uint64_t Tenant = 1; Tenant <= 200; ++Tenant)
    for (uint64_t Kernel = 1; Kernel <= 20; ++Kernel) {
      uint64_t Key = namespacedKernelKey(Tenant, Kernel);
      EXPECT_NE(Key, 0u);
      EXPECT_TRUE(Keys.insert(Key).second)
          << "tenant " << Tenant << " kernel " << Kernel
          << " collided with an earlier key";
    }
}

TEST(Concurrency, ShutdownRacesProducersSpammingAFullQueue) {
  EasScheduler Scheduler(desktopFamily(), Metric::edp());
  ServiceConfig Config;
  Config.Workers = 2;
  Config.QueueCapPerClass = 2; // tiny lanes: pushes race the close
  Config.DrainGraceSec = 0.05; // force the hard-stop path quickly
  auto Service = std::make_unique<ServiceFrontEnd>(
      Scheduler, haswellDesktop(), Config);

  std::atomic<bool> Stop{false};
  std::atomic<uint64_t> Submitted{0};
  std::vector<std::thread> Producers;
  for (unsigned T = 0; T != 4; ++T)
    Producers.emplace_back([&, T] {
      KernelDesc Kernel = namedKernel("spam");
      while (!Stop.load(std::memory_order_acquire)) {
        RequestContext Ctx;
        Ctx.TenantId = T + 1;
        Ctx.Sla = slaFromIndex(Submitted.load(std::memory_order_relaxed) %
                               NumSlaClasses);
        Service->submit(Kernel, 4e6, Ctx);
        Submitted.fetch_add(1, std::memory_order_relaxed);
      }
    });

  // Let the lanes fill and the workers chew, then shut down while the
  // producers are still spamming: submit() must keep returning typed
  // rejections (never block, never crash) and shutdown must come back.
  while (Submitted.load(std::memory_order_relaxed) < 64)
    std::this_thread::yield();
  ServiceStats Stats = Service->shutdown();
  Stop.store(true, std::memory_order_release);
  for (std::thread &Producer : Producers)
    Producer.join();

  // The shutdown-time snapshot may straddle an in-progress submit (its
  // Submitted counted, its rejection not yet), so mid-race the law only
  // bounds one direction; once the producers have joined the books must
  // balance exactly.
  EXPECT_GE(Stats.Submitted,
            Stats.Rejected + Stats.Shed + Stats.Completed + Stats.Cancelled);
  ServiceStats Final = Service->stats();
  EXPECT_TRUE(Final.consistent());
  EXPECT_GE(Final.Submitted, Stats.Submitted);
  EXPECT_EQ(Final.Completed + Final.Shed + Final.Cancelled,
            Stats.Completed + Stats.Shed + Stats.Cancelled)
      << "post-shutdown submissions can only be rejected";
  Service.reset(); // destructor re-runs shutdown: must stay idempotent
  EXPECT_TRUE(Scheduler.shutdown().ok());
}
