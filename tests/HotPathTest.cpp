//===-- tests/HotPathTest.cpp - Allocation-free hot path -------------------===//
//
// Part of the ecas project, under the MIT License.
//
//===----------------------------------------------------------------------===//
//
// Runtime ground truth behind DESIGN.md §14 and tools/ecas_hotpath.py:
// this binary links support/AllocGuard.cpp, which replaces the global
// operator new/delete with counting forwarders, and asserts that the
// warmed steady-state decision path — table-G hit, alpha reuse,
// partitioned dispatch — performs zero heap allocations. The static
// analyzer proves the property over the call graph; these tests prove it
// over an actual execution, so a regression in either shows up twice.
//
//===----------------------------------------------------------------------===//

#include "ecas/core/EasScheduler.h"
#include "ecas/core/OperatingPoint.h"
#include "ecas/core/TimeModel.h"
#include "ecas/fault/GpuHealth.h"
#include "ecas/hw/Presets.h"
#include "ecas/obs/FlightRecorder.h"
#include "ecas/obs/MetricNames.h"
#include "ecas/obs/Metrics.h"
#include "ecas/power/Characterizer.h"
#include "ecas/power/MicroBenchmarks.h"
#include "ecas/profile/OnlineProfiler.h"
#include "ecas/support/AllocGuard.h"

#include "TestSupport.h"

#include <gtest/gtest.h>

#include <memory>

using namespace ecas;

TEST(AllocGuard, InterposerIsActive) {
  ASSERT_TRUE(alloc_guard::active());
}

// Meta-test: a tally that failed to observe a deliberate allocation
// would make every zero-allocation assertion below vacuous.
TEST(AllocGuard, CountsDeliberateAllocation) {
  AllocTally Tally;
  {
    auto Probe = std::make_unique<int>(42);
    ASSERT_NE(Probe.get(), nullptr);
  }
  EXPECT_GE(Tally.allocations(), 1u);
  EXPECT_GE(Tally.deallocations(), 1u);
}

TEST(AllocGuard, QuietRegionCountsNothing) {
  double Acc = 0.0;
  AllocTally Tally;
  for (int I = 0; I != 1000; ++I)
    Acc += static_cast<double>(I) * 0.5;
  EXPECT_GT(Acc, 0.0);
  EXPECT_EQ(Tally.allocations(), 0u);
}

// The tentpole claim: once a kernel's record is learned and the device
// queues are warmed, a table-hit invocation allocates nothing.
TEST(HotPath, WarmedTableHitIsAllocationFree) {
  PlatformSpec Spec = haswellDesktop();
  SimProcessor Proc(Spec);
  EasScheduler Scheduler(desktopFamily(), Metric::edp());
  KernelDesc Kernel = computeBoundMicroKernel();

  // First large invocation profiles (allocates freely); the next few
  // warm the device rings and any lazily-grown buffers to steady state.
  auto First = Scheduler.execute(Proc, Kernel, 2e6);
  ASSERT_TRUE(First.Profiled);
  for (int I = 0; I != 3; ++I) {
    auto Warm = Scheduler.execute(Proc, Kernel, 2e6);
    ASSERT_TRUE(Warm.TableHit);
  }

  AllocTally Tally;
  auto Hit = Scheduler.execute(Proc, Kernel, 2e6);
  EXPECT_TRUE(Hit.TableHit);
  EXPECT_EQ(Tally.allocations(), 0u)
      << "warmed table-hit dispatch must not touch the heap";
  EXPECT_EQ(Tally.deallocations(), 0u);
}

// The property holds across a long steady-state run, not just one lucky
// invocation — deque-style container churn allocated only every few
// dispatches, which a single-invocation window can miss.
TEST(HotPath, SteadyStateRunStaysAllocationFree) {
  PlatformSpec Spec = haswellDesktop();
  SimProcessor Proc(Spec);
  EasScheduler Scheduler(desktopFamily(), Metric::edp());
  KernelDesc Kernel = memoryBoundMicroKernel();

  ASSERT_TRUE(Scheduler.execute(Proc, Kernel, 2e6).Profiled);
  for (int I = 0; I != 3; ++I)
    ASSERT_TRUE(Scheduler.execute(Proc, Kernel, 2e6).TableHit);

  AllocTally Tally;
  for (int I = 0; I != 64; ++I) {
    auto Hit = Scheduler.execute(Proc, Kernel, 2e6);
    ASSERT_TRUE(Hit.TableHit);
  }
  EXPECT_EQ(Tally.allocations(), 0u)
      << "64 warmed invocations must not allocate";
}

// The joint (alpha, frequency) search runs on every profiling
// repetition; its objective closure must reach the Minimize.h templates
// as a stack lambda, and the per-state TimeModel rescale must stay a
// by-value copy. A std::function-based minimizer heap-allocated once
// per search (the 5-reference capture exceeds libstdc++'s 16-byte
// small-object buffer).
TEST(HotPath, JointSearchIsAllocationFree) {
  const PlatformSpec &Spec = ladderSpec();
  const PowerCurveFamily &Family = ladderFamily();
  TimeModel Model(4e8, 7e8);
  Metric Objective = Metric::edp();

  PStateView Views[kMaxPStates];
  unsigned NumStates = Family.numPStates();
  ASSERT_EQ(NumStates, 4u);
  PStateSpec Full = Spec.pstateAt(0);
  for (unsigned S = 0; S != NumStates; ++S) {
    PStateSpec State = Spec.pstateAt(S);
    Views[S].Curve = &Family.stateCurves(S).curveFor(WorkloadClass{});
    Views[S].CpuFreqScale = State.CpuFreqGHz / Full.CpuFreqGHz;
    Views[S].GpuFreqScale = State.GpuFreqGHz / Full.GpuFreqGHz;
  }
  OperatingPointSearchConfig Search;
  Search.Step = 0.05;
  Search.Refine = true;
  Search.MemBoundFraction = 0.2;
  // Warm once: Metric's std::function body is constructed elsewhere and
  // the first evaluate() must not be charged to the search.
  Decision Warm =
      chooseOperatingPoint(Model, Views, NumStates, Objective, 1e6, Search);
  ASSERT_GT(Warm.Evaluations, 0u);

  AllocTally Tally;
  Decision Choice =
      chooseOperatingPoint(Model, Views, NumStates, Objective, 1e6, Search);
  EXPECT_GT(Choice.Evaluations, 0u);
  EXPECT_LT(Choice.Point.PState, NumStates);
  EXPECT_EQ(Tally.allocations(), 0u)
      << "grid + golden-section joint search must not allocate";
}

// The tentpole claim of the DVFS axis: with P-states on, a warmed
// table-hit decision — lookup, operating-point reuse, Amdahl rescale,
// frequency-cap actuation, partitioned dispatch — still allocates
// nothing.
TEST(HotPath, WarmedJointDecisionIsAllocationFree) {
  const PlatformSpec &Spec = ladderSpec();
  SimProcessor Proc(Spec);
  EasConfig Config;
  Config.PStates = true;
  EasScheduler Scheduler(ladderFamily(), Metric::energy(), Config);
  KernelDesc Kernel = computeBoundMicroKernel();

  ASSERT_TRUE(Scheduler.execute(Proc, Kernel, 2e6).Profiled);
  for (int I = 0; I != 3; ++I)
    ASSERT_TRUE(Scheduler.execute(Proc, Kernel, 2e6).TableHit);

  AllocTally Tally;
  for (int I = 0; I != 64; ++I) {
    auto Hit = Scheduler.execute(Proc, Kernel, 2e6);
    ASSERT_TRUE(Hit.TableHit);
    ASSERT_LT(Hit.PState, Spec.pstateCount());
  }
  EXPECT_EQ(Tally.allocations(), 0u)
      << "64 warmed joint decisions must not allocate";
}

// The flight recorder's whole reason to exist: armed, always-on, and
// still zero allocations on the warmed path. Each thread's ring
// storage is allocated at its first event — which warmup covers — so a
// steady-state record is a leaf-lock plus a POD slot copy. The second
// configuration adds the metrics registry, armed the way `serve` and
// perfbench arm it: every hit then also bumps counters and observes
// histograms, whose series are created on first use during warmup.
TEST(HotPath, WarmedHitWithFlightRecorderIsAllocationFree) {
  for (bool WithMetrics : {false, true}) {
    SCOPED_TRACE(WithMetrics ? "metrics + flight recorder"
                             : "flight recorder only");
    PlatformSpec Spec = haswellDesktop();
    SimProcessor Proc(Spec);
    obs::MetricsRegistry Registry;
    obs::FlightRecorder Flight;
    EasConfig Config;
    Config.Metrics = WithMetrics ? &Registry : nullptr;
    Config.Flight = &Flight;
    EasScheduler Scheduler(desktopFamily(), Metric::edp(), Config);
    KernelDesc Kernel = computeBoundMicroKernel();

    // Profiling registers this thread's ring and fills the first slots;
    // the warm laps reach ring steady state (wrapping included).
    ASSERT_TRUE(Scheduler.execute(Proc, Kernel, 2e6).Profiled);
    for (int I = 0; I != 3; ++I)
      ASSERT_TRUE(Scheduler.execute(Proc, Kernel, 2e6).TableHit);
    ASSERT_GT(Flight.eventsRecorded(), 0u);

    AllocTally Tally;
    for (int I = 0; I != 64; ++I) {
      auto Hit = Scheduler.execute(Proc, Kernel, 2e6);
      ASSERT_TRUE(Hit.TableHit);
    }
    EXPECT_EQ(Tally.allocations(), 0u)
        << "64 warmed invocations with the sinks armed must not allocate";

    // And the recording actually happened — the zero above must not be
    // the zero of a disarmed sink.
    obs::FlightSnapshot Snap = Flight.drain();
    EXPECT_GE(Snap.DecisionsRecorded, 68u);
    EXPECT_FALSE(Snap.Decisions.empty());
    EXPECT_FALSE(Snap.Trace.Events.empty());
    if (WithMetrics) {
      EXPECT_GE(Registry.snapshot().total(obs::names::InvocationsTotal),
                68.0);
    }
  }
}

// A profiling repetition replays the slices of the last stepped one
// from a plan kept inline in the profiler: once the first repetition
// has warmed the device rings, neither replayed repetitions nor the
// stepped ones that re-plan at governor epochs touch the heap.
TEST(HotPath, ProfilingRepetitionsAreAllocationFree) {
  PlatformSpec Spec = haswellDesktop();
  SimProcessor Proc(Spec);
  OnlineProfiler Profiler(Proc, Spec.defaultGpuProfileSize());
  KernelDesc Kernel = computeBoundMicroKernel();
  double Nrem = 1e12;
  Profiler.profileOnce(Kernel, Nrem);

  AllocTally Tally;
  // Long enough to cross two governor epochs.
  while (Proc.now() < 2.5 * Spec.Pcu.SamplingIntervalSec)
    Profiler.profileOnce(Kernel, Nrem);
  EXPECT_EQ(Tally.allocations(), 0u)
      << "warmed profiling repetitions must not allocate";
  EXPECT_GT(Proc.repetitionsReplayed(), 0u);
}

// The scheduler's profiling loop runs the steady repetitions after each
// profileOnce() in one batch (profileReplayed): a warmed loop across
// several governor epochs, mostly batched, touches no heap either.
TEST(HotPath, BatchedProfilingRepetitionsAreAllocationFree) {
  PlatformSpec Spec = haswellDesktop();
  SimProcessor Proc(Spec);
  OnlineProfiler Profiler(Proc, Spec.defaultGpuProfileSize());
  KernelDesc Kernel = computeBoundMicroKernel();
  double Nrem = 1e12;
  ProfileSample Local = Profiler.profileOnce(Kernel, Nrem);
  ProfileSample Fresh = Local;
  CancellationToken Token;
  auto Stop = [&](double NowSec) { return Token.shouldStop(NowSec); };

  AllocTally Tally;
  unsigned Stepped = 0, Batched = 0;
  while (Proc.now() < 3.5 * Spec.Pcu.SamplingIntervalSec) {
    ProfileSample Sample = Profiler.profileOnce(Kernel, Nrem);
    ++Stepped;
    Local.accumulate(Sample);
    Fresh.accumulate(Sample);
    Batched += Profiler.profileReplayed(Kernel, Nrem, 0.0, Local, Fresh, Stop);
  }
  EXPECT_EQ(Tally.allocations(), 0u)
      << "warmed batched profiling repetitions must not allocate";
  EXPECT_GT(Batched, 10u * Stepped);
}

// A long dispatch charges its steady 1 ms slices between governor epochs
// by repeating the slice stepped before them: a warmed dispatch across
// several epochs, mostly repeated slices, touches no heap either.
TEST(HotPath, RepeatedSlicesAreAllocationFree) {
  PlatformSpec Spec = haswellDesktop();
  SimProcessor Proc(Spec);
  KernelDesc Kernel = computeBoundMicroKernel();
  Proc.cpu().enqueue(Kernel, 1e6);
  Proc.gpu().enqueue(Kernel, 1e6);
  Proc.runUntilIdle();

  AllocTally Tally;
  Proc.cpu().enqueue(Kernel, 2e8);
  Proc.gpu().enqueue(Kernel, 2e8);
  double Seconds = Proc.runUntilIdle();
  Proc.runFor(3.0 * Spec.Pcu.SamplingIntervalSec);
  EXPECT_EQ(Tally.allocations(), 0u)
      << "a warmed multi-epoch dispatch must not allocate";
  EXPECT_GT(Seconds, 3.0 * Spec.Pcu.SamplingIntervalSec);
  EXPECT_GT(Proc.slicesRepeated(), 0u);
}

// A warmed re-profiled invocation (Section 3.1's repeated profiling)
// merges its fresh measurement into table G. The table copies a record
// on write, so the merge's one `new Version()` is by design; the merge
// closure itself must reach KernelHistory::update() as a template
// argument. Its captures overflow libstdc++'s 16-byte small buffer, so
// erasing them into a std::function would allocate a second time.
TEST(HotPath, WarmedReprofileAllocatesOnlyTheNewRecordVersion) {
  PlatformSpec Spec = haswellDesktop();
  SimProcessor Proc(Spec);
  EasConfig Config;
  Config.ReprofileEveryInvocations = 1;
  EasScheduler Scheduler(desktopFamily(), Metric::edp(), Config);
  KernelDesc Kernel = computeBoundMicroKernel();

  for (int I = 0; I != 3; ++I)
    ASSERT_TRUE(Scheduler.execute(Proc, Kernel, 4e7).Profiled);

  AllocTally Tally;
  auto Again = Scheduler.execute(Proc, Kernel, 4e7);
  EXPECT_TRUE(Again.Profiled);
  EXPECT_LE(Tally.allocations(), 1u)
      << "a warmed re-profiled invocation allocates only table G's new "
         "record version";
}

// Fault-monitor reads sit on every dispatch; the lock-free mirrors must
// answer without the health mutex or any heap traffic.
TEST(HotPath, GpuHealthReadsAreAllocationFree) {
  GpuHealthMonitor Monitor;
  AllocTally Tally;
  for (int I = 0; I != 256; ++I) {
    ASSERT_TRUE(Monitor.gpuUsable(static_cast<double>(I)));
    ASSERT_TRUE(Monitor.pristine());
    ASSERT_EQ(Monitor.recoveries(), 0u);
  }
  EXPECT_EQ(Tally.allocations(), 0u);
}

// Negative control for the whole harness: a table MISS (first sighting
// of a kernel) profiles and is expected to allocate. If this ever reads
// zero the interposer is not interposing the path under test.
TEST(HotPath, ColdProfilingPathDoesAllocate) {
  PlatformSpec Spec = haswellDesktop();
  SimProcessor Proc(Spec);
  EasScheduler Scheduler(desktopFamily(), Metric::edp());
  KernelDesc Kernel = computeBoundMicroKernel();

  AllocTally Tally;
  auto First = Scheduler.execute(Proc, Kernel, 2e6);
  ASSERT_TRUE(First.Profiled);
  EXPECT_GT(Tally.allocations(), 0u);
}
