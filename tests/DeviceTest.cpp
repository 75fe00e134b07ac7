//===-- tests/DeviceTest.cpp - device/ unit tests --------------------------===//
//
// Part of the ecas project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "ecas/device/SimCpuDevice.h"
#include "ecas/device/SimGpuDevice.h"
#include "ecas/hw/Presets.h"
#include "ecas/power/MicroBenchmarks.h"
#include "TestSupport.h"

#include <gtest/gtest.h>

using namespace ecas;

namespace {

KernelDesc simpleKernel() {
  KernelDesc Kernel;
  Kernel.Name = "test.simple";
  Kernel.CpuCyclesPerIter = 100.0;
  Kernel.GpuCyclesPerIter = 100.0;
  Kernel.BytesPerIter = 8.0;
  Kernel.LoadStoresPerIter = 4.0;
  Kernel.LlcMissRatio = 0.1;
  Kernel.InstrsPerIter = 120.0;
  Kernel.CpuVectorizable = 0.0;
  return Kernel.withAutoId();
}

} // namespace

TEST(KernelDesc, Validation) {
  KernelDesc Kernel = simpleKernel();
  EXPECT_TRUE(Kernel.valid());
  Kernel.LlcMissRatio = 1.5;
  EXPECT_FALSE(Kernel.valid());
  Kernel = simpleKernel();
  Kernel.GpuEfficiency = 0.0;
  EXPECT_FALSE(Kernel.valid());
  Kernel = simpleKernel();
  Kernel.CpuCyclesPerIter = -1.0;
  EXPECT_FALSE(Kernel.valid());
}

TEST(KernelDesc, AutoIdIsStableAndNonzero) {
  KernelDesc A = simpleKernel();
  KernelDesc B = simpleKernel();
  EXPECT_NE(A.Id, 0u);
  EXPECT_EQ(A.Id, B.Id);
  KernelDesc C = simpleKernel();
  C.Name = "test.other";
  C.Id = 0;
  C.withAutoId();
  EXPECT_NE(C.Id, A.Id);
}

TEST(SimCpuDevice, ThroughputScalesWithFrequency) {
  PlatformSpec Spec = haswellDesktop();
  SimCpuDevice Dev(Spec);
  Dev.enqueue(simpleKernel(), 1e9);
  RatePoint Slow = Dev.currentRate(1.0);
  RatePoint Fast = Dev.currentRate(2.0);
  EXPECT_NEAR(Fast.ComputeRate / Slow.ComputeRate, 2.0, 1e-9);
}

TEST(SimCpuDevice, SimdSpeedsUpVectorizableKernels) {
  PlatformSpec Spec = haswellDesktop();
  SimCpuDevice Dev(Spec);
  KernelDesc Scalar = simpleKernel();
  KernelDesc Vector = simpleKernel();
  Vector.CpuVectorizable = 1.0;
  Dev.enqueue(Scalar, 1e9);
  double ScalarRate = Dev.currentRate(3.0).ComputeRate;
  Dev.cancelRemaining();
  Dev.enqueue(Vector, 1e9);
  double VectorRate = Dev.currentRate(3.0).ComputeRate;
  EXPECT_GT(VectorRate, ScalarRate * 4.0);
}

TEST(SimCpuDevice, MissesAddStallCycles) {
  PlatformSpec Spec = haswellDesktop();
  SimCpuDevice Dev(Spec);
  KernelDesc Clean = simpleKernel();
  Clean.LlcMissRatio = 0.0;
  KernelDesc Missy = simpleKernel();
  Missy.LlcMissRatio = 0.8;
  Dev.enqueue(Clean, 1e9);
  RatePoint CleanRate = Dev.currentRate(3.0);
  Dev.cancelRemaining();
  Dev.enqueue(Missy, 1e9);
  RatePoint MissyRate = Dev.currentRate(3.0);
  EXPECT_LT(MissyRate.ComputeRate, CleanRate.ComputeRate);
  EXPECT_GT(MissyRate.LatencyStallFraction,
            CleanRate.LatencyStallFraction);
}

TEST(SimGpuDevice, OccupancyPenalizesSmallDispatches) {
  PlatformSpec Spec = haswellDesktop();
  // Zero launch latency so currentRate() sees executing work directly.
  Spec.Gpu.LaunchLatencySec = 0.0;
  SimGpuDevice Dev(Spec);
  KernelDesc Kernel = simpleKernel();
  double Lanes = Spec.Gpu.ExecutionUnits * Spec.Gpu.SimdWidth;
  Dev.enqueue(Kernel, Lanes);
  double FullRate = Dev.currentRate(1.2).ComputeRate;
  Dev.cancelRemaining();
  // A quarter-wave dispatch runs at a quarter of the lane-limited rate
  // (its duration is still one wave).
  Dev.enqueue(Kernel, Lanes / 4);
  double QuarterRate = Dev.currentRate(1.2).ComputeRate;
  EXPECT_NEAR(QuarterRate / FullRate, 0.25, 1e-9);
  Dev.cancelRemaining();
  // Beyond the lane count, throughput saturates.
  Dev.enqueue(Kernel, Lanes * 8);
  EXPECT_NEAR(Dev.currentRate(1.2).ComputeRate, FullRate, 1e-9);
}

TEST(SimGpuDevice, RateFollowsFrequencyAndDerateMidItem) {
  // The head item's rate is cached per step; a new clock or a fault
  // derate on the same item must still reach the model.
  PlatformSpec Spec = haswellDesktop();
  Spec.Gpu.LaunchLatencySec = 0.0;
  SimGpuDevice Dev(Spec);
  Dev.enqueue(simpleKernel(), 1e6);
  double Nominal = Dev.currentRate(1.2).ComputeRate;
  EXPECT_DOUBLE_EQ(Dev.currentRate(0.6).ComputeRate, Nominal / 2);
  EXPECT_DOUBLE_EQ(Dev.currentRate(1.2).ComputeRate, Nominal);
  Dev.setThroughputDerate(0.5); // Same clock as the cached rate.
  EXPECT_DOUBLE_EQ(Dev.currentRate(1.2).ComputeRate, Nominal / 2);
  Dev.setThroughputDerate(0.0); // Hung: the item stops retiring.
  EXPECT_DOUBLE_EQ(Dev.currentRate(1.2).ComputeRate, 0.0);
  EXPECT_DOUBLE_EQ(advanceFor(Dev, 1e-3, 1.2, 100.0), 0.0);
  Dev.setThroughputDerate(1.0);
  EXPECT_DOUBLE_EQ(Dev.currentRate(1.2).ComputeRate, Nominal);
}

TEST(SimGpuDevice, LaunchLatencyDelaysWork) {
  PlatformSpec Spec = haswellDesktop();
  SimGpuDevice Dev(Spec);
  Dev.enqueue(simpleKernel(), 1000.0);
  // During setup the device reports no issue rate.
  EXPECT_DOUBLE_EQ(Dev.currentRate(1.2).ComputeRate, 0.0);
  double Consumed =
      advanceFor(Dev, Spec.Gpu.LaunchLatencySec / 2, 1.2, 100.0);
  EXPECT_DOUBLE_EQ(Consumed, Spec.Gpu.LaunchLatencySec / 2);
  EXPECT_DOUBLE_EQ(Dev.counters().IterationsDone, 0.0);
}

TEST(SimDevice, AdvanceStopsWhenQueueDrains) {
  PlatformSpec Spec = haswellDesktop();
  SimCpuDevice Dev(Spec);
  Dev.enqueue(simpleKernel(), 1000.0);
  double Needed = Dev.timeToHeadDrain(3.0, 100.0);
  double Consumed = advanceFor(Dev, Needed * 10.0, 3.0, 100.0);
  EXPECT_NEAR(Consumed, Needed, Needed * 1e-9);
  EXPECT_FALSE(Dev.busy());
  EXPECT_NEAR(Dev.counters().IterationsDone, 1000.0, 1e-6);
}

TEST(SimDevice, CountersTrackKernelModel) {
  PlatformSpec Spec = haswellDesktop();
  SimCpuDevice Dev(Spec);
  KernelDesc Kernel = simpleKernel();
  Dev.enqueue(Kernel, 1000.0);
  advanceFor(Dev, 10.0, 3.0, 100.0);
  const PerfCounters &C = Dev.counters();
  EXPECT_NEAR(C.InstructionsRetired, 1000.0 * Kernel.InstrsPerIter, 1e-3);
  EXPECT_NEAR(C.LoadStores, 1000.0 * Kernel.LoadStoresPerIter, 1e-3);
  EXPECT_NEAR(C.LlcMisses,
              1000.0 * Kernel.LoadStoresPerIter * Kernel.LlcMissRatio,
              1e-3);
  EXPECT_NEAR(C.missPerLoadStore(), Kernel.LlcMissRatio, 1e-9);
}

TEST(SimDevice, CancelReturnsUnprocessed) {
  PlatformSpec Spec = haswellDesktop();
  SimCpuDevice Dev(Spec);
  Dev.enqueue(simpleKernel(), 1000.0);
  double Half = Dev.timeToHeadDrain(3.0, 100.0) / 2.0;
  advanceFor(Dev, Half, 3.0, 100.0);
  double Returned = Dev.cancelRemaining();
  EXPECT_NEAR(Returned + Dev.counters().IterationsDone, 1000.0, 1e-6);
  EXPECT_FALSE(Dev.busy());
}

TEST(SimDevice, CounterDeltasSubtract) {
  PlatformSpec Spec = haswellDesktop();
  SimCpuDevice Dev(Spec);
  Dev.enqueue(simpleKernel(), 500.0);
  advanceFor(Dev, 10.0, 3.0, 100.0);
  PerfCounters Snapshot = Dev.counters();
  Dev.enqueue(simpleKernel(), 300.0);
  advanceFor(Dev, 10.0, 3.0, 100.0);
  PerfCounters Delta = Dev.counters() - Snapshot;
  EXPECT_NEAR(Delta.IterationsDone, 300.0, 1e-6);
}

TEST(SimDevice, BandwidthCapLimitsRate) {
  PlatformSpec Spec = haswellDesktop();
  SimCpuDevice Dev(Spec);
  KernelDesc Streamy = memoryBoundMicroKernel();
  Dev.enqueue(Streamy, 1e9);
  // 1 GB/s share: at 64 B/iter the cap is ~15.6M iters/s.
  double Consumed = advanceFor(Dev, 0.1, 3.6, 1.0);
  EXPECT_DOUBLE_EQ(Consumed, 0.1);
  EXPECT_NEAR(Dev.counters().IterationsDone, 0.1 * 1.0e9 / 64.0, 2.0);
  EXPECT_NEAR(Dev.lastTrafficGBs(), 1.0, 1e-6);
}

TEST(SimDevice, ActivityBlendsTowardMemoryUnderStalls) {
  PlatformSpec Spec = haswellDesktop();
  SimCpuDevice Dev(Spec);
  KernelDesc Compute = computeBoundMicroKernel();
  Dev.enqueue(Compute, 1e9);
  advanceFor(Dev, 0.01, 3.6, 100.0);
  EXPECT_NEAR(Dev.lastActivity(), Spec.CpuPower.ComputeActivity, 1e-6);

  SimCpuDevice Dev2(Spec);
  Dev2.enqueue(memoryBoundMicroKernel(), 1e9);
  advanceFor(Dev2, 0.01, 3.6, 100.0);
  EXPECT_LT(Dev2.lastActivity(), Spec.CpuPower.ComputeActivity);
  EXPECT_GT(Dev2.lastActivity(), Spec.CpuPower.MemoryActivity - 0.05);
}

TEST(SimDevice, SetupSecondsSeparateFromBusy) {
  PlatformSpec Spec = haswellDesktop();
  SimGpuDevice Dev(Spec);
  Dev.enqueue(simpleKernel(), 10000.0);
  advanceFor(Dev, 1.0, 1.2, 100.0);
  EXPECT_NEAR(Dev.counters().SetupSeconds, Spec.Gpu.LaunchLatencySec,
              1e-12);
  EXPECT_GT(Dev.counters().BusySeconds, 0.0);
}

TEST(SimDevice, TimeToHeadDrainReturnsSetupFirst) {
  PlatformSpec Spec = haswellDesktop();
  SimGpuDevice Dev(Spec);
  Dev.enqueue(simpleKernel(), 10000.0);
  // During launch setup the next event is setup completion.
  EXPECT_DOUBLE_EQ(Dev.timeToHeadDrain(1.2, 100.0),
                   Spec.Gpu.LaunchLatencySec);
  advanceFor(Dev, Spec.Gpu.LaunchLatencySec, 1.2, 100.0);
  EXPECT_GT(Dev.timeToHeadDrain(1.2, 100.0), 0.0);
  EXPECT_LT(Dev.timeToHeadDrain(1.2, 100.0), 1.0);
}

TEST(SimDevice, EnqueueZeroIterationsIsNoop) {
  PlatformSpec Spec = haswellDesktop();
  SimCpuDevice Dev(Spec);
  Dev.enqueue(simpleKernel(), 0.0);
  EXPECT_FALSE(Dev.busy());
}
