//===-- tests/RuntimeTest.cpp - runtime/ unit & stress tests ---------------===//
//
// Part of the ecas project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "ecas/runtime/ChaseLevDeque.h"
#include "ecas/runtime/ParallelFor.h"
#include "ecas/runtime/ThreadPool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <numeric>
#include <thread>

using namespace ecas;

TEST(ChaseLevDeque, LifoForOwner) {
  ChaseLevDeque<uint64_t> Deque;
  for (uint64_t I = 0; I != 10; ++I)
    Deque.push(I);
  for (uint64_t I = 10; I != 0; --I) {
    auto V = Deque.pop();
    ASSERT_TRUE(V.has_value());
    EXPECT_EQ(*V, I - 1);
  }
  EXPECT_FALSE(Deque.pop().has_value());
}

TEST(ChaseLevDeque, FifoForThief) {
  ChaseLevDeque<uint64_t> Deque;
  for (uint64_t I = 0; I != 10; ++I)
    Deque.push(I);
  for (uint64_t I = 0; I != 10; ++I) {
    auto V = Deque.steal();
    ASSERT_TRUE(V.has_value());
    EXPECT_EQ(*V, I);
  }
  EXPECT_FALSE(Deque.steal().has_value());
}

TEST(ChaseLevDeque, GrowsPastInitialCapacity) {
  ChaseLevDeque<uint64_t> Deque(8);
  const uint64_t N = 10000;
  for (uint64_t I = 0; I != N; ++I)
    Deque.push(I);
  EXPECT_EQ(Deque.sizeEstimate(), static_cast<int64_t>(N));
  uint64_t Sum = 0;
  while (auto V = Deque.pop())
    Sum += *V;
  EXPECT_EQ(Sum, N * (N - 1) / 2);
}

TEST(ChaseLevDeque, ConcurrentStealersSeeEachItemOnce) {
  ChaseLevDeque<uint64_t> Deque;
  const uint64_t N = 200000;
  std::atomic<uint64_t> StolenSum{0};
  std::atomic<uint64_t> StolenCount{0};
  std::atomic<bool> Done{false};

  std::vector<std::thread> Thieves;
  for (int T = 0; T != 3; ++T)
    Thieves.emplace_back([&] {
      while (!Done.load(std::memory_order_acquire) ||
             Deque.sizeEstimate() > 0) {
        if (auto V = Deque.steal()) {
          StolenSum.fetch_add(*V, std::memory_order_relaxed);
          StolenCount.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });

  uint64_t OwnerSum = 0, OwnerCount = 0;
  for (uint64_t I = 1; I <= N; ++I) {
    Deque.push(I);
    if (I % 3 == 0) {
      if (auto V = Deque.pop()) {
        OwnerSum += *V;
        ++OwnerCount;
      }
    }
  }
  while (auto V = Deque.pop()) {
    OwnerSum += *V;
    ++OwnerCount;
  }
  Done.store(true, std::memory_order_release);
  for (auto &T : Thieves)
    T.join();
  // Drain any stragglers the owner missed after Done flipped.
  while (auto V = Deque.steal()) {
    OwnerSum += *V;
    ++OwnerCount;
  }

  EXPECT_EQ(OwnerCount + StolenCount.load(), N);
  EXPECT_EQ(OwnerSum + StolenSum.load(), N * (N + 1) / 2);
}

TEST(ThreadPool, ParallelForCoversEveryIndexOnce) {
  ThreadPool Pool(4);
  const uint64_t N = 100000;
  std::vector<std::atomic<uint32_t>> Hits(N);
  Pool.parallelFor(0, N, 64, [&](uint64_t Begin, uint64_t End) {
    for (uint64_t I = Begin; I != End; ++I)
      Hits[I].fetch_add(1, std::memory_order_relaxed);
  });
  for (uint64_t I = 0; I != N; ++I)
    ASSERT_EQ(Hits[I].load(), 1u) << "index " << I;
}

TEST(ThreadPool, EmptyAndTinyRanges) {
  ThreadPool Pool(4);
  std::atomic<uint64_t> Count{0};
  Pool.parallelFor(10, 10, 16, [&](uint64_t B, uint64_t E) {
    Count.fetch_add(E - B);
  });
  EXPECT_EQ(Count.load(), 0u);
  Pool.parallelFor(0, 1, 16, [&](uint64_t B, uint64_t E) {
    Count.fetch_add(E - B);
  });
  EXPECT_EQ(Count.load(), 1u);
}

TEST(ThreadPool, BackToBackJobs) {
  // Each job's body lives on the heap and is freed as soon as
  // parallelFor returns, and its cost is front-loaded so workers steal
  // ranges their peers pushed. TSan flags a thief that runs a body whose
  // publication it cannot see; ASan flags a range that outlives its job.
  ThreadPool Pool(4);
  for (int Job = 0; Job != 200; ++Job) {
    std::atomic<uint64_t> Sum{0};
    const uint64_t N = 5000;
    auto Body = std::make_unique<RangeBody>([&Sum](uint64_t Begin,
                                                   uint64_t End) {
      uint64_t Local = 0;
      for (uint64_t I = Begin; I != End; ++I) {
        volatile uint64_t Spin = 0;
        for (unsigned R = 0, Reps = I < N / 8 ? 64 : 1; R != Reps; ++R)
          Spin = Spin + R;
        Local += I;
      }
      Sum.fetch_add(Local, std::memory_order_relaxed);
    });
    Pool.parallelFor(0, N, 32, *Body);
    Body.reset();
    ASSERT_EQ(Sum.load(), N * (N - 1) / 2) << "job " << Job;
  }
}

TEST(ThreadPool, SingleWorkerStillCompletes) {
  ThreadPool Pool(1);
  std::atomic<uint64_t> Count{0};
  Pool.parallelFor(0, 10000, 16, [&](uint64_t B, uint64_t E) {
    Count.fetch_add(E - B, std::memory_order_relaxed);
  });
  EXPECT_EQ(Count.load(), 10000u);
}

TEST(ThreadPool, ImbalancedBodiesTriggerStealing) {
  ThreadPool Pool(4);
  std::atomic<uint64_t> Work{0};
  // Front-loaded cost: early indices are 100x heavier.
  Pool.parallelFor(0, 4000, 8, [&](uint64_t Begin, uint64_t End) {
    for (uint64_t I = Begin; I != End; ++I) {
      unsigned Reps = I < 400 ? 2000 : 20;
      volatile uint64_t Sink = 0;
      for (unsigned R = 0; R != Reps; ++R)
        Sink = Sink + I;
      Work.fetch_add(1, std::memory_order_relaxed);
    }
  });
  EXPECT_EQ(Work.load(), 4000u);
}

TEST(WorkPool, GrabsAreDisjointAndExhaustive) {
  WorkPool Pool(1000);
  uint64_t Seen = 0;
  while (true) {
    IterRange Range = Pool.grab(64);
    if (Range.size() == 0)
      break;
    Seen += Range.size();
  }
  EXPECT_EQ(Seen, 1000u);
  EXPECT_EQ(Pool.remaining(), 0u);
}

TEST(WorkPool, ConcurrentGrabsPartitionTheRange) {
  WorkPool Pool(1000000);
  std::atomic<uint64_t> Total{0};
  std::vector<std::thread> Workers;
  for (int T = 0; T != 8; ++T)
    Workers.emplace_back([&] {
      while (true) {
        IterRange Range = Pool.grab(97);
        if (Range.size() == 0)
          return;
        Total.fetch_add(Range.size(), std::memory_order_relaxed);
      }
    });
  for (auto &W : Workers)
    W.join();
  EXPECT_EQ(Total.load(), 1000000u);
}

TEST(HybridParallelFor, SplitsByAlpha) {
  ThreadPool Pool(4);
  const uint64_t N = 10000;
  std::vector<std::atomic<uint32_t>> Hits(N);
  std::atomic<uint64_t> CpuIters{0}, GpuIters{0};
  uint64_t GpuBegin = 0, GpuEnd = 0;
  HybridResult Result = hybridParallelFor(
      Pool, N, 0.3,
      [&](uint64_t B, uint64_t E) {
        CpuIters.fetch_add(E - B);
        for (uint64_t I = B; I != E; ++I)
          Hits[I].fetch_add(1, std::memory_order_relaxed);
      },
      [&](uint64_t B, uint64_t E) {
        GpuIters.fetch_add(E - B);
        GpuBegin = B;
        GpuEnd = E;
        for (uint64_t I = B; I != E; ++I)
          Hits[I].fetch_add(1, std::memory_order_relaxed);
      });
  EXPECT_EQ(CpuIters.load() + GpuIters.load(), N);
  EXPECT_EQ(GpuIters.load(), 3000u);
  EXPECT_EQ(Result.CpuIterations, 7000u);
  EXPECT_EQ(Result.GpuIterations, 3000u);
  // The GPU executor receives the tail in one launch.
  EXPECT_EQ(GpuBegin, 7000u);
  EXPECT_EQ(GpuEnd, N);
  for (uint64_t I = 0; I != N; ++I)
    ASSERT_EQ(Hits[I].load(), 1u) << "index " << I;
}

TEST(HybridParallelFor, AlphaExtremes) {
  ThreadPool Pool(2);
  std::atomic<uint64_t> CpuIters{0}, GpuIters{0};
  std::atomic<unsigned> CpuCalls{0}, GpuLaunches{0};
  auto CpuBody = [&](uint64_t B, uint64_t E) {
    CpuCalls.fetch_add(1);
    CpuIters.fetch_add(E - B);
  };
  auto GpuBody = [&](uint64_t B, uint64_t E) {
    GpuLaunches.fetch_add(1);
    GpuIters.fetch_add(E - B);
  };
  // An empty share never reaches its device.
  HybridResult CpuOnly = hybridParallelFor(Pool, 1000, 0.0, CpuBody, GpuBody);
  EXPECT_EQ(CpuIters.load(), 1000u);
  EXPECT_EQ(GpuIters.load(), 0u);
  EXPECT_EQ(GpuLaunches.load(), 0u);
  EXPECT_EQ(CpuOnly.CpuIterations, 1000u);
  EXPECT_EQ(CpuOnly.GpuIterations, 0u);
  CpuCalls = 0;
  HybridResult GpuOnly = hybridParallelFor(Pool, 1000, 1.0, CpuBody, GpuBody);
  EXPECT_EQ(GpuIters.load(), 1000u);
  EXPECT_EQ(CpuCalls.load(), 0u);
  EXPECT_EQ(GpuLaunches.load(), 1u);
  EXPECT_EQ(GpuOnly.CpuIterations, 0u);
  EXPECT_EQ(GpuOnly.GpuIterations, 1000u);
}

TEST(ProfileChunkOnHost, CpuWorkersStopWhenGpuFinishes) {
  WorkPool Pool(1u << 20);
  std::atomic<uint64_t> CpuDone{0};
  HybridResult Result = profileChunkOnHost(
      Pool, /*GpuChunk=*/2048, /*Threads=*/3,
      [&](uint64_t B, uint64_t E) {
        CpuDone.fetch_add(E - B, std::memory_order_relaxed);
      },
      [](uint64_t B, uint64_t E) {
        // "GPU" takes a while, so the CPU reliably grabs some work even
        // on a loaded machine.
        std::this_thread::sleep_for(std::chrono::milliseconds(40));
      },
      /*CpuGrab=*/64);
  EXPECT_EQ(Result.GpuIterations, 2048u);
  EXPECT_EQ(Result.CpuIterations, CpuDone.load());
  EXPECT_GT(Result.CpuIterations, 0u);
  // Both busy times are usable throughput denominators: the GPU side
  // covers its whole launch, and the CPU side ran until it stopped.
  EXPECT_GE(Result.GpuSeconds, 0.040);
  EXPECT_GE(Result.CpuSeconds, Result.GpuSeconds);
  // The pool retains whatever neither side consumed.
  EXPECT_EQ(Pool.remaining(),
            (1u << 20) - Result.GpuIterations - Result.CpuIterations);
}
