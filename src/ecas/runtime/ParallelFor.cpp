//===-- ecas/runtime/ParallelFor.cpp - Concord-style parallel_for ---------===//
//
// Part of the ecas project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "ecas/runtime/ParallelFor.h"

#include "ecas/support/Assert.h"

#include <algorithm>
#include <chrono>

using namespace ecas;

IterRange WorkPool::grab(uint64_t MaxChunk) {
  if (MaxChunk == 0)
    MaxChunk = 1;
  uint64_t Begin = Next.fetch_add(MaxChunk, std::memory_order_relaxed);
  if (Begin >= End)
    return IterRange{End, End};
  return IterRange{Begin, std::min(End, Begin + MaxChunk)};
}

uint64_t WorkPool::remaining() const {
  uint64_t Cursor = Next.load(std::memory_order_relaxed);
  return Cursor >= End ? 0 : End - Cursor;
}

namespace {

/// Monotonic wall-clock seconds.
double hostSeconds() {
  using Clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(Clock::now().time_since_epoch())
      .count();
}

} // namespace

HybridResult ecas::hybridParallelFor(ThreadPool &Pool, uint64_t N,
                                     double Alpha, const RangeBody &CpuBody,
                                     const GpuExecutor &Gpu, uint64_t Grain,
                                     const CancellationToken *Cancel) {
  ECAS_CHECK(Alpha >= 0.0 && Alpha <= 1.0, "alpha must be in [0,1]");
  HybridResult Result;
  if (Cancel && Cancel->shouldStop(hostSeconds())) {
    Result.Cancelled = true;
    return Result;
  }
  uint64_t GpuIters = static_cast<uint64_t>(Alpha * static_cast<double>(N));
  GpuIters = std::min(GpuIters, N);
  uint64_t CpuEnd = N - GpuIters;
  Result.GpuIterations = GpuIters;

  // The GPU proxy is one dedicated thread driving the executor, exactly
  // like the proxy CPU worker of Section 3.1. Once launched the GPU
  // share runs to completion — only the executor itself can cut it
  // short.
  std::thread Proxy;
  double GpuStart = hostSeconds();
  if (GpuIters > 0)
    Proxy = std::thread([&Gpu, CpuEnd, N, &Result, GpuStart] {
      Gpu(CpuEnd, N);
      Result.GpuSeconds = hostSeconds() - GpuStart;
    });

  if (CpuEnd > 0) {
    double CpuStart = hostSeconds();
    Result.CpuIterations = Pool.parallelFor(0, CpuEnd, Grain, CpuBody, Cancel);
    Result.CpuSeconds = hostSeconds() - CpuStart;
  }
  if (Proxy.joinable())
    Proxy.join();
  if (Result.CpuIterations != CpuEnd ||
      (Cancel && Cancel->shouldStop(hostSeconds())))
    Result.Cancelled = true;
  return Result;
}

HybridResult ecas::profileChunkOnHost(WorkPool &Pool, uint64_t GpuChunk,
                                      unsigned Threads,
                                      const RangeBody &CpuBody,
                                      const GpuExecutor &Gpu,
                                      uint64_t CpuGrab,
                                      const CancellationToken *Cancel) {
  HybridResult Result;
  if (Cancel && Cancel->shouldStop(hostSeconds())) {
    Result.Cancelled = true;
    return Result;
  }
  IterRange GpuRange = Pool.grab(GpuChunk);
  Result.GpuIterations = GpuRange.size();

  std::atomic<bool> Stop{false};
  std::atomic<uint64_t> CpuDone{0};
  std::vector<std::thread> CpuWorkers;
  CpuWorkers.reserve(Threads);
  double CpuStart = hostSeconds();
  for (unsigned I = 0; I != Threads; ++I)
    CpuWorkers.emplace_back([&] {
      // The grab loop is the CPU worker's cooperative cancellation
      // point: the token is polled between chunks, so a fired token
      // stops a worker after at most one CpuGrab-sized chunk.
      while (!Stop.load(std::memory_order_acquire)) {
        if (Cancel && Cancel->shouldStop(hostSeconds()))
          return;
        IterRange Range = Pool.grab(CpuGrab);
        if (Range.size() == 0)
          return;
        CpuBody(Range.Begin, Range.End);
        CpuDone.fetch_add(Range.size(), std::memory_order_relaxed);
      }
    });

  double GpuStart = hostSeconds();
  if (GpuRange.size() > 0)
    Gpu(GpuRange.Begin, GpuRange.End);
  Result.GpuSeconds = hostSeconds() - GpuStart;

  // The proxy terminates the CPU workers as soon as the GPU completes
  // (Fig. 7 step 33); the current chunk of each worker finishes first.
  Stop.store(true, std::memory_order_release);
  for (std::thread &Worker : CpuWorkers)
    Worker.join();
  Result.CpuSeconds = hostSeconds() - CpuStart;
  Result.CpuIterations = CpuDone.load(std::memory_order_relaxed);
  if (Cancel && Cancel->shouldStop(hostSeconds()))
    Result.Cancelled = true;
  return Result;
}
