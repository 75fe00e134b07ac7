//===-- ecas/runtime/ParallelFor.h - Concord-style parallel_for *- C++ -*-===//
//
// Part of the ecas project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The host-side data-parallel API mirroring Concord's parallel_for and
/// the hybrid CPU+GPU execution structure of Fig. 8: a shared global
/// iteration pool, CPU workers with work-stealing, and one GPU proxy
/// offloading a contiguous chunk to a pluggable GPU executor. On this
/// repository the executor is simulated or thread-backed; a real OpenCL
/// backend would implement the same hook.
///
//===----------------------------------------------------------------------===//

#ifndef ECAS_RUNTIME_PARALLELFOR_H
#define ECAS_RUNTIME_PARALLELFOR_H

#include "ecas/runtime/ThreadPool.h"

namespace ecas {

/// Shared global pool of loop iterations; workers atomically grab chunks
/// (Fig. 7, OnlineProfile step 30: "atomically grabbing work from shared
/// counter").
class WorkPool {
public:
  explicit WorkPool(uint64_t Total) : Next(0), End(Total) {}

  /// Grabs up to \p MaxChunk iterations. An empty range (size() == 0)
  /// signals exhaustion.
  IterRange grab(uint64_t MaxChunk);

  /// Iterations not yet handed out. Racy under concurrency; exact once
  /// quiescent.
  uint64_t remaining() const;

  uint64_t total() const { return End; }

private:
  std::atomic<uint64_t> Next;
  uint64_t End;
};

/// Executes [Begin, End) on the "GPU" and returns when it completes.
using GpuExecutor = std::function<void(uint64_t Begin, uint64_t End)>;

/// Outcome of one hybrid CPU+GPU execution.
struct HybridResult {
  uint64_t CpuIterations = 0;
  uint64_t GpuIterations = 0;
  /// Wall-clock seconds each side spent busy (host steady clock).
  double CpuSeconds = 0.0;
  double GpuSeconds = 0.0;
  /// The run was cut short by a cancellation token; the iteration counts
  /// above cover only what actually executed.
  bool Cancelled = false;
};

/// Partitioned execution per Fig. 7 steps 23-25: the GPU proxy offloads
/// the tail Alpha*N iterations to \p Gpu while the CPU side executes the
/// head ((1-Alpha)*N) with work-stealing. Blocks until both finish.
/// \p Cancel bounds the CPU side cooperatively and is checked before the
/// GPU share is launched; once launched the GPU share runs to completion
/// unless the executor itself observes the token.
HybridResult hybridParallelFor(ThreadPool &Pool, uint64_t N, double Alpha,
                               const RangeBody &CpuBody,
                               const GpuExecutor &Gpu, uint64_t Grain = 256,
                               const CancellationToken *Cancel = nullptr);

/// Host-side adaptive profiling chunk (Fig. 7 steps 28-35): offloads
/// \p GpuChunk iterations from \p Pool to the GPU proxy while \p Threads
/// CPU workers drain the shared pool; CPU workers halt when the GPU
/// finishes. Returns iteration counts and busy seconds for throughput
/// estimation. \p Cancel is polled between CPU grabs (the worker loop's
/// cancellation point) and before the GPU chunk launches.
HybridResult profileChunkOnHost(WorkPool &Pool, uint64_t GpuChunk,
                                unsigned Threads, const RangeBody &CpuBody,
                                const GpuExecutor &Gpu,
                                uint64_t CpuGrab = 64,
                                const CancellationToken *Cancel = nullptr);

} // namespace ecas

#endif // ECAS_RUNTIME_PARALLELFOR_H
