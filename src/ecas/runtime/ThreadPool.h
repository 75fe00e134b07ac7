//===-- ecas/runtime/ThreadPool.h - Work-stealing thread pool --*- C++ -*-===//
//
// Part of the ecas project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Persistent worker threads with per-worker Chase-Lev deques and random
/// stealing — the CPU half of the Concord-style runtime of Fig. 8. One
/// job (a data-parallel iteration space) runs at a time; workers split
/// stolen ranges recursively until they reach the job's grain size.
///
//===----------------------------------------------------------------------===//

#ifndef ECAS_RUNTIME_THREADPOOL_H
#define ECAS_RUNTIME_THREADPOOL_H

#include "ecas/runtime/ChaseLevDeque.h"
#include "ecas/support/Cancellation.h"
#include "ecas/support/Random.h"
#include "ecas/support/ThreadAnnotations.h"

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

namespace ecas {

/// Half-open iteration range [Begin, End).
struct IterRange {
  uint64_t Begin = 0;
  uint64_t End = 0;
  uint64_t size() const { return End - Begin; }
};

/// Kernel body: processes the half-open range [Begin, End) on the calling
/// worker. Must be safe to invoke concurrently on disjoint ranges.
using RangeBody = std::function<void(uint64_t Begin, uint64_t End)>;

/// Work-stealing thread pool executing one parallel job at a time.
class ThreadPool {
public:
  /// Spawns \p NumWorkers threads (0 = hardware concurrency).
  explicit ThreadPool(unsigned NumWorkers = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  unsigned numWorkers() const { return static_cast<unsigned>(Workers.size()); }

  /// Runs \p Body over [Begin, End) with ranges no smaller than \p Grain
  /// (except tails), blocking until every iteration completed or the job
  /// was cancelled. The calling thread participates in the work.
  ///
  /// \p Cancel, when non-null, is polled (against the host steady clock
  /// for its deadline) at every range boundary — the CPU worker loop's
  /// cooperative cancellation point. On cancellation the remaining
  /// ranges are discarded without running \p Body and the call returns
  /// promptly. \returns the number of iterations actually executed
  /// (End - Begin unless cancelled).
  uint64_t parallelFor(uint64_t Begin, uint64_t End, uint64_t Grain,
                       const RangeBody &Body,
                       const CancellationToken *Cancel = nullptr);

  /// Lifetime total of successful steals — a scheduling-quality statistic
  /// surfaced by the micro-benchmarks.
  uint64_t totalSteals() const {
    return Steals.load(std::memory_order_relaxed);
  }

private:
  struct Worker {
    ChaseLevDeque<IterRange> Deque;
    std::thread Thread;
  };

  /// State of the in-flight job; reset for each parallelFor. The fields
  /// are atomics because a worker lingering from the previous job may
  /// read them concurrently with the caller installing the next job; the
  /// release publication of the seed ranges orders the reads.
  struct Job {
    std::atomic<const RangeBody *> Body{nullptr};
    std::atomic<uint64_t> Grain{1};
    std::atomic<uint64_t> PendingIters{0};
    std::atomic<const CancellationToken *> Cancel{nullptr};
    /// Latched by the first worker that observes the token fire, so the
    /// rest short-circuit without re-reading the clock.
    std::atomic<bool> Cancelled{false};
    std::atomic<uint64_t> Executed{0};
  };

  /// True once this job should stop executing bodies (token fired).
  bool jobCancelled();
  void workerLoop(unsigned SelfIndex);
  /// Runs ranges from the worker's own deque, then steals. Returns when
  /// the job has no pending iterations.
  void drainJob(unsigned SelfIndex);
  /// Splits \p Range down to grain, keeping halves on SelfIndex's deque.
  void runRange(unsigned SelfIndex, IterRange Range);
  /// Pops a seeded chunk from the injection queue.
  bool takeInjected(IterRange &Out);
  /// Steals from random victims; fails after two full sweeps.
  bool stealFrom(Xoshiro256 &Rng, IterRange &Out);

  std::vector<std::unique_ptr<Worker>> Workers;
  Job CurrentJob;
  /// Seed chunks awaiting a first owner (callers cannot push onto a
  /// worker-owned deque, so parallelFor stages work here).
  std::vector<IterRange> Injected ECAS_GUARDED_BY(Mutex);
  /// Serializes concurrent parallelFor callers; the pool runs one job at
  /// a time. Acquired before ThreadPool.Queue (DESIGN.md §9): the
  /// caller stages seed chunks and bumps the epoch under Mutex while
  /// still holding the caller slot.
  AnnotatedMutex CallerMutex{"ThreadPool.Caller"};

  /// Guards the injection queue and the sleep/wake protocol.
  AnnotatedMutex Mutex{"ThreadPool.Queue"};
  std::condition_variable WorkAvailable;
  std::condition_variable JobDone;
  /// Incremented for each parallelFor; lets sleeping workers detect a
  /// fresh job without racing on pointers.
  std::atomic<uint64_t> JobEpoch{0};
  std::atomic<bool> ShuttingDown{false};
  std::atomic<uint64_t> Steals{0};
};

} // namespace ecas

#endif // ECAS_RUNTIME_THREADPOOL_H
