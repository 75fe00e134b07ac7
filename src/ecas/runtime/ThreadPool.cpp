//===-- ecas/runtime/ThreadPool.cpp - Work-stealing thread pool -----------===//
//
// Part of the ecas project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "ecas/runtime/ThreadPool.h"

#include "ecas/support/Assert.h"
#include "ecas/support/Random.h"

#include <algorithm>
#include <chrono>

using namespace ecas;

static double hostSeconds() {
  using Clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(Clock::now().time_since_epoch())
      .count();
}

ThreadPool::ThreadPool(unsigned NumWorkers) {
  if (NumWorkers == 0) {
    NumWorkers = std::thread::hardware_concurrency();
    if (NumWorkers == 0)
      NumWorkers = 4;
  }
  Workers.reserve(NumWorkers);
  for (unsigned I = 0; I != NumWorkers; ++I)
    Workers.push_back(std::make_unique<Worker>());
  for (unsigned I = 0; I != NumWorkers; ++I)
    Workers[I]->Thread = std::thread([this, I] { workerLoop(I); });
}

ThreadPool::~ThreadPool() {
  {
    LockGuard Lock(Mutex);
    ShuttingDown.store(true, std::memory_order_release);
  }
  WorkAvailable.notify_all();
  for (auto &W : Workers)
    if (W->Thread.joinable())
      W->Thread.join();
}

bool ThreadPool::jobCancelled() {
  if (CurrentJob.Cancelled.load(std::memory_order_acquire))
    return true;
  const CancellationToken *Cancel =
      CurrentJob.Cancel.load(std::memory_order_acquire);
  if (Cancel && Cancel->shouldStop(hostSeconds())) {
    CurrentJob.Cancelled.store(true, std::memory_order_release);
    return true;
  }
  return false;
}

uint64_t ThreadPool::parallelFor(uint64_t Begin, uint64_t End, uint64_t Grain,
                                 const RangeBody &Body,
                                 const CancellationToken *Cancel) {
  if (End <= Begin)
    return 0;
  if (Grain == 0)
    Grain = 1;
  LockGuard CallerLock(CallerMutex);

  const uint64_t Total = End - Begin;
  CurrentJob.Body.store(&Body, std::memory_order_relaxed);
  CurrentJob.Grain.store(Grain, std::memory_order_relaxed);
  CurrentJob.Cancel.store(Cancel, std::memory_order_relaxed);
  CurrentJob.Cancelled.store(false, std::memory_order_relaxed);
  CurrentJob.Executed.store(0, std::memory_order_relaxed);
  CurrentJob.PendingIters.store(Total, std::memory_order_release);

  // Seed one contiguous chunk per worker. Workers refine their chunk via
  // recursive splitting, and imbalance evens out through stealing. The
  // mutexed publication of each chunk also publishes the job fields
  // stored above to whoever acquires the range.
  const unsigned N = numWorkers();
  uint64_t Cursor = Begin;
  for (unsigned I = 0; I != N && Cursor < End; ++I) {
    uint64_t Size = (Total + N - 1) / N;
    uint64_t ChunkEnd = std::min(End, Cursor + Size);
    {
      LockGuard Lock(Mutex);
      Injected.push_back({Cursor, ChunkEnd});
    }
    Cursor = ChunkEnd;
  }
  {
    // Bump the epoch under the mutex: a worker evaluating the wait
    // predicate cannot then miss the notification (lost-wakeup race).
    LockGuard Lock(Mutex);
    JobEpoch.fetch_add(1, std::memory_order_acq_rel);
  }
  WorkAvailable.notify_all();

  // The caller participates: grab injected or stolen ranges and execute
  // them in grain-sized pieces (the caller has no deque of its own).
  Xoshiro256 Rng(0x9e3779b9 + Total);
  while (CurrentJob.PendingIters.load(std::memory_order_acquire) != 0) {
    IterRange Range;
    if (!takeInjected(Range) && !stealFrom(Rng, Range)) {
      std::this_thread::yield();
      continue;
    }
    if (jobCancelled()) {
      CurrentJob.PendingIters.fetch_sub(Range.size(),
                                        std::memory_order_acq_rel);
      continue;
    }
    const RangeBody &Fn = Body;
    for (uint64_t Piece = Range.Begin; Piece < Range.End;) {
      uint64_t PieceEnd = std::min(Range.End, Piece + Grain);
      Fn(Piece, PieceEnd);
      CurrentJob.Executed.fetch_add(PieceEnd - Piece,
                                    std::memory_order_relaxed);
      CurrentJob.PendingIters.fetch_sub(PieceEnd - Piece,
                                        std::memory_order_acq_rel);
      Piece = PieceEnd;
      if (jobCancelled()) {
        CurrentJob.PendingIters.fetch_sub(Range.End - Piece,
                                          std::memory_order_acq_rel);
        break;
      }
    }
  }
  // Drop the token before the caller's stack frame (which may own it)
  // unwinds; lingering workers only ever see null or the live pointer.
  CurrentJob.Cancel.store(nullptr, std::memory_order_release);
  return CurrentJob.Executed.load(std::memory_order_acquire);
}

bool ThreadPool::takeInjected(IterRange &Out) {
  LockGuard Lock(Mutex);
  if (Injected.empty())
    return false;
  Out = Injected.back();
  Injected.pop_back();
  return true;
}

bool ThreadPool::stealFrom(Xoshiro256 &Rng, IterRange &Out) {
  const unsigned N = numWorkers();
  // Two sweeps over random victims before reporting failure.
  for (unsigned Attempt = 0; Attempt != 2 * N; ++Attempt) {
    unsigned Victim = static_cast<unsigned>(Rng.nextBounded(N));
    if (auto Stolen = Workers[Victim]->Deque.steal()) {
      Steals.fetch_add(1, std::memory_order_relaxed);
      Out = *Stolen;
      return true;
    }
  }
  return false;
}

void ThreadPool::runRange(unsigned SelfIndex, IterRange Range) {
  // Cooperative cancellation point: a cancelled job's ranges are
  // discarded (counted off, never executed) so the job drains promptly.
  if (jobCancelled()) {
    CurrentJob.PendingIters.fetch_sub(Range.size(),
                                      std::memory_order_acq_rel);
    return;
  }
  Worker &Self = *Workers[SelfIndex];
  // The acquire loads pair with the release publication of the range we
  // just acquired, so these reads see the owning job's fields.
  const RangeBody &Fn = *CurrentJob.Body.load(std::memory_order_acquire);
  const uint64_t Grain = CurrentJob.Grain.load(std::memory_order_acquire);
  // Recursive halving: keep the lower half, expose the upper to thieves.
  while (Range.size() > Grain) {
    uint64_t Mid = Range.Begin + Range.size() / 2;
    Self.Deque.push({Mid, Range.End});
    Range.End = Mid;
  }
  Fn(Range.Begin, Range.End);
  CurrentJob.Executed.fetch_add(Range.size(), std::memory_order_relaxed);
  CurrentJob.PendingIters.fetch_sub(Range.size(),
                                    std::memory_order_acq_rel);
}

void ThreadPool::drainJob(unsigned SelfIndex) {
  Worker &Self = *Workers[SelfIndex];
  Xoshiro256 Rng(0xabcdef12u + SelfIndex);
  unsigned IdleSpins = 0;
  while (CurrentJob.PendingIters.load(std::memory_order_acquire) != 0) {
    if (auto Own = Self.Deque.pop()) {
      runRange(SelfIndex, *Own);
      IdleSpins = 0;
      continue;
    }
    IterRange Range;
    if (takeInjected(Range) || stealFrom(Rng, Range)) {
      runRange(SelfIndex, Range);
      IdleSpins = 0;
      continue;
    }
    if (++IdleSpins > 16)
      std::this_thread::yield();
  }
}

void ThreadPool::workerLoop(unsigned SelfIndex) {
  uint64_t SeenEpoch = 0;
  while (true) {
    {
      UniqueLock Lock(Mutex);
      WorkAvailable.wait(Lock.native(), [this, SeenEpoch] {
        return ShuttingDown.load(std::memory_order_acquire) ||
               JobEpoch.load(std::memory_order_acquire) != SeenEpoch;
      });
    }
    if (ShuttingDown.load(std::memory_order_acquire))
      return;
    SeenEpoch = JobEpoch.load(std::memory_order_acquire);
    drainJob(SelfIndex);
  }
}
