//===-- ecas/core/KernelHistory.h - The global table G ---------*- C++ -*-===//
//
// Part of the ecas project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Fig. 7's global runtime table G mapping a kernel's identity (the CPU
/// function pointer in Concord; a stable kernel id here) to its learned
/// GPU offload ratio, accumulated across invocations with the
/// sample-weighted technique of [12].
///
/// The table is sharded and safe for any number of concurrent readers
/// and writers. The steady-state hit — "kernel seen before, reuse its
/// alpha" — is lock-free: shards are insert-only atomic singly-linked
/// lists, and each entry publishes an immutable record version through
/// an atomic pointer, so lookup() never takes a lock. Mutation
/// (profiling merges) copies the current version, applies the change
/// under the shard lock, and republishes; replaced versions are retired
/// and reclaimed when the table is destroyed, so a concurrent reader can
/// keep dereferencing the version it loaded. The per-invocation counters
/// (Invocations, QuarantinedRuns) are plain atomics beside the published
/// pointer, keeping the whole hot path — lookup + count — lock-free.
///
//===----------------------------------------------------------------------===//

#ifndef ECAS_CORE_KERNELHISTORY_H
#define ECAS_CORE_KERNELHISTORY_H

#include "ecas/profile/OnlineProfiler.h"
#include "ecas/profile/WorkloadClass.h"
#include "ecas/support/HotPath.h"
#include "ecas/support/ThreadAnnotations.h"

#include <atomic>
#include <cstdint>
#include <utility>
#include <vector>

namespace ecas {

/// What the runtime remembers about one kernel.
struct KernelRecord {
  SampleWeightedAlpha Alpha;
  WorkloadClass Class;
  /// Profiling measurements accumulated across every profiled invocation
  /// of this kernel; re-profiling refines rather than replaces.
  ProfileSample Sample;
  /// Set when the small-N fast path (Fig. 7 steps 6-10) pinned the
  /// kernel to CPU-alone execution.
  bool CpuOnly = false;
  /// True once profiling has observed enough iterations on *both*
  /// devices for the throughput estimates to be trustworthy. A kernel
  /// first profiled on an invocation barely above GPU_PROFILE_SIZE gives
  /// the CPU almost nothing to chew on; such an alpha is provisional and
  /// the next sufficiently large invocation re-profiles ([12]'s repeated
  /// profiling for kernels whose behaviour the runtime hasn't pinned
  /// down).
  bool Confident = false;
  unsigned Invocations = 0;
  /// Invocations of this kernel forced to CPU-alone because the GPU was
  /// quarantined at dispatch time. These do not touch Alpha — the
  /// learned ratio describes the healthy platform, and a recovered GPU
  /// resumes from it (refined by the post-recovery re-profile) rather
  /// than from quarantine-poisoned history.
  unsigned QuarantinedRuns = 0;
  /// P-state the joint (alpha, f) search chose for this kernel; 0 (full
  /// speed) for records learned before the DVFS axis existed, which is
  /// also what v-prior snapshots and journal records decode to.
  unsigned PState = 0;
};

/// The table G. Thread-safe; see the file comment for the sharding and
/// publication scheme.
class KernelHistory {
public:
  static constexpr unsigned NumShards = 16;

  KernelHistory() = default;
  ~KernelHistory();

  KernelHistory(const KernelHistory &) = delete;
  KernelHistory &operator=(const KernelHistory &) = delete;

  /// Lock-free fast path: copies the record for \p KernelId into \p Out.
  /// Returns false (leaving \p Out untouched) when never seen.
  ECAS_HOT bool lookup(uint64_t KernelId, KernelRecord &Out) const;

  /// Mutates the record (creating it on first use): \p Fn receives a
  /// private copy of the current record and the result is republished
  /// for lock-free readers. Runs under the shard lock, so concurrent
  /// updates of the same kernel serialize and additive merges
  /// (Sample.accumulate, Alpha.addSample) never lose a contribution.
  /// The counters in the copy (Invocations, QuarantinedRuns) are
  /// read-only context: changes \p Fn makes to them are discarded; use
  /// the bump*() calls, which are their only writers. A template over
  /// the callable, not a std::function: the scheduler's merge closure
  /// captures more than libstdc++'s 16-byte small buffer holds, so
  /// erasing its type would heap-allocate on every merge.
  template <typename FnT> void update(uint64_t KernelId, FnT &&Fn);

  /// Lock-free monotone counters, the per-invocation hot path. Both
  /// create the entry on first use (that slow path takes the shard lock
  /// once — the one mutex the hot-path analyzer whitelists, see
  /// tools/ecas_hotpath.py). \returns the post-increment value.
  ECAS_HOT unsigned bumpInvocations(uint64_t KernelId);
  ECAS_HOT unsigned bumpQuarantinedRuns(uint64_t KernelId);

  /// Consistent per-record copy of the whole table, sorted by kernel id
  /// (shards are visited under their locks; the table may keep moving
  /// between shards).
  std::vector<std::pair<uint64_t, KernelRecord>> entries() const;

  /// Replaces the table's contents with \p Entries (snapshot recovery).
  void restore(const std::vector<std::pair<uint64_t, KernelRecord>> &Entries);

  void clear();
  size_t size() const;

private:
  /// One published, immutable version of a record. Replaced versions
  /// stay on the Older chain until the table dies, so readers that
  /// loaded them keep a valid pointer (the table holds few kernels and
  /// republishes only on profiling merges, so the garbage is bounded by
  /// the profile count).
  struct Version {
    KernelRecord Rec;
    Version *Older = nullptr;
  };

  struct Entry {
    explicit Entry(uint64_t KeyIn) : Key(KeyIn) {}
    const uint64_t Key;
    std::atomic<Version *> Current{nullptr};
    std::atomic<uint32_t> Invocations{0};
    std::atomic<uint32_t> QuarantinedRuns{0};
    std::atomic<Entry *> Next{nullptr};
  };

  struct Shard {
    /// Insert-only list head; lock-free readers walk it under no lock,
    /// writers publish under Mutex (so Head is atomic, not guarded).
    std::atomic<Entry *> Head{nullptr};
    /// All 16 shard locks are one lock class in the acquired-before
    /// graph; no path may hold two shards at once (DESIGN.md §9).
    mutable AnnotatedMutex Mutex{"KernelHistory.Shard"};
  };

  static unsigned shardIndex(uint64_t KernelId);
  /// Lock-free find within a shard's list.
  static Entry *findEntry(const Shard &S, uint64_t KernelId);
  /// Finds or inserts; takes the shard lock only when inserting.
  Entry &obtainEntry(uint64_t KernelId);
  static void composeRecord(const Entry &E, const Version *V,
                            KernelRecord &Out);
  static void destroyChain(Entry *Head);

  Shard Shards[NumShards];
  std::atomic<size_t> Count{0};
  /// Entries unlinked by clear()/restore(), kept alive for concurrent
  /// readers and freed with the table. Leaf lock, never taken while a
  /// shard lock is held: clear() collects unlinked chains first and
  /// retires them after releasing the shard locks.
  AnnotatedMutex RetiredMutex{"KernelHistory.Retired"};
  std::vector<Entry *> RetiredChains ECAS_GUARDED_BY(RetiredMutex);
};

template <typename FnT>
void KernelHistory::update(uint64_t KernelId, FnT &&Fn) {
  Entry &E = obtainEntry(KernelId);
  Shard &S = Shards[shardIndex(KernelId)];
  LockGuard Lock(S.Mutex);
  Version *Cur = E.Current.load(std::memory_order_relaxed);
  auto *Fresh = new Version();
  composeRecord(E, Cur, Fresh->Rec);
  unsigned InvocationsBefore = Fresh->Rec.Invocations;
  unsigned QuarantinedBefore = Fresh->Rec.QuarantinedRuns;
  Fn(Fresh->Rec);
  // Counters are owned by the bump*() atomics; a stale copy must not be
  // resurrected into the published version.
  Fresh->Rec.Invocations = InvocationsBefore;
  Fresh->Rec.QuarantinedRuns = QuarantinedBefore;
  Fresh->Older = Cur;
  E.Current.store(Fresh, std::memory_order_release);
}

} // namespace ecas

#endif // ECAS_CORE_KERNELHISTORY_H
