//===-- ecas/core/KernelHistory.cpp - The global table G ------------------===//
//
// Part of the ecas project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "ecas/core/KernelHistory.h"

#include <algorithm>

using namespace ecas;

KernelHistory::~KernelHistory() {
  for (Shard &S : Shards)
    destroyChain(S.Head.load(std::memory_order_relaxed));
  // The table is quiescent in its destructor, but the guard keeps the
  // annotation contract (and the analysis) simple.
  LockGuard Lock(RetiredMutex);
  for (Entry *Chain : RetiredChains)
    destroyChain(Chain);
  RetiredChains.clear();
}

void KernelHistory::destroyChain(Entry *Head) {
  while (Head) {
    Entry *Next = Head->Next.load(std::memory_order_relaxed);
    Version *V = Head->Current.load(std::memory_order_relaxed);
    while (V) {
      Version *Older = V->Older;
      delete V;
      V = Older;
    }
    delete Head;
    Head = Next;
  }
}

unsigned KernelHistory::shardIndex(uint64_t KernelId) {
  // Fibonacci hashing spreads sequential ids across shards.
  return static_cast<unsigned>((KernelId * 0x9e3779b97f4a7c15ull) >> 60) &
         (NumShards - 1);
}

KernelHistory::Entry *KernelHistory::findEntry(const Shard &S,
                                               uint64_t KernelId) {
  for (Entry *E = S.Head.load(std::memory_order_acquire); E;
       E = E->Next.load(std::memory_order_acquire))
    if (E->Key == KernelId)
      return E;
  return nullptr;
}

KernelHistory::Entry &KernelHistory::obtainEntry(uint64_t KernelId) {
  Shard &S = Shards[shardIndex(KernelId)];
  if (Entry *E = findEntry(S, KernelId))
    return *E;
  LockGuard Lock(S.Mutex);
  // Re-check: another writer may have inserted while we waited.
  if (Entry *E = findEntry(S, KernelId))
    return *E;
  // First sighting of this kernel: one entry + one empty version, once
  // per kernel lifetime — the warmed hit path re-reads these forever.
  auto *Fresh = new Entry(KernelId); // ecas-hotpath: allow(alloc)
  Fresh->Current.store(new Version(), // ecas-hotpath: allow(alloc)
                       std::memory_order_relaxed);
  Fresh->Next.store(S.Head.load(std::memory_order_relaxed),
                    std::memory_order_relaxed);
  // Publish: the release store makes the entry (and its empty first
  // version) visible to lock-free readers walking the list.
  S.Head.store(Fresh, std::memory_order_release);
  Count.fetch_add(1, std::memory_order_relaxed);
  return *Fresh;
}

void KernelHistory::composeRecord(const Entry &E, const Version *V,
                                  KernelRecord &Out) {
  Out = V->Rec;
  Out.Invocations = E.Invocations.load(std::memory_order_relaxed);
  Out.QuarantinedRuns = E.QuarantinedRuns.load(std::memory_order_relaxed);
}

bool KernelHistory::lookup(uint64_t KernelId, KernelRecord &Out) const {
  const Shard &S = Shards[shardIndex(KernelId)];
  const Entry *E = findEntry(S, KernelId);
  if (!E)
    return false;
  composeRecord(*E, E->Current.load(std::memory_order_acquire), Out);
  return true;
}

unsigned KernelHistory::bumpInvocations(uint64_t KernelId) {
  return obtainEntry(KernelId).Invocations.fetch_add(
             1, std::memory_order_relaxed) +
         1;
}

unsigned KernelHistory::bumpQuarantinedRuns(uint64_t KernelId) {
  return obtainEntry(KernelId).QuarantinedRuns.fetch_add(
             1, std::memory_order_relaxed) +
         1;
}

std::vector<std::pair<uint64_t, KernelRecord>> KernelHistory::entries() const {
  std::vector<std::pair<uint64_t, KernelRecord>> Out;
  Out.reserve(Count.load(std::memory_order_relaxed));
  for (const Shard &S : Shards) {
    LockGuard Lock(S.Mutex);
    for (const Entry *E = S.Head.load(std::memory_order_acquire); E;
         E = E->Next.load(std::memory_order_acquire)) {
      KernelRecord Rec;
      composeRecord(*E, E->Current.load(std::memory_order_acquire), Rec);
      Out.emplace_back(E->Key, Rec);
    }
  }
  std::sort(Out.begin(), Out.end(),
            [](const auto &A, const auto &B) { return A.first < B.first; });
  return Out;
}

void KernelHistory::restore(
    const std::vector<std::pair<uint64_t, KernelRecord>> &Entries) {
  clear();
  for (const auto &[Key, Rec] : Entries) {
    Entry &E = obtainEntry(Key);
    E.Invocations.store(Rec.Invocations, std::memory_order_relaxed);
    E.QuarantinedRuns.store(Rec.QuarantinedRuns, std::memory_order_relaxed);
    update(Key, [&Rec](KernelRecord &Target) {
      Target.Alpha = Rec.Alpha;
      Target.Class = Rec.Class;
      Target.Sample = Rec.Sample;
      Target.CpuOnly = Rec.CpuOnly;
      Target.Confident = Rec.Confident;
      Target.PState = Rec.PState;
    });
  }
}

void KernelHistory::clear() {
  // Unlink each shard's chain but keep the entries alive: a concurrent
  // lookup may still be walking them. They are freed with the table.
  // Chains are collected first and retired after the shard locks are
  // released — the shard lock and RetiredMutex are never held together,
  // keeping both leaves of the lock hierarchy (DESIGN.md §9).
  std::vector<Entry *> Unlinked;
  for (Shard &S : Shards) {
    Entry *Old;
    {
      LockGuard Lock(S.Mutex);
      Old = S.Head.exchange(nullptr, std::memory_order_acq_rel);
    }
    if (!Old)
      continue;
    size_t Chained = 0;
    for (Entry *E = Old; E; E = E->Next.load(std::memory_order_relaxed))
      ++Chained;
    Count.fetch_sub(Chained, std::memory_order_relaxed);
    Unlinked.push_back(Old);
  }
  if (Unlinked.empty())
    return;
  LockGuard RetireLock(RetiredMutex);
  RetiredChains.insert(RetiredChains.end(), Unlinked.begin(), Unlinked.end());
}

size_t KernelHistory::size() const {
  return Count.load(std::memory_order_relaxed);
}
