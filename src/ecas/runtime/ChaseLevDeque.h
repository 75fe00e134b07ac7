//===-- ecas/runtime/ChaseLevDeque.h - Work-stealing deque -----*- C++ -*-===//
//
// Part of the ecas project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Lock-free work-stealing deque (Chase & Lev, SPAA'05, with the C11
/// memory-order corrections of Lê et al., PPoPP'13). The owner pushes and
/// pops at the bottom; thieves steal from the top. This is the per-worker
/// queue of the Concord-style runtime in Section 4 ("our runtime
/// implements work-stealing on the CPU").
///
//===----------------------------------------------------------------------===//

#ifndef ECAS_RUNTIME_CHASELEVDEQUE_H
#define ECAS_RUNTIME_CHASELEVDEQUE_H

#include "ecas/support/Assert.h"

#include <atomic>
#include <cstdint>
#include <optional>

namespace ecas {

/// Work-stealing deque of trivially copyable elements.
///
/// Thread-safety contract: exactly one owner thread may call push() and
/// pop(); any number of threads may call steal() concurrently. The
/// deque is lock-free, so there is no capability to annotate (DESIGN.md
/// §9): the owner restriction is enforced structurally — each
/// ThreadPool worker owns exactly its own deque — and validated
/// dynamically under the TSan preset rather than by Clang's analysis,
/// which has no owner-thread concept.
template <typename T> class ChaseLevDeque {
  static_assert(std::is_trivially_copyable_v<T>,
                "ChaseLevDeque elements must be trivially copyable");

public:
  explicit ChaseLevDeque(uint64_t InitialCapacity = 64)
      : Buffer(new RingBuffer(roundUpPow2(InitialCapacity))) {}

  ChaseLevDeque(const ChaseLevDeque &) = delete;
  ChaseLevDeque &operator=(const ChaseLevDeque &) = delete;

  ~ChaseLevDeque() {
    RingBuffer *Buf = Buffer.load(std::memory_order_relaxed);
    while (Buf) {
      RingBuffer *Prev = Buf->Retired;
      delete Buf;
      Buf = Prev;
    }
  }

  /// Owner-only: appends at the bottom, growing the ring when full.
  void push(T Value) {
    int64_t B = Bottom.load(std::memory_order_relaxed);
    int64_t TIdx = Top.load(std::memory_order_acquire);
    RingBuffer *Buf = Buffer.load(std::memory_order_relaxed);
    if (B - TIdx >= static_cast<int64_t>(Buf->Capacity)) {
      Buf = grow(Buf, TIdx, B);
    }
    Buf->put(B, Value);
    // Publishes the slot, and everything the owner saw before pushing,
    // to the thief that steals it. This must be a release store, not a
    // release fence plus a relaxed store: both order the same writes,
    // but TSan models only the store.
    Bottom.store(B + 1, std::memory_order_release);
  }

  /// Owner-only: removes from the bottom (LIFO). Empty -> nullopt.
  std::optional<T> pop() {
    int64_t B = Bottom.load(std::memory_order_relaxed) - 1;
    RingBuffer *Buf = Buffer.load(std::memory_order_relaxed);
    Bottom.store(B, std::memory_order_relaxed);
    // Lê et al.'s store->load ordering against a concurrent steal(), not
    // publication. TSan ignores standalone fences, so no happens-before
    // edge may rely on this one (nor on the one in steal()).
    std::atomic_thread_fence(std::memory_order_seq_cst);
    int64_t TIdx = Top.load(std::memory_order_relaxed);
    if (TIdx > B) {
      // Deque was empty; restore.
      Bottom.store(B + 1, std::memory_order_relaxed);
      return std::nullopt;
    }
    T Value = Buf->get(B);
    if (TIdx != B)
      return Value; // More than one element: no race with thieves.
    // Single element: race the thieves for it.
    bool Won = Top.compare_exchange_strong(TIdx, TIdx + 1,
                                           std::memory_order_seq_cst,
                                           std::memory_order_relaxed);
    Bottom.store(B + 1, std::memory_order_relaxed);
    if (!Won)
      return std::nullopt;
    return Value;
  }

  /// Thief: removes from the top (FIFO). Empty or lost race -> nullopt.
  std::optional<T> steal() {
    int64_t TIdx = Top.load(std::memory_order_acquire);
    // Pairs with pop()'s fence (store->load ordering only; see there).
    std::atomic_thread_fence(std::memory_order_seq_cst);
    int64_t B = Bottom.load(std::memory_order_acquire);
    if (TIdx >= B)
      return std::nullopt;
    RingBuffer *Buf = Buffer.load(std::memory_order_consume);
    T Value = Buf->get(TIdx);
    if (!Top.compare_exchange_strong(TIdx, TIdx + 1,
                                     std::memory_order_seq_cst,
                                     std::memory_order_relaxed))
      return std::nullopt;
    return Value;
  }

  /// Racy size estimate; exact only when quiescent.
  int64_t sizeEstimate() const {
    int64_t B = Bottom.load(std::memory_order_relaxed);
    int64_t TIdx = Top.load(std::memory_order_relaxed);
    return B > TIdx ? B - TIdx : 0;
  }

private:
  struct RingBuffer {
    explicit RingBuffer(uint64_t Cap)
        : Capacity(Cap), Mask(Cap - 1), Slots(new std::atomic<T>[Cap]) {}
    ~RingBuffer() { delete[] Slots; }

    void put(int64_t Index, T Value) {
      Slots[static_cast<uint64_t>(Index) & Mask].store(
          Value, std::memory_order_relaxed);
    }
    T get(int64_t Index) const {
      return Slots[static_cast<uint64_t>(Index) & Mask].load(
          std::memory_order_relaxed);
    }

    uint64_t Capacity;
    uint64_t Mask;
    std::atomic<T> *Slots;
    /// Chain of replaced buffers, freed with the deque. Thieves may still
    /// be reading a retired buffer, so reclamation must be deferred.
    RingBuffer *Retired = nullptr;
  };

  static uint64_t roundUpPow2(uint64_t X) {
    uint64_t P = 1;
    while (P < X)
      P <<= 1;
    return P < 8 ? 8 : P;
  }

  RingBuffer *grow(RingBuffer *Old, int64_t TIdx, int64_t B) {
    auto *Fresh = new RingBuffer(Old->Capacity * 2);
    for (int64_t I = TIdx; I != B; ++I)
      Fresh->put(I, Old->get(I));
    Fresh->Retired = Old;
    Buffer.store(Fresh, std::memory_order_release);
    return Fresh;
  }

  alignas(64) std::atomic<int64_t> Top{0};
  alignas(64) std::atomic<int64_t> Bottom{0};
  alignas(64) std::atomic<RingBuffer *> Buffer;
};

} // namespace ecas

#endif // ECAS_RUNTIME_CHASELEVDEQUE_H
