//===-- tests/RaceRegressionTest.cpp - Latent-race regressions --------------===//
//
// Part of the ecas project, under the MIT License.
//
// Regression test for a latent finding surfaced while annotating the
// tree for Clang's thread-safety analysis (DESIGN.md §9):
// KernelHistory::clear() retired unlinked chains while still holding a
// shard lock, nesting KernelHistory.Retired inside KernelHistory.Shard
// and inverting the documented hierarchy. The rewrite unlinks under the
// shard locks and retires after releasing them; concurrent
// clear()/update()/entries() must neither deadlock nor trip the
// lock-order validator.
//
//===----------------------------------------------------------------------===//

#include "ecas/core/KernelHistory.h"
#include "ecas/support/LockOrder.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

using namespace ecas;

// clear() racing writers and snapshotters: must terminate (no deadlock)
// and, in ECAS_LOCK_ORDER builds, must not report a Shard -> Retired
// inversion on the global validator.
TEST(RaceRegression, HistoryClearDoesNotNestRetiredInsideShard) {
#if defined(ECAS_LOCK_ORDER)
  LockOrderValidator::global().reset();
#endif
  KernelHistory History;
  std::atomic<bool> Stop{false};
  std::thread Writer([&] {
    uint64_t K = 0;
    while (!Stop.load(std::memory_order_acquire)) {
      History.update(K++ % 64, [](KernelRecord &Rec) {
        Rec.Invocations += 1;
      });
    }
  });
  std::thread Snapshotter([&] {
    while (!Stop.load(std::memory_order_acquire)) {
      (void)History.entries();
    }
  });
  for (int I = 0; I != 200; ++I)
    History.clear();
  Stop.store(true, std::memory_order_release);
  Writer.join();
  Snapshotter.join();
  EXPECT_EQ(History.size(), History.entries().size());
#if defined(ECAS_LOCK_ORDER)
  for (const auto &V : LockOrderValidator::global().violations())
    ADD_FAILURE() << V.Message;
  LockOrderValidator::global().reset();
#endif
}
