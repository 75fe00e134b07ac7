//===-- tests/HistorySnapshotTest.cpp - durable table-G snapshots ---------===//
//
// Part of the ecas project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// Robustness coverage of the table-G snapshot format: exact round-trips
/// of the sample-weighted accumulators, rejection of truncated /
/// CRC-corrupt / version-mismatched files (always degrading to a cold
/// table, never aborting), tolerance of a stray temp file left by a
/// crashed writer, and end-to-end kill-and-restart recovery through
/// EasScheduler's HistoryFile plumbing.
///
//===----------------------------------------------------------------------===//

#include "ecas/core/EasScheduler.h"
#include "ecas/core/HistorySnapshot.h"
#include "ecas/core/KernelHistory.h"
#include "ecas/hw/Presets.h"

#include "TestSupport.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

using namespace ecas;

namespace {

/// A per-test scratch path; removes the file (and its temp sibling) on
/// destruction so tests cannot observe each other's snapshots.
class ScratchFile {
public:
  explicit ScratchFile(const std::string &Name)
      : Path(::testing::TempDir() + "ecas-" + Name + ".tblg") {
    std::remove(Path.c_str());
    std::remove((Path + ".tmp").c_str());
  }
  ~ScratchFile() {
    std::remove(Path.c_str());
    std::remove((Path + ".tmp").c_str());
  }
  const std::string &path() const { return Path; }

private:
  std::string Path;
};

std::string readFile(const std::string &Path) {
  std::ifstream File(Path, std::ios::binary);
  EXPECT_TRUE(File.good()) << Path;
  return std::string(std::istreambuf_iterator<char>(File),
                     std::istreambuf_iterator<char>());
}

void writeFile(const std::string &Path, const std::string &Bytes) {
  std::ofstream File(Path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(File.good()) << Path;
  File.write(Bytes.data(), static_cast<std::streamsize>(Bytes.size()));
}

bool fileExists(const std::string &Path) {
  return std::ifstream(Path).good();
}

/// A table with enough variety to exercise every encoded field.
void populate(KernelHistory &History) {
  History.update(7, [](KernelRecord &Rec) {
    Rec.Alpha.addSample(0.7, 1.0e6);
    Rec.Alpha.addSample(0.55, 3.0e5);
    Rec.Class = WorkloadClass::fromIndex(3);
    Rec.Confident = true;
    Rec.Sample.CpuThroughput = 1.25e8;
    Rec.Sample.GpuThroughput = 4.5e8;
    Rec.Sample.CpuIterations = 6.0e5;
    Rec.Sample.GpuIterations = 1.3e6;
    Rec.Sample.ElapsedSeconds = 4.8e-3;
    Rec.Sample.CpuBusySeconds = 4.1e-3;
    Rec.Sample.GpuBusySeconds = 2.9e-3;
    Rec.Sample.MissPerLoadStore = 0.37;
    Rec.Sample.InstructionsRetired = 9.9e6;
    Rec.PState = 2;
  });
  for (int I = 0; I != 5; ++I)
    History.bumpInvocations(7);
  History.update(11, [](KernelRecord &Rec) {
    Rec.CpuOnly = true;
    Rec.Class = WorkloadClass::fromIndex(1);
  });
  History.bumpInvocations(11);
  History.bumpQuarantinedRuns(11);
  History.update(9001, [](KernelRecord &Rec) {
    // An alpha produced by an irrational-weight accumulation: the
    // round-trip must reproduce the *parts* bit-exactly, not a rounded
    // value().
    Rec.Alpha.addSample(1.0 / 3.0, 123456.789);
    Rec.Sample.GpuHung = true;
    Rec.Sample.GpuLaunchFailed = true;
  });
}

void expectSameEntries(const KernelHistory &A, const KernelHistory &B) {
  auto Ea = A.entries();
  auto Eb = B.entries();
  ASSERT_EQ(Ea.size(), Eb.size());
  for (size_t I = 0; I != Ea.size(); ++I) {
    SCOPED_TRACE("kernel " + std::to_string(Ea[I].first));
    EXPECT_EQ(Ea[I].first, Eb[I].first);
    const KernelRecord &Ra = Ea[I].second;
    const KernelRecord &Rb = Eb[I].second;
    // Bit-exact: the accumulator parts must survive so future
    // sample-weighted merges blend against the true history.
    EXPECT_EQ(Ra.Alpha.weightedSum(), Rb.Alpha.weightedSum());
    EXPECT_EQ(Ra.Alpha.totalWeight(), Rb.Alpha.totalWeight());
    EXPECT_EQ(Ra.Class.index(), Rb.Class.index());
    EXPECT_EQ(Ra.CpuOnly, Rb.CpuOnly);
    EXPECT_EQ(Ra.Confident, Rb.Confident);
    EXPECT_EQ(Ra.Invocations, Rb.Invocations);
    EXPECT_EQ(Ra.QuarantinedRuns, Rb.QuarantinedRuns);
    EXPECT_EQ(Ra.Sample.CpuThroughput, Rb.Sample.CpuThroughput);
    EXPECT_EQ(Ra.Sample.GpuThroughput, Rb.Sample.GpuThroughput);
    EXPECT_EQ(Ra.Sample.CpuIterations, Rb.Sample.CpuIterations);
    EXPECT_EQ(Ra.Sample.GpuIterations, Rb.Sample.GpuIterations);
    EXPECT_EQ(Ra.Sample.ElapsedSeconds, Rb.Sample.ElapsedSeconds);
    EXPECT_EQ(Ra.Sample.CpuBusySeconds, Rb.Sample.CpuBusySeconds);
    EXPECT_EQ(Ra.Sample.GpuBusySeconds, Rb.Sample.GpuBusySeconds);
    EXPECT_EQ(Ra.Sample.MissPerLoadStore, Rb.Sample.MissPerLoadStore);
    EXPECT_EQ(Ra.Sample.InstructionsRetired, Rb.Sample.InstructionsRetired);
    EXPECT_EQ(Ra.Sample.GpuLaunchFailed, Rb.Sample.GpuLaunchFailed);
    EXPECT_EQ(Ra.Sample.GpuHung, Rb.Sample.GpuHung);
    EXPECT_EQ(Ra.PState, Rb.PState);
  }
}

} // namespace

TEST(HistorySnapshot, RoundTripIsExact) {
  KernelHistory Original;
  populate(Original);

  std::string Bytes = serializeKernelHistory(Original);
  EXPECT_EQ(Bytes.size(), 24u + 8u + 3u * 116u);

  KernelHistory Restored;
  ErrorOr<size_t> Count = deserializeKernelHistory(Restored, Bytes);
  ASSERT_TRUE(Count.ok()) << Count.status().toString();
  EXPECT_EQ(*Count, 3u);
  expectSameEntries(Original, Restored);
}

TEST(HistorySnapshot, SaveAndLoadRoundTrip) {
  ScratchFile File("save-load");
  KernelHistory Original;
  populate(Original);

  Status Saved = saveKernelHistory(Original, File.path());
  ASSERT_TRUE(Saved.ok()) << Saved.toString();
  // The atomic-write protocol must not leave its temp file behind.
  EXPECT_FALSE(fileExists(File.path() + ".tmp"));

  KernelHistory Restored;
  ErrorOr<size_t> Count = loadKernelHistory(Restored, File.path());
  ASSERT_TRUE(Count.ok()) << Count.status().toString();
  EXPECT_EQ(*Count, 3u);
  expectSameEntries(Original, Restored);
}

TEST(HistorySnapshot, MissingFileIsColdStart) {
  ScratchFile File("missing");
  KernelHistory History;
  populate(History);

  ErrorOr<size_t> Count = loadKernelHistory(History, File.path());
  ASSERT_TRUE(Count.ok()) << Count.status().toString();
  EXPECT_EQ(*Count, 0u);
  // Load replaces contents even on a cold start.
  EXPECT_EQ(History.size(), 0u);
}

TEST(HistorySnapshot, TruncatedFileIsRejected) {
  ScratchFile File("truncated");
  KernelHistory Original;
  populate(Original);
  ASSERT_TRUE(saveKernelHistory(Original, File.path()).ok());

  std::string Bytes = readFile(File.path());
  writeFile(File.path(), Bytes.substr(0, Bytes.size() - 10));

  KernelHistory Restored;
  Restored.bumpInvocations(42); // pre-existing state must not survive
  ErrorOr<size_t> Count = loadKernelHistory(Restored, File.path());
  ASSERT_FALSE(Count.ok());
  EXPECT_EQ(Count.status().code(), ErrCode::Truncated);
  EXPECT_EQ(Restored.size(), 0u);

  // Even the header can be cut short.
  writeFile(File.path(), Bytes.substr(0, 12));
  ErrorOr<size_t> Short = loadKernelHistory(Restored, File.path());
  ASSERT_FALSE(Short.ok());
  EXPECT_EQ(Short.status().code(), ErrCode::Truncated);
}

TEST(HistorySnapshot, CorruptPayloadFailsCrc) {
  ScratchFile File("crc");
  KernelHistory Original;
  populate(Original);
  ASSERT_TRUE(saveKernelHistory(Original, File.path()).ok());

  std::string Bytes = readFile(File.path());
  Bytes[40] = static_cast<char>(Bytes[40] ^ 0x5a); // inside the payload
  writeFile(File.path(), Bytes);

  KernelHistory Restored;
  ErrorOr<size_t> Count = loadKernelHistory(Restored, File.path());
  ASSERT_FALSE(Count.ok());
  EXPECT_EQ(Count.status().code(), ErrCode::CorruptData);
  EXPECT_EQ(Restored.size(), 0u);
}

TEST(HistorySnapshot, BadMagicIsRejected) {
  ScratchFile File("magic");
  KernelHistory Original;
  populate(Original);
  std::string Bytes = serializeKernelHistory(Original);
  Bytes[0] = 'X';

  KernelHistory Restored;
  ErrorOr<size_t> Count = deserializeKernelHistory(Restored, Bytes);
  ASSERT_FALSE(Count.ok());
  EXPECT_EQ(Count.status().code(), ErrCode::CorruptData);
  EXPECT_EQ(Restored.size(), 0u);
}

TEST(HistorySnapshot, VersionMismatchIsRejected) {
  ScratchFile File("version");
  KernelHistory Original;
  populate(Original);
  // Only the current version is read: an older file degrades to a cold
  // table like a newer one (the CRC covers the payload, not the version).
  for (uint32_t Version : {1u, 2u, HistorySnapshotVersion + 1}) {
    SCOPED_TRACE("v" + std::to_string(Version));
    std::string Bytes = serializeKernelHistory(Original);
    Bytes[8] = static_cast<char>(Version); // u32 LE version

    writeFile(File.path(), Bytes);
    KernelHistory Restored;
    ErrorOr<size_t> Count = loadKernelHistory(Restored, File.path());
    ASSERT_FALSE(Count.ok());
    EXPECT_EQ(Count.status().code(), ErrCode::VersionMismatch);
    EXPECT_EQ(Restored.size(), 0u);
  }
}

TEST(HistorySnapshot, LeftoverTempFileIsHarmless) {
  ScratchFile File("leftover-tmp");
  // A writer that crashed mid-write leaves <path>.tmp but never touches
  // the destination.
  writeFile(File.path() + ".tmp", "torn partial garbage");

  // With no destination file the restart is a cold start...
  KernelHistory Restored;
  ErrorOr<size_t> Cold = loadKernelHistory(Restored, File.path());
  ASSERT_TRUE(Cold.ok()) << Cold.status().toString();
  EXPECT_EQ(*Cold, 0u);

  // ...and the next save replaces the stray temp and publishes intact.
  KernelHistory Original;
  populate(Original);
  ASSERT_TRUE(saveKernelHistory(Original, File.path()).ok());
  EXPECT_FALSE(fileExists(File.path() + ".tmp"));
  ErrorOr<size_t> Count = loadKernelHistory(Restored, File.path());
  ASSERT_TRUE(Count.ok()) << Count.status().toString();
  EXPECT_EQ(*Count, 3u);
  expectSameEntries(Original, Restored);
}

TEST(HistorySnapshot, SaveOverwritesExistingSnapshot) {
  ScratchFile File("overwrite");
  KernelHistory First;
  First.update(1, [](KernelRecord &Rec) { Rec.Alpha.addSample(0.2, 10.0); });
  ASSERT_TRUE(saveKernelHistory(First, File.path()).ok());

  KernelHistory Second;
  populate(Second);
  ASSERT_TRUE(saveKernelHistory(Second, File.path()).ok());

  KernelHistory Restored;
  ErrorOr<size_t> Count = loadKernelHistory(Restored, File.path());
  ASSERT_TRUE(Count.ok()) << Count.status().toString();
  EXPECT_EQ(*Count, 3u);
  expectSameEntries(Second, Restored);
}

//===----------------------------------------------------------------------===//
// End-to-end: the scheduler's HistoryFile plumbing
//===----------------------------------------------------------------------===//

TEST(HistorySnapshot, SchedulerRecoversIdenticalAlphasAfterRestart) {
  ScratchFile File("scheduler-restart");
  PlatformSpec Spec = haswellDesktop();
  KernelDesc KernelA = namedKernel("restart-a");
  KernelDesc KernelB = namedKernel("restart-b");

  EasConfig Config;
  Config.HistoryFile = File.path();

  std::vector<std::pair<uint64_t, KernelRecord>> Learned;
  {
    EasScheduler Scheduler(desktopFamily(), Metric::edp(), Config);
    EXPECT_TRUE(Scheduler.restoreStatus().ok());
    EXPECT_EQ(Scheduler.restoredRecords(), 0u);
    SimProcessor Proc(Spec);
    for (int I = 0; I != 6; ++I) {
      Scheduler.execute(Proc, KernelA, 2e6);
      Scheduler.execute(Proc, KernelB, 1e6);
    }
    Learned = Scheduler.history().entries();
    ASSERT_EQ(Learned.size(), 2u);
    Status Down = Scheduler.shutdown();
    EXPECT_TRUE(Down.ok()) << Down.toString();
  } // the destructor's shutdown() must be a no-op after the explicit one

  EasScheduler Restarted(desktopFamily(), Metric::edp(), Config);
  EXPECT_TRUE(Restarted.restoreStatus().ok())
      << Restarted.restoreStatus().toString();
  EXPECT_EQ(Restarted.restoredRecords(), 2u);
  // A snapshot-only restore goes through the same recovery as a
  // journaled one and reports what it restored.
  EXPECT_EQ(Restarted.recoveryReport().Outcome, RecoveryOutcome::Clean);
  EXPECT_EQ(Restarted.recoveryReport().SnapshotRecords,
            Restarted.restoredRecords());

  auto Recovered = Restarted.history().entries();
  ASSERT_EQ(Recovered.size(), Learned.size());
  for (size_t I = 0; I != Learned.size(); ++I) {
    EXPECT_EQ(Recovered[I].first, Learned[I].first);
    // The kill-and-restart guarantee: identical learned alphas.
    EXPECT_EQ(Recovered[I].second.Alpha.weightedSum(),
              Learned[I].second.Alpha.weightedSum());
    EXPECT_EQ(Recovered[I].second.Alpha.totalWeight(),
              Learned[I].second.Alpha.totalWeight());
    EXPECT_EQ(Recovered[I].second.Invocations,
              Learned[I].second.Invocations);
  }

  // The restored table is live history, not an archive: the known
  // kernels hit the table-G fast path instead of re-profiling.
  SimProcessor Proc(Spec);
  EasScheduler::InvocationOutcome Hit = Restarted.execute(Proc, KernelA, 2e6);
  EXPECT_FALSE(Hit.Profiled);
  EXPECT_FALSE(Hit.Rejected);
}

TEST(HistorySnapshot, SchedulerDegradesToColdTableOnCorruptSnapshot) {
  ScratchFile File("scheduler-corrupt");
  writeFile(File.path(), "this is not a table-G snapshot at all.......");

  EasConfig Config;
  Config.HistoryFile = File.path();
  EasScheduler Scheduler(desktopFamily(), Metric::edp(), Config);

  // The corruption is reported, not fatal: cold table, still serving.
  EXPECT_FALSE(Scheduler.restoreStatus().ok());
  EXPECT_EQ(Scheduler.restoredRecords(), 0u);
  EXPECT_EQ(Scheduler.history().size(), 0u);

  SimProcessor Proc(haswellDesktop());
  KernelDesc Kernel = namedKernel("after-corruption");
  EasScheduler::InvocationOutcome Outcome = Scheduler.execute(Proc, Kernel, 2e6);
  EXPECT_FALSE(Outcome.Rejected);
  EXPECT_TRUE(Outcome.Profiled);

  // Shutdown replaces the corrupt file with a valid snapshot.
  ASSERT_TRUE(Scheduler.shutdown().ok());
  KernelHistory Reloaded;
  ErrorOr<size_t> Count = loadKernelHistory(Reloaded, File.path());
  ASSERT_TRUE(Count.ok()) << Count.status().toString();
  EXPECT_EQ(*Count, 1u);
}
