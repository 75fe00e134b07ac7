//===-- tests/CrashRecoveryTest.cpp - WAL + kill -9 recovery --------------===//
//
// Part of the ecas project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Crash-consistency coverage for table G (DESIGN.md §13), in four
/// layers:
///
///   1. journal format: CRC-framed encode/scan round-trips, torn-tail
///      truncation, header rejection, order-exact replay semantics;
///   2. recovery: snapshot + journal composition, the epoch stale-skip
///      that prevents double-apply, outcome classification, idempotent
///      re-recovery;
///   3. corruption matrix: the snapshot and journal parsers fed every
///      single-byte truncation and every single-bit flip of a seeded
///      corpus, plus random multi-fault rounds — each must degrade to a
///      cold table or a truncated replay, never crash;
///   4. the fork harness: a child process armed to _exit() at each
///      declared crash point (and one killed with SIGKILL mid-load);
///      the parent re-recovers and asserts the invariants — recovered
///      state contains everything durable before the crash, nothing
///      the crash could not have persisted, and recovery of the
///      recovered state is a fixpoint.
///
//===----------------------------------------------------------------------===//

#include "ecas/core/EasScheduler.h"
#include "ecas/core/HistoryCodec.h"
#include "ecas/core/HistoryJournal.h"
#include "ecas/core/HistorySnapshot.h"
#include "ecas/core/KernelHistory.h"
#include "ecas/hw/Presets.h"
#include "ecas/obs/MetricNames.h"
#include "ecas/support/AtomicFile.h"
#include "ecas/support/CrashPoint.h"
#include "ecas/support/Crc32.h"
#include "ecas/support/Random.h"

#include "TestSupport.h"

#include <gtest/gtest.h>

#include <bit>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#ifndef _WIN32
#include <csignal>
#include <sys/wait.h>
#include <unistd.h>
#endif

using namespace ecas;

namespace {

/// Scratch snapshot + journal pair, cleaned up on destruction.
class ScratchPair {
public:
  explicit ScratchPair(const std::string &Name)
      : Snap(::testing::TempDir() + "ecas-cr-" + Name + ".tblg"),
        Wal(Snap + ".wal") {
    remove();
  }
  ~ScratchPair() { remove(); }
  const std::string &snap() const { return Snap; }
  const std::string &wal() const { return Wal; }

private:
  void remove() {
    std::remove(Snap.c_str());
    std::remove((Snap + ".tmp").c_str());
    std::remove(Wal.c_str());
    std::remove((Wal + ".tmp").c_str());
  }
  std::string Snap;
  std::string Wal;
};

std::string readFile(const std::string &Path) {
  std::ifstream File(Path, std::ios::binary);
  EXPECT_TRUE(File.good()) << Path;
  return std::string(std::istreambuf_iterator<char>(File),
                     std::istreambuf_iterator<char>());
}

void writeRaw(const std::string &Path, const std::string &Bytes) {
  std::ofstream File(Path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(File.good()) << Path;
  File.write(Bytes.data(), static_cast<std::streamsize>(Bytes.size()));
}

/// The base table every recovery test starts from: keys 7, 11, 9001
/// with invocation counts 5, 1, 0.
void populateBase(KernelHistory &History) {
  History.update(7, [](KernelRecord &Rec) {
    Rec.Alpha.addSample(0.7, 1.0e6);
    Rec.Class = WorkloadClass::fromIndex(3);
    Rec.Confident = true;
    Rec.Sample.CpuThroughput = 1.25e8;
    Rec.Sample.GpuThroughput = 4.5e8;
    Rec.Sample.CpuIterations = 6.0e5;
    Rec.Sample.GpuIterations = 1.3e6;
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
    Rec.Alpha.addSample(1.0 / 3.0, 123456.789);
    Rec.Sample.GpuHung = true;
  });
}

/// A delta with every field in play, for exact round-trip checks.
HistoryDeltaRecord richDelta() {
  HistoryDeltaRecord Rec;
  Rec.Key = 0xfeedbeef12345678ULL;
  Rec.InvocationsDelta = 3;
  Rec.QuarantinedDelta = 1;
  Rec.HasMergedSample = true;
  ProfileSample &S = Rec.MergedSample;
  S.CpuThroughput = 2.5e8;
  S.GpuThroughput = 7.0e8;
  S.CpuIterations = 4.0e5;
  S.GpuIterations = 1.1e6;
  S.ElapsedSeconds = 3.25e-3;
  S.CpuBusySeconds = 2.75e-3;
  S.GpuBusySeconds = 1.5e-3;
  S.MissPerLoadStore = 0.21;
  S.InstructionsRetired = 6.5e6;
  S.GpuLaunchFailed = true;
  Rec.BecameConfident = true;
  Rec.HasAlphaSample = true;
  Rec.AlphaValue = 0.625;
  Rec.AlphaWeight = 1.5e6;
  Rec.HasClass = true;
  Rec.ClassIndex = 5;
  Rec.HasPState = true;
  Rec.PState = 3;
  return Rec;
}

void putLe32(std::string &Out, uint32_t V) {
  for (int B = 0; B != 4; ++B)
    Out.push_back(static_cast<char>((V >> (8 * B)) & 0xff));
}

/// Re-frames \p Payload the way encodeDeltaFrame does (u32 length, u32
/// payload CRC, payload) — for hand-built records.
void frameRaw(std::string &Out, const std::string &Payload) {
  putLe32(Out, static_cast<uint32_t>(Payload.size()));
  putLe32(Out, crc32(Payload.data(), Payload.size()));
  Out += Payload;
}

/// Restamps the journal in \p Bytes as a \p Version writer would have
/// headed it: same layout, the u32 version changed, the header CRC over
/// bytes [8, 20) recomputed.
void setJournalVersion(std::string &Bytes, uint32_t Version) {
  std::string Header = Bytes.substr(0, 8);
  putLe32(Header, Version);
  Header.append(Bytes, 12, 8); // the epoch
  putLe32(Header, crc32(Header.data() + 8, 12));
  Bytes.replace(0, Header.size(), Header);
}

/// Every KernelRecord field, doubles compared bit for bit.
void expectSameRecord(const KernelRecord &A, const KernelRecord &B) {
  auto Bits = [](double V) { return std::bit_cast<uint64_t>(V); };
  EXPECT_EQ(Bits(A.Alpha.weightedSum()), Bits(B.Alpha.weightedSum()));
  EXPECT_EQ(Bits(A.Alpha.totalWeight()), Bits(B.Alpha.totalWeight()));
  EXPECT_EQ(A.Class.index(), B.Class.index());
  EXPECT_EQ(Bits(A.Sample.CpuThroughput), Bits(B.Sample.CpuThroughput));
  EXPECT_EQ(Bits(A.Sample.GpuThroughput), Bits(B.Sample.GpuThroughput));
  EXPECT_EQ(Bits(A.Sample.CpuIterations), Bits(B.Sample.CpuIterations));
  EXPECT_EQ(Bits(A.Sample.GpuIterations), Bits(B.Sample.GpuIterations));
  EXPECT_EQ(Bits(A.Sample.ElapsedSeconds), Bits(B.Sample.ElapsedSeconds));
  EXPECT_EQ(Bits(A.Sample.CpuBusySeconds), Bits(B.Sample.CpuBusySeconds));
  EXPECT_EQ(Bits(A.Sample.GpuBusySeconds), Bits(B.Sample.GpuBusySeconds));
  EXPECT_EQ(Bits(A.Sample.MissPerLoadStore), Bits(B.Sample.MissPerLoadStore));
  EXPECT_EQ(Bits(A.Sample.InstructionsRetired),
            Bits(B.Sample.InstructionsRetired));
  EXPECT_EQ(A.Sample.GpuLaunchFailed, B.Sample.GpuLaunchFailed);
  EXPECT_EQ(A.Sample.GpuHung, B.Sample.GpuHung);
  EXPECT_EQ(A.CpuOnly, B.CpuOnly);
  EXPECT_EQ(A.Confident, B.Confident);
  EXPECT_EQ(A.Invocations, B.Invocations);
  EXPECT_EQ(A.QuarantinedRuns, B.QuarantinedRuns);
  EXPECT_EQ(A.PState, B.PState);
}

void expectSameEntries(const KernelHistory &A, const KernelHistory &B) {
  auto Ea = A.entries();
  auto Eb = B.entries();
  ASSERT_EQ(Ea.size(), Eb.size());
  for (size_t I = 0; I != Ea.size(); ++I) {
    SCOPED_TRACE("kernel " + std::to_string(Ea[I].first));
    EXPECT_EQ(Ea[I].first, Eb[I].first);
    expectSameRecord(Ea[I].second, Eb[I].second);
  }
}

} // namespace

//===----------------------------------------------------------------------===//
// 1. Journal format
//===----------------------------------------------------------------------===//

TEST(JournalFormat, HeaderRoundTrip) {
  std::string Bytes = encodeJournalHeader(7);
  EXPECT_EQ(Bytes.size(), 24u);
  JournalScan Scan = scanJournal(Bytes);
  EXPECT_TRUE(Scan.HeaderValid);
  EXPECT_EQ(Scan.Epoch, 7u);
  EXPECT_TRUE(Scan.Records.empty());
  EXPECT_FALSE(Scan.Torn);
  EXPECT_EQ(Scan.ValidBytes, Bytes.size());
}

TEST(JournalFormat, FrameRoundTripAllFields) {
  HistoryDeltaRecord Rich = richDelta();
  HistoryDeltaRecord Bare;
  Bare.Key = 42;
  Bare.InvocationsDelta = 1;
  Bare.SetCpuOnly = true;
  // The other fault-flag byte, so each decodes independently.
  HistoryDeltaRecord Hung;
  Hung.Key = 43;
  Hung.HasMergedSample = true;
  Hung.MergedSample.GpuHung = true;

  std::string Bytes = encodeJournalHeader(3);
  encodeDeltaFrame(Bytes, Rich);
  encodeDeltaFrame(Bytes, Bare);
  encodeDeltaFrame(Bytes, Hung);

  JournalScan Scan = scanJournal(Bytes);
  ASSERT_TRUE(Scan.HeaderValid);
  EXPECT_EQ(Scan.Epoch, 3u);
  EXPECT_FALSE(Scan.Torn);
  ASSERT_EQ(Scan.Records.size(), 3u);

  const HistoryDeltaRecord &R = Scan.Records[0];
  EXPECT_EQ(R.Key, Rich.Key);
  EXPECT_EQ(R.InvocationsDelta, Rich.InvocationsDelta);
  EXPECT_EQ(R.QuarantinedDelta, Rich.QuarantinedDelta);
  EXPECT_EQ(R.BecameConfident, Rich.BecameConfident);
  EXPECT_EQ(R.HasAlphaSample, Rich.HasAlphaSample);
  EXPECT_EQ(R.AlphaValue, Rich.AlphaValue);
  EXPECT_EQ(R.AlphaWeight, Rich.AlphaWeight);
  EXPECT_EQ(R.HasClass, Rich.HasClass);
  EXPECT_EQ(R.ClassIndex, Rich.ClassIndex);
  EXPECT_EQ(R.HasPState, Rich.HasPState);
  EXPECT_EQ(R.PState, Rich.PState);
  EXPECT_TRUE(R.HasMergedSample);
  EXPECT_EQ(R.MergedSample.CpuThroughput, Rich.MergedSample.CpuThroughput);
  EXPECT_EQ(R.MergedSample.CpuIterations, Rich.MergedSample.CpuIterations);
  EXPECT_EQ(R.MergedSample.MissPerLoadStore,
            Rich.MergedSample.MissPerLoadStore);
  EXPECT_EQ(R.MergedSample.InstructionsRetired,
            Rich.MergedSample.InstructionsRetired);
  EXPECT_TRUE(R.MergedSample.GpuLaunchFailed);
  EXPECT_FALSE(R.MergedSample.GpuHung);

  EXPECT_EQ(Scan.Records[1].Key, 42u);
  EXPECT_FALSE(Scan.Records[1].HasMergedSample);
  EXPECT_TRUE(Scan.Records[1].SetCpuOnly);

  EXPECT_EQ(Scan.Records[2].Key, 43u);
  EXPECT_TRUE(Scan.Records[2].HasMergedSample);
  EXPECT_FALSE(Scan.Records[2].MergedSample.GpuLaunchFailed);
  EXPECT_TRUE(Scan.Records[2].MergedSample.GpuHung);
}

TEST(JournalFormat, TornTailTruncatesAtFirstBadFrame) {
  HistoryDeltaRecord Rec;
  Rec.Key = 9;
  Rec.InvocationsDelta = 1;

  std::string Bytes = encodeJournalHeader(1);
  encodeDeltaFrame(Bytes, Rec);
  encodeDeltaFrame(Bytes, Rec);
  size_t TwoFrames = Bytes.size();
  encodeDeltaFrame(Bytes, Rec);

  // Chop mid-third-frame: the valid prefix is exactly two frames.
  std::string Torn = Bytes.substr(0, TwoFrames + 5);
  JournalScan Scan = scanJournal(Torn);
  ASSERT_TRUE(Scan.HeaderValid);
  EXPECT_TRUE(Scan.Torn);
  EXPECT_EQ(Scan.Records.size(), 2u);
  EXPECT_EQ(Scan.TruncatedRecords, 1u);
  EXPECT_EQ(Scan.ValidBytes, TwoFrames);

  // Chop inside the frame header (not even the length survives).
  Scan = scanJournal(Bytes.substr(0, TwoFrames + 3));
  EXPECT_TRUE(Scan.Torn);
  EXPECT_EQ(Scan.Records.size(), 2u);
  EXPECT_EQ(Scan.ValidBytes, TwoFrames);
}

TEST(JournalFormat, BitFlipStopsScanAtCorruptFrame) {
  HistoryDeltaRecord Rec;
  Rec.Key = 9;
  Rec.InvocationsDelta = 1;
  std::string Bytes = encodeJournalHeader(1);
  encodeDeltaFrame(Bytes, Rec);
  size_t OneFrame = Bytes.size();
  encodeDeltaFrame(Bytes, Rec);

  Bytes[OneFrame + 10] = static_cast<char>(Bytes[OneFrame + 10] ^ 0x40);
  JournalScan Scan = scanJournal(Bytes);
  ASSERT_TRUE(Scan.HeaderValid);
  EXPECT_TRUE(Scan.Torn);
  EXPECT_EQ(Scan.Records.size(), 1u);
  EXPECT_EQ(Scan.ValidBytes, OneFrame);
  EXPECT_FALSE(Scan.Error.ok());
}

TEST(JournalFormat, HeaderCorruptionRejected) {
  std::string Good = encodeJournalHeader(5);

  std::string BadMagic = Good;
  BadMagic[0] = 'X';
  EXPECT_FALSE(scanJournal(BadMagic).HeaderValid);

  // Only the current version is read: an older or newer header is
  // rejected even with a valid header CRC.
  for (uint32_t Version : {1u, 2u, HistoryJournalVersion + 1}) {
    std::string BadVersion = Good;
    setJournalVersion(BadVersion, Version);
    JournalScan Scan = scanJournal(BadVersion);
    EXPECT_FALSE(Scan.HeaderValid) << "v" << Version;
    ASSERT_FALSE(Scan.Error.ok()) << "v" << Version;
    EXPECT_EQ(Scan.Error.code(), ErrCode::VersionMismatch) << "v" << Version;
  }

  std::string BadCrc = Good;
  BadCrc[21] = static_cast<char>(BadCrc[21] ^ 0x01);
  EXPECT_FALSE(scanJournal(BadCrc).HeaderValid);

  EXPECT_FALSE(scanJournal(Good.substr(0, 23)).HeaderValid);
  EXPECT_FALSE(scanJournal("").HeaderValid);
}

// A profiled merge carries the record's merged sample; replay assigns
// it, whatever the record held before, instead of accumulating.
TEST(JournalFormat, MergedSampleReplaysByAssignment) {
  KernelHistory History;
  History.update(5, [](KernelRecord &Rec) {
    Rec.Sample.CpuThroughput = 1.0e8;
    Rec.Sample.CpuIterations = 3.0e5;
    Rec.Sample.CpuBusySeconds = 3.0e-3;
    Rec.Sample.ElapsedSeconds = 3.0e-3;
  });
  HistoryDeltaRecord Rec;
  Rec.Key = 5;
  Rec.HasMergedSample = true;
  Rec.MergedSample.CpuThroughput = 2.0e8;
  Rec.MergedSample.GpuThroughput = 6.5e8;
  Rec.MergedSample.CpuIterations = 7.0e5;
  Rec.MergedSample.GpuIterations = 1.9e6;
  Rec.MergedSample.ElapsedSeconds = 3.5e-3;
  Rec.MergedSample.MissPerLoadStore = 0.125;
  std::string Bytes = encodeJournalHeader(1);
  encodeDeltaFrame(Bytes, Rec);
  // Fixed size: header + frame header + fixed payload + one sample.
  EXPECT_EQ(Bytes.size(), 24u + 8u + 43u + 74u);

  JournalScan Scan = scanJournal(Bytes);
  ASSERT_FALSE(Scan.Torn) << Scan.Error.toString();
  ASSERT_EQ(Scan.Records.size(), 1u);
  applyDeltaRecord(History, Scan.Records[0]);
  KernelRecord Replayed;
  ASSERT_TRUE(History.lookup(5, Replayed));
  EXPECT_EQ(Replayed.Sample.CpuThroughput, 2.0e8);
  EXPECT_EQ(Replayed.Sample.GpuThroughput, 6.5e8);
  EXPECT_EQ(Replayed.Sample.CpuIterations, 7.0e5);
  EXPECT_EQ(Replayed.Sample.GpuIterations, 1.9e6);
  EXPECT_EQ(Replayed.Sample.ElapsedSeconds, 3.5e-3);
  EXPECT_EQ(Replayed.Sample.MissPerLoadStore, 0.125);
}

// A CRC-valid frame that no writer of this version emits is semantic
// corruption: the scan must degrade, not replay it. A P-state index past
// the ladder bound would later index past the P-state arrays; an unknown
// flag bit or a nonzero sample count is a record of another format.
TEST(JournalFormat, OutOfRangePStateStopsScan) {
  HistoryDeltaRecord Rec;
  Rec.Key = 7;
  Rec.HasPState = true;
  Rec.PState = 2;
  std::string Frame;
  encodeDeltaFrame(Frame, Rec);
  const std::string Good = Frame.substr(8);
  constexpr size_t FlagsOff = 16, PStateOff = 37, CountOff = 41;

  std::string BadPState = Good;
  BadPState[PStateOff] = 8; // kMaxPStates: one past the largest legal index
  std::string UnknownFlag = Good;
  UnknownFlag[FlagsOff] = static_cast<char>(UnknownFlag[FlagsOff] | (1 << 6));
  std::string SampleCount = Good;
  SampleCount[CountOff] = 1;
  for (const std::string &Payload : {BadPState, UnknownFlag, SampleCount}) {
    std::string Bytes = encodeJournalHeader(1);
    frameRaw(Bytes, Payload);
    JournalScan Scan = scanJournal(Bytes);
    ASSERT_TRUE(Scan.HeaderValid);
    EXPECT_TRUE(Scan.Torn);
    EXPECT_TRUE(Scan.Records.empty());
  }
}

TEST(JournalFormat, BecameConfidentResetsAlphaBeforeAdding) {
  KernelHistory History;
  History.update(77, [](KernelRecord &Rec) {
    Rec.Alpha.addSample(0.2, 10.0); // provisional pre-confident alpha
  });

  HistoryDeltaRecord Rec;
  Rec.Key = 77;
  Rec.BecameConfident = true;
  Rec.HasAlphaSample = true;
  Rec.AlphaValue = 0.6;
  Rec.AlphaWeight = 100.0;
  applyDeltaRecord(History, Rec);

  // The confident transition discards the provisional accumulator: the
  // replayed alpha is exactly the one confident sample, as on the live
  // merge path.
  auto Entry = History.find(77);
  ASSERT_TRUE(Entry.has_value());
  EXPECT_TRUE(Entry->Confident);
  EXPECT_EQ(Entry->Alpha.weightedSum(), 0.6 * 100.0);
  EXPECT_EQ(Entry->Alpha.totalWeight(), 100.0);
}

//===----------------------------------------------------------------------===//
// 2. Recovery
//===----------------------------------------------------------------------===//

TEST(Recovery, ColdStartWhenNothingExists) {
  ScratchPair Files("cold");
  KernelHistory History;
  RecoveryReport Report =
      recoverKernelHistory(History, Files.snap(), Files.wal());
  EXPECT_EQ(Report.Outcome, RecoveryOutcome::Cold);
  EXPECT_EQ(Report.SnapshotRecords, 0u);
  EXPECT_EQ(Report.ReplayedRecords, 0u);
  EXPECT_EQ(History.size(), 0u);
  EXPECT_GE(Report.Seconds, 0.0);

  // Compaction initialised both files; the journal opens at the
  // reported epoch.
  JournalOptions Opts;
  Opts.Path = Files.wal();
  auto Journal = HistoryJournal::open(Opts, Report.Epoch);
  ASSERT_TRUE(Journal.ok()) << Journal.status().toString();
}

TEST(Recovery, ReplaysJournalOntoSnapshotThenCompacts) {
  ScratchPair Files("replay");
  KernelHistory Base;
  populateBase(Base);
  ASSERT_TRUE(saveKernelHistory(Base, Files.snap(), /*Epoch=*/3).ok());

  std::string Wal = encodeJournalHeader(3);
  HistoryDeltaRecord Bump;
  Bump.Key = 7;
  Bump.InvocationsDelta = 2;
  encodeDeltaFrame(Wal, Bump);
  HistoryDeltaRecord Fresh;
  Fresh.Key = 555;
  Fresh.InvocationsDelta = 3;
  Fresh.SetCpuOnly = true;
  encodeDeltaFrame(Wal, Fresh);
  writeRaw(Files.wal(), Wal);

  KernelHistory History;
  RecoveryReport Report =
      recoverKernelHistory(History, Files.snap(), Files.wal());
  EXPECT_EQ(Report.Outcome, RecoveryOutcome::Replayed);
  EXPECT_EQ(Report.SnapshotRecords, 3u);
  EXPECT_EQ(Report.ReplayedRecords, 2u);
  EXPECT_EQ(Report.TruncatedRecords, 0u);
  EXPECT_GT(Report.Epoch, 3u);
  EXPECT_TRUE(Report.SnapshotStatus.ok());
  EXPECT_TRUE(Report.JournalStatus.ok());
  EXPECT_TRUE(Report.CompactStatus.ok());

  EXPECT_EQ(History.size(), 4u);
  EXPECT_EQ(History.find(7)->Invocations, 7u);
  EXPECT_EQ(History.find(555)->Invocations, 3u);
  EXPECT_TRUE(History.find(555)->CpuOnly);

  // Recovery of the recovered state is a fixpoint: Clean, identical
  // entries, no double-apply of the compacted journal.
  KernelHistory Again;
  RecoveryReport Second =
      recoverKernelHistory(Again, Files.snap(), Files.wal());
  EXPECT_EQ(Second.Outcome, RecoveryOutcome::Clean);
  EXPECT_EQ(Second.ReplayedRecords, 0u);
  expectSameEntries(History, Again);
}

TEST(Recovery, StaleJournalIsSkippedNotDoubleApplied) {
  ScratchPair Files("stale");
  KernelHistory Base;
  populateBase(Base);
  // Snapshot at epoch 5; the journal below is epoch 4 — exactly what a
  // crash between compaction's snapshot write and journal reset leaves.
  ASSERT_TRUE(saveKernelHistory(Base, Files.snap(), /*Epoch=*/5).ok());

  std::string Wal = encodeJournalHeader(4);
  HistoryDeltaRecord Bump;
  Bump.Key = 7;
  Bump.InvocationsDelta = 100;
  encodeDeltaFrame(Wal, Bump);
  writeRaw(Files.wal(), Wal);

  KernelHistory History;
  RecoveryReport Report =
      recoverKernelHistory(History, Files.snap(), Files.wal());
  EXPECT_EQ(Report.Outcome, RecoveryOutcome::Clean);
  EXPECT_TRUE(Report.StaleJournalSkipped);
  EXPECT_EQ(Report.ReplayedRecords, 0u);
  // The 100-invocation bump was already inside the epoch-5 snapshot by
  // definition; applying it again would corrupt the counters.
  EXPECT_EQ(History.find(7)->Invocations, 5u);
}

TEST(Recovery, TornJournalTailTruncates) {
  ScratchPair Files("torn");
  KernelHistory Base;
  populateBase(Base);
  ASSERT_TRUE(saveKernelHistory(Base, Files.snap(), /*Epoch=*/1).ok());

  std::string Wal = encodeJournalHeader(1);
  HistoryDeltaRecord Bump;
  Bump.Key = 7;
  Bump.InvocationsDelta = 1;
  encodeDeltaFrame(Wal, Bump);
  size_t Valid = Wal.size();
  encodeDeltaFrame(Wal, Bump);
  writeRaw(Files.wal(), Wal.substr(0, Valid + 6)); // torn second frame

  KernelHistory History;
  RecoveryReport Report =
      recoverKernelHistory(History, Files.snap(), Files.wal());
  EXPECT_EQ(Report.Outcome, RecoveryOutcome::Truncated);
  EXPECT_EQ(Report.ReplayedRecords, 1u);
  EXPECT_EQ(Report.TruncatedRecords, 1u);
  EXPECT_EQ(History.find(7)->Invocations, 6u);

  // After compaction the tear is gone for good.
  KernelHistory Again;
  EXPECT_EQ(recoverKernelHistory(Again, Files.snap(), Files.wal()).Outcome,
            RecoveryOutcome::Clean);
  expectSameEntries(History, Again);
}

TEST(Recovery, CorruptSnapshotStillReplaysJournal) {
  ScratchPair Files("corrupt-snap");
  writeRaw(Files.snap(), "not a snapshot at all ......................");

  std::string Wal = encodeJournalHeader(0);
  HistoryDeltaRecord Fresh;
  Fresh.Key = 321;
  Fresh.InvocationsDelta = 2;
  encodeDeltaFrame(Wal, Fresh);
  writeRaw(Files.wal(), Wal);

  KernelHistory History;
  RecoveryReport Report =
      recoverKernelHistory(History, Files.snap(), Files.wal());
  // Data was lost (the snapshot) — Truncated, not Clean — but the
  // journal's records still survive onto the cold table.
  EXPECT_EQ(Report.Outcome, RecoveryOutcome::Truncated);
  EXPECT_FALSE(Report.SnapshotStatus.ok());
  EXPECT_EQ(Report.ReplayedRecords, 1u);
  EXPECT_EQ(History.size(), 1u);
  EXPECT_EQ(History.find(321)->Invocations, 2u);
}

//===----------------------------------------------------------------------===//
// 3. The append side
//===----------------------------------------------------------------------===//

TEST(Journal, OpenEnqueueFlushScan) {
  ScratchPair Files("append");
  JournalOptions Opts;
  Opts.Path = Files.wal();
  auto Journal = HistoryJournal::open(Opts, 2);
  ASSERT_TRUE(Journal.ok()) << Journal.status().toString();
  EXPECT_EQ((*Journal)->epoch(), 2u);

  (*Journal)->enqueue(richDelta());
  HistoryDeltaRecord Bump;
  Bump.Key = 5;
  Bump.InvocationsDelta = 1;
  (*Journal)->enqueue(Bump);
  ASSERT_TRUE((*Journal)->flush().ok());

  HistoryJournal::Stats Stats = (*Journal)->stats();
  EXPECT_EQ(Stats.Appends, 2u);
  EXPECT_EQ(Stats.Flushes, 1u);
  EXPECT_GT(Stats.AppendedBytes, 0u);

  JournalScan Scan = scanJournal(readFile(Files.wal()));
  ASSERT_TRUE(Scan.HeaderValid);
  EXPECT_EQ(Scan.Epoch, 2u);
  EXPECT_FALSE(Scan.Torn);
  ASSERT_EQ(Scan.Records.size(), 2u);
  EXPECT_EQ(Scan.Records[1].Key, 5u);

  // Empty records are dropped at the door.
  (*Journal)->enqueue(HistoryDeltaRecord{});
  EXPECT_EQ((*Journal)->stats().Appends, 2u);
}

TEST(Journal, GroupCommitHoldsUntilThreshold) {
  ScratchPair Files("group-commit");
  JournalOptions Opts;
  Opts.Path = Files.wal();
  Opts.GroupCommitRecords = 2;
  auto Journal = HistoryJournal::open(Opts, 0);
  ASSERT_TRUE(Journal.ok());

  HistoryDeltaRecord Bump;
  Bump.Key = 1;
  Bump.InvocationsDelta = 1;
  (*Journal)->enqueue(Bump);
  ASSERT_TRUE((*Journal)->maybeFlush().ok());
  EXPECT_EQ(readFile(Files.wal()).size(), 24u); // still header-only

  (*Journal)->enqueue(Bump);
  ASSERT_TRUE((*Journal)->maybeFlush().ok());
  EXPECT_EQ(scanJournal(readFile(Files.wal())).Records.size(), 2u);
}

TEST(Journal, OpenRejectsEpochMismatch) {
  ScratchPair Files("epoch-mismatch");
  writeRaw(Files.wal(), encodeJournalHeader(3));
  JournalOptions Opts;
  Opts.Path = Files.wal();
  auto Journal = HistoryJournal::open(Opts, 4);
  ASSERT_FALSE(Journal.ok());
  EXPECT_EQ(Journal.status().code(), ErrCode::VersionMismatch);
}

// open() only appends current-version frames, so a journal left by a
// prior release must be rejected — recovery (which resets the journal
// to the current version) is the upgrade path, not mixed-version appends.
TEST(Journal, OpenRejectsPriorVersionJournal) {
  ScratchPair Files("prior-version");
  std::string Wal = encodeJournalHeader(4);
  setJournalVersion(Wal, 1);
  writeRaw(Files.wal(), Wal);
  JournalOptions Opts;
  Opts.Path = Files.wal();
  auto Journal = HistoryJournal::open(Opts, 4);
  ASSERT_FALSE(Journal.ok());
  EXPECT_EQ(Journal.status().code(), ErrCode::VersionMismatch);
}

TEST(Journal, OpenTruncatesTornTailAndResumesAppending) {
  ScratchPair Files("open-torn");
  std::string Wal = encodeJournalHeader(1);
  HistoryDeltaRecord First;
  First.Key = 10;
  First.InvocationsDelta = 1;
  encodeDeltaFrame(Wal, First);
  size_t Valid = Wal.size();
  encodeDeltaFrame(Wal, First);
  writeRaw(Files.wal(), Wal.substr(0, Valid + 4)); // torn tail

  JournalOptions Opts;
  Opts.Path = Files.wal();
  auto Journal = HistoryJournal::open(Opts, 1);
  ASSERT_TRUE(Journal.ok()) << Journal.status().toString();

  HistoryDeltaRecord Second;
  Second.Key = 20;
  Second.InvocationsDelta = 1;
  (*Journal)->enqueue(Second);
  ASSERT_TRUE((*Journal)->flush().ok());

  // The tear was truncated away before the append, so the file scans
  // clean end to end: the intact first record, then the new one.
  JournalScan Scan = scanJournal(readFile(Files.wal()));
  EXPECT_FALSE(Scan.Torn);
  ASSERT_EQ(Scan.Records.size(), 2u);
  EXPECT_EQ(Scan.Records[0].Key, 10u);
  EXPECT_EQ(Scan.Records[1].Key, 20u);
}

TEST(Journal, ResetRewritesHeaderAndDropsPending) {
  ScratchPair Files("reset");
  JournalOptions Opts;
  Opts.Path = Files.wal();
  Opts.GroupCommitRecords = 1000; // never auto-flush
  auto Journal = HistoryJournal::open(Opts, 1);
  ASSERT_TRUE(Journal.ok());

  HistoryDeltaRecord Bump;
  Bump.Key = 1;
  Bump.InvocationsDelta = 1;
  (*Journal)->enqueue(Bump);
  ASSERT_TRUE((*Journal)->reset(9).ok());
  EXPECT_EQ((*Journal)->epoch(), 9u);

  JournalScan Scan = scanJournal(readFile(Files.wal()));
  EXPECT_TRUE(Scan.HeaderValid);
  EXPECT_EQ(Scan.Epoch, 9u);
  EXPECT_TRUE(Scan.Records.empty()); // pending record dropped with the epoch

  // Appends keep working after the reset.
  (*Journal)->enqueue(Bump);
  ASSERT_TRUE((*Journal)->flush().ok());
  EXPECT_EQ(scanJournal(readFile(Files.wal())).Records.size(), 1u);
}

//===----------------------------------------------------------------------===//
// 4. Scheduler integration
//===----------------------------------------------------------------------===//

// Replay must equal live for every kind of delta the scheduler journals:
// hits and clean profiles, the small-N CPU exit, a token firing
// mid-profile, a hang-tainted profile (no alpha sample) and quarantined
// runs under gpu-hang — at fixed frequency and with a 4-state joint
// search.
TEST(SchedulerJournal, KillWithoutShutdownLosesNothingFlushed) {
  for (unsigned States : {1u, 4u}) {
    SCOPED_TRACE(std::to_string(States) + " P-state(s)");
    ScratchPair Files("no-shutdown-" + std::to_string(States));
    ScratchPair Copy("no-shutdown-copy-" + std::to_string(States));

    EasConfig Config;
    Config.HistoryFile = Files.snap();
    Config.Journal.Enabled = true;
    Config.Journal.GroupCommitRecords = 1; // every merge commits
    Config.PStates = States > 1;
    PlatformSpec Healthy = States > 1 ? ladderSpec() : haswellDesktop();
    PlatformSpec Hanging = Healthy;
    Hanging.Faults = *FaultPlan::scenario("gpu-hang");

    std::vector<std::pair<uint64_t, KernelRecord>> Live;
    {
      EasScheduler Scheduler(States > 1 ? ladderFamily() : desktopFamily(),
                             Metric::edp(), Config);
      ASSERT_TRUE(Scheduler.journalStatus().ok())
          << Scheduler.journalStatus().toString();
      EXPECT_TRUE(Scheduler.journaling());
      EXPECT_EQ(Scheduler.journalPath(), Files.wal());
      EXPECT_EQ(Scheduler.recoveryReport().Outcome, RecoveryOutcome::Cold);

      SimProcessor Proc(Healthy);
      KernelDesc KernelA = namedKernel("wal-a");
      KernelDesc KernelB = namedKernel("wal-b");
      for (int I = 0; I != 6; ++I) {
        Scheduler.execute(Proc, KernelA, 2e6);
        Scheduler.execute(Proc, KernelB, 1e6);
      }

      // Small N: CPU alone, and the record is marked CpuOnly.
      EasScheduler::InvocationOutcome Small = Scheduler.execute(
          Proc, namedKernel("wal-small"), Healthy.defaultGpuProfileSize() / 2);
      ASSERT_TRUE(Small.CpuOnlyFastPath);

      // A token that fires after the first profiling repetition: the
      // measurements merge, the alpha and the count do not.
      CancellationToken Token =
          CancellationToken::withDeadline(Proc.now() + 1e-9);
      EasScheduler::InvocationOutcome Cut = Scheduler.execute(
          Proc, namedKernel("wal-cut"), 2e6, {}, &Token);
      ASSERT_TRUE(Cut.Cancelled);
      ASSERT_GT(Cut.ProfileRepetitions, 0u);

      // gpu-hang: move the faulty clock into the hang window on the CPU
      // (an external GPU owner learns nothing), so the next kernel's
      // first profile hangs and later invocations are quarantined.
      SimProcessor Faulty(Hanging);
      Scheduler.setExternalGpuBusy(true);
      while (Faulty.now() < 0.03)
        Scheduler.execute(Faulty, namedKernel("wal-idle"), 2e6);
      Scheduler.setExternalGpuBusy(false);
      KernelDesc KernelH = namedKernel("wal-hang");
      EasScheduler::InvocationOutcome Hung =
          Scheduler.execute(Faulty, KernelH, 2e6);
      ASSERT_TRUE(Hung.Profiled);
      ASSERT_TRUE(Hung.HangDetected);
      for (int I = 0; I != 3; ++I)
        Scheduler.execute(Faulty, KernelH, 2e6);

      ASSERT_TRUE(Scheduler.flushJournal().ok());
      EXPECT_GT(Scheduler.journalStats().Appends, 0u);
      Live = Scheduler.history().entries();
      ASSERT_EQ(Live.size(), 5u);
      std::optional<KernelRecord> HangRec =
          Scheduler.history().find(KernelH.Id);
      ASSERT_TRUE(HangRec);
      EXPECT_GT(HangRec->QuarantinedRuns, 0u);
      unsigned ReducedStates = 0;
      for (const auto &Entry : Live)
        ReducedStates += Entry.second.PState > 0;
      EXPECT_EQ(ReducedStates > 0, States > 1);

      // Freeze the on-disk state exactly as a kill -9 here would leave
      // it, before the destructor's orderly shutdown compacts it.
      writeRaw(Copy.snap(), readFile(Files.snap()));
      writeRaw(Copy.wal(), readFile(Files.wal()));
    }

    KernelHistory Recovered;
    RecoveryReport Report =
        recoverKernelHistory(Recovered, Copy.snap(), Copy.wal());
    EXPECT_EQ(Report.Outcome, RecoveryOutcome::Replayed);
    auto Entries = Recovered.entries();
    ASSERT_EQ(Entries.size(), Live.size());
    for (size_t I = 0; I != Live.size(); ++I) {
      SCOPED_TRACE("kernel " + std::to_string(Live[I].first));
      EXPECT_EQ(Entries[I].first, Live[I].first);
      // The headline guarantee: with every merge flushed, a kill -9
      // costs nothing — every field bit-identical.
      expectSameRecord(Entries[I].second, Live[I].second);
    }
  }
}

// The same kill -9 scenario with an invocation long enough to profile
// for ~23k repetitions. Journaling every repetition's sample delta in
// one frame outgrew both the scanner's frame bound and the u16 sample
// count, so recovery truncated at that frame and lost it and every later
// record. The merged sample keeps the frame at a fixed size.
TEST(SchedulerJournal, LongProfiledInvocationSurvivesKillWithoutShutdown) {
  ScratchPair Files("long-profile");
  ScratchPair Copy("long-profile-copy");

  EasConfig Config;
  Config.HistoryFile = Files.snap();
  Config.Journal.Enabled = true;
  Config.Journal.GroupCommitRecords = 1;

  std::vector<std::pair<uint64_t, KernelRecord>> Live;
  {
    EasScheduler Scheduler(desktopFamily(), Metric::edp(), Config);
    ASSERT_TRUE(Scheduler.journaling());
    SimProcessor Proc(haswellDesktop());
    EasScheduler::InvocationOutcome Long =
        Scheduler.execute(Proc, namedKernel("wal-long"), 2e8);
    ASSERT_TRUE(Long.Profiled);
    EXPECT_GT(Long.ProfileRepetitions, 20000u);
    Scheduler.execute(Proc, namedKernel("wal-later"), 2e6);
    ASSERT_TRUE(Scheduler.flushJournal().ok());
    Live = Scheduler.history().entries();
    ASSERT_EQ(Live.size(), 2u);
    writeRaw(Copy.snap(), readFile(Files.snap()));
    writeRaw(Copy.wal(), readFile(Files.wal()));
  }

  KernelHistory Recovered;
  RecoveryReport Report =
      recoverKernelHistory(Recovered, Copy.snap(), Copy.wal());
  EXPECT_EQ(Report.Outcome, RecoveryOutcome::Replayed);
  EXPECT_EQ(Report.TruncatedRecords, 0u);
  auto Entries = Recovered.entries();
  ASSERT_EQ(Entries.size(), Live.size());
  for (size_t I = 0; I != Live.size(); ++I) {
    SCOPED_TRACE("kernel " + std::to_string(Live[I].first));
    const KernelRecord &R = Entries[I].second;
    const KernelRecord &L = Live[I].second;
    EXPECT_EQ(Entries[I].first, Live[I].first);
    EXPECT_EQ(R.Alpha.weightedSum(), L.Alpha.weightedSum());
    EXPECT_EQ(R.Alpha.totalWeight(), L.Alpha.totalWeight());
    EXPECT_EQ(R.Class.index(), L.Class.index());
    EXPECT_EQ(R.Confident, L.Confident);
    EXPECT_EQ(R.Invocations, L.Invocations);
    EXPECT_EQ(R.PState, L.PState);
    EXPECT_EQ(R.Sample.CpuThroughput, L.Sample.CpuThroughput);
    EXPECT_EQ(R.Sample.GpuThroughput, L.Sample.GpuThroughput);
    EXPECT_EQ(R.Sample.CpuIterations, L.Sample.CpuIterations);
    EXPECT_EQ(R.Sample.GpuIterations, L.Sample.GpuIterations);
    EXPECT_EQ(R.Sample.ElapsedSeconds, L.Sample.ElapsedSeconds);
    EXPECT_EQ(R.Sample.MissPerLoadStore, L.Sample.MissPerLoadStore);
    EXPECT_EQ(R.Sample.InstructionsRetired, L.Sample.InstructionsRetired);
  }
}

TEST(SchedulerJournal, MetricsExposeJournalAndRecovery) {
  ScratchPair Files("metrics");
  obs::MetricsRegistry Registry;

  EasConfig Config;
  Config.HistoryFile = Files.snap();
  Config.Journal.Enabled = true;
  Config.Metrics = &Registry;

  EasScheduler Scheduler(desktopFamily(), Metric::edp(), Config);
  SimProcessor Proc(haswellDesktop());
  Scheduler.execute(Proc, namedKernel("metrics-k"), 2e6);
  ASSERT_TRUE(Scheduler.flushJournal().ok());

  obs::MetricsSnapshot Snap = Registry.snapshot();
  EXPECT_GT(Snap.total(obs::names::HistoryJournalAppendsTotal), 0.0);
  EXPECT_GT(Snap.total(obs::names::HistoryJournalBytesTotal), 0.0);
  ASSERT_NE(Snap.find(obs::names::RecoverySeconds), nullptr);
  // Exactly one recovery happened, and it was a cold start.
  EXPECT_EQ(Snap.total(obs::names::HistoryRecoveryOutcome), 1.0);
  const obs::MetricSample *Cold =
      Snap.find(obs::names::HistoryRecoveryOutcome, {{"outcome", "cold"}});
  ASSERT_NE(Cold, nullptr);
  EXPECT_EQ(Cold->Value, 1.0);
}

TEST(SchedulerJournal, ValidationRejectsJournalWithoutHistoryFile) {
  EasConfig Config;
  Config.Journal.Enabled = true; // but no HistoryFile
  EXPECT_FALSE(Config.validate().ok());
  Config.HistoryFile = "/tmp/x.tblg";
  Config.Journal.GroupCommitRecords = 0;
  EXPECT_FALSE(Config.validate().ok());
}

// Only the current format is read. A snapshot or journal left by an
// older release takes the VersionMismatch path to a cold table, and the
// next write (recovery's compaction, or shutdown without a journal)
// replaces it at the current version.
TEST(SchedulerJournal, PriorVersionFilesDegradeAndAreRewritten) {
  ScratchPair Files("prior-version-restart");
  EasConfig Config;
  Config.HistoryFile = Files.snap();
  Config.Journal.Enabled = true;
  EasConfig SnapshotOnly;
  SnapshotOnly.HistoryFile = Files.snap();
  SimProcessor Proc(haswellDesktop());
  {
    EasScheduler Scheduler(desktopFamily(), Metric::edp(), Config);
    for (const char *Name : {"prior-a", "prior-b", "prior-c"})
      Scheduler.execute(Proc, namedKernel(Name), 2e6);
    ASSERT_EQ(Scheduler.history().size(), 3u);
    ASSERT_TRUE(Scheduler.shutdown().ok());
  }
  const std::string Snap = readFile(Files.snap());
  const std::string Wal = readFile(Files.wal());
  // Both formats carry the u32 version right after the 8-byte magic.
  auto VersionOf = [](const std::string &Path) {
    std::string Bytes = readFile(Path);
    return Bytes.size() < 12 ? 0u
                             : history_codec::getU32(
                                   reinterpret_cast<const unsigned char *>(
                                       Bytes.data() + 8));
  };

  for (uint32_t Version : {1u, 2u}) {
    SCOPED_TRACE("v" + std::to_string(Version));
    std::string OldSnap = Snap;
    OldSnap[8] = static_cast<char>(Version); // the CRC covers the payload
    std::string OldWal = Wal;
    setJournalVersion(OldWal, Version);

    // Journaling restart: both files degrade, compaction rewrites them.
    writeRaw(Files.snap(), OldSnap);
    writeRaw(Files.wal(), OldWal);
    {
      EasScheduler Scheduler(desktopFamily(), Metric::edp(), Config);
      const RecoveryReport &Report = Scheduler.recoveryReport();
      ASSERT_FALSE(Report.SnapshotStatus.ok());
      EXPECT_EQ(Report.SnapshotStatus.code(), ErrCode::VersionMismatch);
      ASSERT_FALSE(Report.JournalStatus.ok());
      EXPECT_EQ(Report.JournalStatus.code(), ErrCode::VersionMismatch);
      EXPECT_EQ(Report.Outcome, RecoveryOutcome::Truncated);
      EXPECT_EQ(Scheduler.history().size(), 0u);
      EXPECT_TRUE(Scheduler.journaling());
      EXPECT_EQ(VersionOf(Files.snap()), HistorySnapshotVersion);
      EXPECT_EQ(VersionOf(Files.wal()), HistoryJournalVersion);
    }
    {
      EasScheduler Scheduler(desktopFamily(), Metric::edp(), Config);
      EXPECT_EQ(Scheduler.recoveryReport().Outcome, RecoveryOutcome::Clean);
    }

    // Snapshot-only restart: the load degrades, shutdown rewrites it.
    writeRaw(Files.snap(), OldSnap);
    {
      EasScheduler Scheduler(desktopFamily(), Metric::edp(), SnapshotOnly);
      ASSERT_FALSE(Scheduler.restoreStatus().ok());
      EXPECT_EQ(Scheduler.restoreStatus().code(), ErrCode::VersionMismatch);
      EXPECT_EQ(Scheduler.history().size(), 0u);
      ASSERT_TRUE(Scheduler.shutdown().ok());
    }
    EXPECT_EQ(VersionOf(Files.snap()), HistorySnapshotVersion);
    KernelHistory Reloaded;
    EXPECT_TRUE(loadKernelHistory(Reloaded, Files.snap()).ok());
  }
}

//===----------------------------------------------------------------------===//
// 5. Corruption matrix
//===----------------------------------------------------------------------===//

TEST(CorruptionMatrix, SnapshotRejectsEveryTruncationAndBitFlip) {
  KernelHistory Base;
  populateBase(Base);
  const std::string Bytes = serializeKernelHistory(Base, /*Epoch=*/4);

  // Every proper prefix must be rejected — the parser never guesses at
  // a record boundary.
  for (size_t Len = 0; Len != Bytes.size(); ++Len) {
    KernelHistory Restored;
    ErrorOr<size_t> Count =
        deserializeKernelHistory(Restored, Bytes.substr(0, Len));
    EXPECT_FALSE(Count.ok()) << "prefix of " << Len << " bytes accepted";
    EXPECT_EQ(Restored.size(), 0u);
  }

  // Every single-bit flip is caught by magic, version, count, or CRC.
  for (size_t Offset = 0; Offset != Bytes.size(); ++Offset)
    for (int Bit = 0; Bit != 8; ++Bit) {
      std::string Flipped = Bytes;
      Flipped[Offset] = static_cast<char>(Flipped[Offset] ^ (1 << Bit));
      KernelHistory Restored;
      ErrorOr<size_t> Count = deserializeKernelHistory(Restored, Flipped);
      EXPECT_FALSE(Count.ok())
          << "bit " << Bit << " at offset " << Offset << " accepted";
    }
}

TEST(CorruptionMatrix, JournalDegradesOnEveryTruncationAndBitFlip) {
  std::string Bytes = encodeJournalHeader(2);
  std::vector<size_t> Boundaries{Bytes.size()};
  HistoryDeltaRecord Bump;
  Bump.Key = 3;
  Bump.InvocationsDelta = 1;
  for (const HistoryDeltaRecord &Rec :
       {richDelta(), Bump, richDelta(), Bump}) {
    encodeDeltaFrame(Bytes, Rec);
    Boundaries.push_back(Bytes.size());
  }
  const size_t FullRecords = Boundaries.size() - 1;

  // Truncation at any offset: records up to the last whole frame
  // survive; a cut mid-frame is a tear, a cut on a boundary is clean.
  for (size_t Len = 0; Len != Bytes.size(); ++Len) {
    JournalScan Scan = scanJournal(std::string_view(Bytes).substr(0, Len));
    if (Len < 24) {
      EXPECT_FALSE(Scan.HeaderValid) << Len;
      continue;
    }
    ASSERT_TRUE(Scan.HeaderValid) << Len;
    size_t WholeFrames = 0;
    while (WholeFrames + 1 < Boundaries.size() &&
           Boundaries[WholeFrames + 1] <= Len)
      ++WholeFrames;
    EXPECT_EQ(Scan.Records.size(), WholeFrames) << Len;
    EXPECT_EQ(Scan.ValidBytes, Boundaries[WholeFrames]) << Len;
    EXPECT_EQ(Scan.Torn, Len != Boundaries[WholeFrames]) << Len;
  }

  // A single-bit flip anywhere kills at most the frames from the flip
  // onward — and replaying whatever survives must never abort.
  for (size_t Offset = 0; Offset != Bytes.size(); ++Offset)
    for (int Bit = 0; Bit != 8; ++Bit) {
      std::string Flipped = Bytes;
      Flipped[Offset] = static_cast<char>(Flipped[Offset] ^ (1 << Bit));
      JournalScan Scan = scanJournal(Flipped);
      if (Offset < 24) {
        EXPECT_FALSE(Scan.HeaderValid)
            << "bit " << Bit << " at offset " << Offset;
        continue;
      }
      ASSERT_TRUE(Scan.HeaderValid);
      EXPECT_TRUE(Scan.Torn) << "bit " << Bit << " at offset " << Offset;
      EXPECT_LT(Scan.Records.size(), FullRecords);
      KernelHistory History;
      for (const HistoryDeltaRecord &Rec : Scan.Records)
        applyDeltaRecord(History, Rec);
    }
}

TEST(CorruptionMatrix, RandomMultiFaultRoundsNeverCrashRecovery) {
  ScratchPair Files("fuzz");
  KernelHistory Base;
  populateBase(Base);
  const std::string GoodSnap = serializeKernelHistory(Base, /*Epoch=*/1);
  std::string GoodWal = encodeJournalHeader(1);
  for (int I = 0; I != 4; ++I)
    encodeDeltaFrame(GoodWal, richDelta());

  Xoshiro256 Rng(0xc4a5u);
  for (int Round = 0; Round != 120; ++Round) {
    std::string Snap = GoodSnap;
    std::string Wal = GoodWal;
    // 1-4 faults per round, any mix of truncations and flips on either
    // file, including whole-file loss.
    const unsigned Faults = 1 + static_cast<unsigned>(Rng.nextBounded(4));
    for (unsigned F = 0; F != Faults; ++F) {
      std::string &Target = Rng.nextBounded(2) ? Snap : Wal;
      switch (Rng.nextBounded(3)) {
      case 0:
        Target.resize(Rng.nextBounded(Target.size() + 1));
        break;
      case 1:
        if (!Target.empty()) {
          size_t At = Rng.nextBounded(Target.size());
          Target[At] =
              static_cast<char>(Target[At] ^ (1u << Rng.nextBounded(8)));
        }
        break;
      default:
        Target.clear();
        break;
      }
    }
    writeRaw(Files.snap(), Snap);
    writeRaw(Files.wal(), Wal);

    KernelHistory History;
    RecoveryReport Report =
        recoverKernelHistory(History, Files.snap(), Files.wal());
    // The contract: any corruption degrades (cold table or truncated
    // replay); the table never exceeds the uncorrupted world's keys.
    EXPECT_LE(History.size(), 5u) << "round " << Round;
    EXPECT_LE(Report.ReplayedRecords, 4u) << "round " << Round;

    // And whatever recovery produced is a stable fixpoint.
    KernelHistory Again;
    RecoveryReport Second =
        recoverKernelHistory(Again, Files.snap(), Files.wal());
    EXPECT_EQ(Second.Outcome, RecoveryOutcome::Clean) << "round " << Round;
    expectSameEntries(History, Again);
  }
}

//===----------------------------------------------------------------------===//
// 6. The fork harness: die at every declared crash point
//===----------------------------------------------------------------------===//

#ifndef _WIN32

namespace {

/// What the crash-sweep child does after arming one point: a full
/// durability cycle — recover (covers the recovery.* and atomicfile.*
/// points via compaction), then append one more delta and flush it
/// (covers the journal.flush.* points). Never returns.
[[noreturn]] void crashChildWorkload(const char *Point,
                                     const std::string &Snap,
                                     const std::string &Wal) {
  if (Point)
    armCrashPoint(Point);
  KernelHistory History;
  RecoveryReport Report = recoverKernelHistory(History, Snap, Wal);
  JournalOptions Opts;
  Opts.Path = Wal;
  auto Journal = HistoryJournal::open(Opts, Report.Epoch);
  if (!Journal.ok())
    _exit(3);
  HistoryDeltaRecord Extra;
  Extra.Key = 777;
  Extra.InvocationsDelta = 4;
  (*Journal)->enqueue(Extra);
  if (!(*Journal)->flush().ok())
    _exit(4);
  _exit(0);
}

/// Seeds snapshot(1) = the base table and journal(1) = two pending
/// deltas, so the child's recovery has real replay and compaction work
/// for every crash point to land inside.
void seedCrashState(const std::string &Snap, const std::string &Wal) {
  KernelHistory Base;
  populateBase(Base);
  ASSERT_TRUE(saveKernelHistory(Base, Snap, /*Epoch=*/1).ok());
  std::string Bytes = encodeJournalHeader(1);
  HistoryDeltaRecord Bump;
  Bump.Key = 7;
  Bump.InvocationsDelta = 2;
  encodeDeltaFrame(Bytes, Bump);
  HistoryDeltaRecord Fresh;
  Fresh.Key = 555;
  Fresh.InvocationsDelta = 3;
  Fresh.SetCpuOnly = true;
  encodeDeltaFrame(Bytes, Fresh);
  ASSERT_TRUE(writeFileAtomic(Wal, Bytes).ok());
}

int runCrashChild(const char *Point, const std::string &Snap,
                  const std::string &Wal) {
  pid_t Pid = fork();
  if (Pid == 0)
    crashChildWorkload(Point, Snap, Wal); // never returns
  EXPECT_GT(Pid, 0) << "fork failed";
  int WaitStatus = 0;
  EXPECT_EQ(waitpid(Pid, &WaitStatus, 0), Pid);
  return WaitStatus;
}

} // namespace

TEST(CrashHarness, EveryDeclaredPointHoldsRecoveryInvariants) {
  size_t PointCount = 0;
  const char *const *Points = declaredCrashPoints(PointCount);
  ASSERT_EQ(PointCount, 8u);

  // Baseline: the workload completes when nothing is armed, so a clean
  // exit below would mean the armed point was never reached.
  {
    ScratchPair Files("crash-baseline");
    seedCrashState(Files.snap(), Files.wal());
    int WaitStatus = runCrashChild(nullptr, Files.snap(), Files.wal());
    ASSERT_TRUE(WIFEXITED(WaitStatus));
    ASSERT_EQ(WEXITSTATUS(WaitStatus), 0);
  }

  for (size_t I = 0; I != PointCount; ++I) {
    SCOPED_TRACE(Points[I]);
    ScratchPair Files("crash-point");
    seedCrashState(Files.snap(), Files.wal());

    int WaitStatus = runCrashChild(Points[I], Files.snap(), Files.wal());
    ASSERT_TRUE(WIFEXITED(WaitStatus));
    // Every declared point must be reachable by the durability cycle —
    // a declared-but-dead point would exit 0 here and fail.
    ASSERT_EQ(WEXITSTATUS(WaitStatus), CrashPointExitCode);

    // The restart after the simulated power cut.
    KernelHistory Recovered;
    RecoveryReport Report =
        recoverKernelHistory(Recovered, Files.snap(), Files.wal());
    EXPECT_TRUE(Report.CompactStatus.ok()) << Report.CompactStatus.toString();

    // Invariant 1 — nothing durable before the crash is lost. The seed
    // snapshot and journal were both fsynced before the fork, so the
    // base table *plus both journaled deltas* must survive no matter
    // where the child died.
    ASSERT_NE(Recovered.find(7), std::nullopt);
    EXPECT_EQ(Recovered.find(7)->Invocations, 7u); // 5 base + 2 replayed
    ASSERT_NE(Recovered.find(11), std::nullopt);
    EXPECT_EQ(Recovered.find(11)->Invocations, 1u);
    EXPECT_EQ(Recovered.find(11)->QuarantinedRuns, 1u);
    ASSERT_NE(Recovered.find(9001), std::nullopt);
    ASSERT_NE(Recovered.find(555), std::nullopt);
    EXPECT_EQ(Recovered.find(555)->Invocations, 3u);
    EXPECT_TRUE(Recovered.find(555)->CpuOnly);

    // Invariant 2 — nothing the crash could not have persisted appears.
    // The child's post-recovery delta (key 777) is all-or-nothing: its
    // record was framed in one write, so it is either fully present or
    // fully absent, and the table never grows beyond the golden set.
    EXPECT_LE(Recovered.size(), 5u);
    if (auto Extra = Recovered.find(777)) {
      EXPECT_EQ(Extra->Invocations, 4u);
    }

    // Invariant 3 — recovery of the recovered state is a fixpoint with
    // valid CRCs everywhere.
    KernelHistory Again;
    RecoveryReport Second =
        recoverKernelHistory(Again, Files.snap(), Files.wal());
    EXPECT_EQ(Second.Outcome, RecoveryOutcome::Clean);
    EXPECT_TRUE(Second.SnapshotStatus.ok());
    EXPECT_TRUE(Second.JournalStatus.ok());
    expectSameEntries(Recovered, Again);

    // Invariant 4 — the journal reopens for appending at the recovered
    // epoch (the handoff a restarted scheduler performs).
    JournalOptions Opts;
    Opts.Path = Files.wal();
    auto Journal = HistoryJournal::open(Opts, Second.Epoch);
    EXPECT_TRUE(Journal.ok()) << Journal.status().toString();
  }
}

TEST(CrashHarness, RandomSigkillUnderLoadNeverLosesFlushedPrefix) {
  ScratchPair Files("sigkill");
  desktopCurves(); // characterize once in the parent; children inherit

  Xoshiro256 Rng(0x51631ull);
  for (int Round = 0; Round != 3; ++Round) {
    SCOPED_TRACE("round " + std::to_string(Round));
    int Pipe[2];
    ASSERT_EQ(pipe(Pipe), 0);

    pid_t Pid = fork();
    ASSERT_GE(Pid, 0);
    if (Pid == 0) {
      // Child: a journaling scheduler under continuous load. It flushes
      // a known prefix (3 kernels x 8 invocations), signals readiness,
      // then keeps executing until SIGKILL lands mid-anything.
      close(Pipe[0]);
      EasConfig Config;
      Config.HistoryFile = Files.snap();
      Config.Journal.Enabled = true;
      Config.Journal.GroupCommitRecords = 2;
      EasScheduler Scheduler(desktopFamily(), Metric::edp(), Config);
      if (!Scheduler.journalStatus().ok())
        _exit(5);
      SimProcessor Proc(haswellDesktop());
      KernelDesc Kernels[3] = {namedKernel("kill-a"), namedKernel("kill-b"),
                               namedKernel("kill-c")};
      for (int I = 0; I != 8; ++I)
        for (const KernelDesc &Kernel : Kernels)
          Scheduler.execute(Proc, Kernel, 1e6);
      if (!Scheduler.flushJournal().ok())
        _exit(6);
      char Ready = 'r';
      if (write(Pipe[1], &Ready, 1) != 1)
        _exit(7);
      for (uint64_t I = 0;; ++I)
        Scheduler.execute(Proc, Kernels[I % 3], 1e6);
    }

    close(Pipe[1]);
    char Ready = 0;
    ASSERT_EQ(read(Pipe[0], &Ready, 1), 1) << "child died before flushing";
    close(Pipe[0]);
    std::this_thread::sleep_for(
        std::chrono::milliseconds(1 + Rng.nextBounded(25)));
    ASSERT_EQ(kill(Pid, SIGKILL), 0);
    int WaitStatus = 0;
    ASSERT_EQ(waitpid(Pid, &WaitStatus, 0), Pid);
    ASSERT_TRUE(WIFSIGNALED(WaitStatus));
    ASSERT_EQ(WTERMSIG(WaitStatus), SIGKILL);

    // The restart. The flushed prefix — 8 invocations per kernel per
    // round — is durable; the in-flight tail may be partly lost but can
    // never corrupt what recovery returns.
    KernelHistory Recovered;
    RecoveryReport Report =
        recoverKernelHistory(Recovered, Files.snap(), Files.wal());
    EXPECT_TRUE(Report.CompactStatus.ok()) << Report.CompactStatus.toString();
    auto Entries = Recovered.entries();
    ASSERT_EQ(Entries.size(), 3u); // exactly the 3 kernels, nothing phantom
    for (const auto &Entry : Entries)
      EXPECT_GE(Entry.second.Invocations,
                static_cast<unsigned>(8 * (Round + 1)));

    // Idempotent, and the state chains into the next round's restart.
    KernelHistory Again;
    EXPECT_EQ(recoverKernelHistory(Again, Files.snap(), Files.wal()).Outcome,
              RecoveryOutcome::Clean);
    expectSameEntries(Recovered, Again);
  }
}

#endif // !_WIN32
