//===-- tests/CrashRecoveryTest.cpp - Table-G durability + kill -9 --------===//
//
// Part of the ecas project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Crash-consistency coverage for the one durable table-G file
/// (DESIGN.md §13), in six layers:
///
///   1. file format: exact base-image and CRC-framed delta round-trips,
///      torn-tail truncation, header and malformed-record rejection,
///      order-exact replay semantics;
///   2. recovery: base image + deltas in one scan, outcome
///      classification, damage keeping what came before it, idempotent
///      re-recovery;
///   3. the append side: open, group commit, compaction;
///   4. scheduler integration: kill -9 without shutdown, restarts, the
///      upgrade path from the two-file format;
///   5. corruption matrix: every single-byte truncation and every
///      single-bit flip of a seeded file, plus random multi-fault
///      rounds — each must degrade to a cold table or a truncated
///      replay, never crash;
///   6. the fork harness: a child process armed to _exit() at each
///      declared crash point (and one killed with SIGKILL mid-load);
///      the parent re-recovers and asserts the invariants — recovered
///      state contains everything durable before the crash, nothing
///      the crash could not have persisted, and recovery of the
///      recovered state is a fixpoint.
///
//===----------------------------------------------------------------------===//

#include "ecas/core/EasScheduler.h"
#include "ecas/core/HistoryJournal.h"
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
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <csignal>
#include <sys/wait.h>
#include <unistd.h>

using namespace ecas;

namespace {

/// One scratch table-G file, removed on destruction together with its
/// temp sibling and a leftover two-file-era journal. The path carries the
/// running test's name: ctest runs each test in its own process, in
/// parallel, and two tests sharing a \p Name must not share a file.
class ScratchFile {
public:
  explicit ScratchFile(const std::string &Name)
      : Path(::testing::TempDir() + "ecas-cr-" + currentTestName() + "-" +
             Name + ".tblg") {
    remove();
  }
  ~ScratchFile() { remove(); }
  const std::string &path() const { return Path; }

private:
  static std::string currentTestName() {
    const ::testing::TestInfo *Info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    return Info ? std::string(Info->test_suite_name()) + "." + Info->name()
                : std::string("none");
  }
  void remove() {
    for (const char *Suffix : {"", ".tmp", ".wal"})
      std::remove((Path + Suffix).c_str());
  }
  std::string Path;
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

bool fileExists(const std::string &Path) {
  return std::ifstream(Path).good();
}

/// The base table every recovery test starts from: keys 7, 11, 9001
/// with invocation counts 5, 1, 0, and every encoded field in play.
void populateBase(KernelHistory &History) {
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

/// populateBase() as a compacted file at \p Generation.
std::string baseFile(uint64_t Generation) {
  KernelHistory Base;
  populateBase(Base);
  return encodeHistoryFile(Base, Generation);
}

/// An empty table's file: the header alone.
std::string emptyFile(uint64_t Generation) {
  KernelHistory Empty;
  return encodeHistoryFile(Empty, Generation);
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

/// An invocations-only delta, the table hit's record.
HistoryDeltaRecord bump(uint64_t Key, uint32_t Invocations) {
  HistoryDeltaRecord Rec;
  Rec.Key = Key;
  Rec.InvocationsDelta = Invocations;
  return Rec;
}

void putLe32(std::string &Out, uint32_t V) {
  for (int B = 0; B != 4; ++B)
    Out.push_back(static_cast<char>((V >> (8 * B)) & 0xff));
}

void putLe64(std::string &Out, uint64_t V) {
  putLe32(Out, static_cast<uint32_t>(V));
  putLe32(Out, static_cast<uint32_t>(V >> 32));
}

/// Re-frames \p Payload the way the writer does (u32 length, u32
/// payload CRC, payload) — for hand-built records.
void frameRaw(std::string &Out, const std::string &Payload) {
  putLe32(Out, static_cast<uint32_t>(Payload.size()));
  putLe32(Out, crc32(Payload.data(), Payload.size()));
  Out += Payload;
}

/// Restamps the header of \p Bytes as a \p Version writer would have:
/// the u32 version changed, the header CRC over bytes [8, 28)
/// recomputed.
void setVersion(std::string &Bytes, uint32_t Version) {
  std::string Field;
  putLe32(Field, Version);
  Bytes.replace(8, 4, Field);
  Field.clear();
  putLe32(Field, crc32(Bytes.data() + 8, 20));
  Bytes.replace(28, 4, Field);
}

/// Writes \p Bytes to \p File and recovers it without compacting.
RecoveryReport recoverBytes(const ScratchFile &File, const std::string &Bytes,
                            KernelHistory &History) {
  writeRaw(File.path(), Bytes);
  return recoverKernelHistory(History, File.path(), /*Compact=*/false);
}

/// Scans \p Bytes, expects the header to be rejected with nothing
/// restored, and returns the rejection's code.
ErrCode rejectedHeaderCode(const std::string &Bytes) {
  HistoryFileScan Scan = scanHistoryFile(Bytes);
  EXPECT_FALSE(Scan.HeaderValid);
  EXPECT_TRUE(Scan.Base.empty());
  return Scan.Error.code();
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
// 1. File format
//===----------------------------------------------------------------------===//

// The HistorySnapshot cases cover the base image: the table as one
// compaction, shutdown or EasScheduler::snapshot() writes it, with no
// deltas behind it.
TEST(HistorySnapshot, RoundTripIsExact) {
  KernelHistory Original;
  populateBase(Original);
  std::string Bytes = encodeHistoryFile(Original, 7);
  EXPECT_EQ(Bytes.size(), 32u + 3u * (8u + 116u));

  HistoryFileScan Scan = scanHistoryFile(Bytes);
  ASSERT_TRUE(Scan.HeaderValid);
  EXPECT_FALSE(Scan.Torn) << Scan.Error.toString();
  EXPECT_EQ(Scan.BaseCount, 3u);
  EXPECT_TRUE(Scan.Deltas.empty());
  EXPECT_EQ(Scan.ValidBytes, Bytes.size());
  // Bit-exact: the accumulator parts must survive so future
  // sample-weighted merges blend against the true history.
  KernelHistory Restored;
  Restored.restore(Scan.Base);
  expectSameEntries(Original, Restored);
}

TEST(JournalFormat, HeaderRoundTrip) {
  std::string Bytes = emptyFile(7);
  EXPECT_EQ(Bytes.size(), 32u);
  HistoryFileScan Scan = scanHistoryFile(Bytes);
  EXPECT_TRUE(Scan.HeaderValid);
  EXPECT_EQ(Scan.Generation, 7u);
  EXPECT_EQ(Scan.BaseCount, 0u);
  EXPECT_TRUE(Scan.Base.empty());
  EXPECT_TRUE(Scan.Deltas.empty());
  EXPECT_FALSE(Scan.Torn);
  EXPECT_EQ(Scan.ValidBytes, Bytes.size());

  // The generation and the count survive in front of a base image too.
  Scan = scanHistoryFile(baseFile(0xfedcba9876543210ULL));
  EXPECT_TRUE(Scan.HeaderValid);
  EXPECT_EQ(Scan.Generation, 0xfedcba9876543210ULL);
  EXPECT_EQ(Scan.BaseCount, 3u);
}

TEST(JournalFormat, FrameRoundTripAllFields) {
  HistoryDeltaRecord Rich = richDelta();
  HistoryDeltaRecord Bare = bump(42, 1);
  Bare.SetCpuOnly = true;
  // The other fault-flag byte, so each decodes independently.
  HistoryDeltaRecord Hung;
  Hung.Key = 43;
  Hung.HasMergedSample = true;
  Hung.MergedSample.GpuHung = true;

  std::string Bytes = emptyFile(3);
  encodeDeltaFrame(Bytes, Rich);
  encodeDeltaFrame(Bytes, Bare);
  encodeDeltaFrame(Bytes, Hung);

  HistoryFileScan Scan = scanHistoryFile(Bytes);
  ASSERT_TRUE(Scan.HeaderValid);
  EXPECT_EQ(Scan.Generation, 3u);
  EXPECT_FALSE(Scan.Torn);
  ASSERT_EQ(Scan.Deltas.size(), 3u);

  const HistoryDeltaRecord &R = Scan.Deltas[0];
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

  EXPECT_EQ(Scan.Deltas[1].Key, 42u);
  EXPECT_FALSE(Scan.Deltas[1].HasMergedSample);
  EXPECT_TRUE(Scan.Deltas[1].SetCpuOnly);

  EXPECT_EQ(Scan.Deltas[2].Key, 43u);
  EXPECT_TRUE(Scan.Deltas[2].HasMergedSample);
  EXPECT_FALSE(Scan.Deltas[2].MergedSample.GpuLaunchFailed);
  EXPECT_TRUE(Scan.Deltas[2].MergedSample.GpuHung);
}

TEST(JournalFormat, TornTailTruncatesAtFirstBadFrame) {
  std::string Bytes = baseFile(1);
  encodeDeltaFrame(Bytes, bump(9, 1));
  encodeDeltaFrame(Bytes, bump(9, 1));
  size_t TwoFrames = Bytes.size();
  encodeDeltaFrame(Bytes, bump(9, 1));

  // Chop mid-third-frame: the valid prefix is exactly two frames.
  HistoryFileScan Scan = scanHistoryFile(Bytes.substr(0, TwoFrames + 5));
  ASSERT_TRUE(Scan.HeaderValid);
  EXPECT_TRUE(Scan.Torn);
  EXPECT_EQ(Scan.Base.size(), 3u);
  EXPECT_EQ(Scan.Deltas.size(), 2u);
  EXPECT_EQ(Scan.TruncatedRecords, 1u);
  EXPECT_EQ(Scan.ValidBytes, TwoFrames);

  // Chop inside the frame header (not even the length survives).
  Scan = scanHistoryFile(Bytes.substr(0, TwoFrames + 3));
  EXPECT_TRUE(Scan.Torn);
  EXPECT_EQ(Scan.Deltas.size(), 2u);
  EXPECT_EQ(Scan.ValidBytes, TwoFrames);
}

TEST(JournalFormat, BitFlipStopsScanAtCorruptFrame) {
  std::string Bytes = emptyFile(1);
  encodeDeltaFrame(Bytes, bump(9, 1));
  size_t OneFrame = Bytes.size();
  encodeDeltaFrame(Bytes, bump(9, 1));

  Bytes[OneFrame + 10] = static_cast<char>(Bytes[OneFrame + 10] ^ 0x40);
  HistoryFileScan Scan = scanHistoryFile(Bytes);
  ASSERT_TRUE(Scan.HeaderValid);
  EXPECT_TRUE(Scan.Torn);
  EXPECT_EQ(Scan.Deltas.size(), 1u);
  EXPECT_EQ(Scan.ValidBytes, OneFrame);
  EXPECT_FALSE(Scan.Error.ok());
}

TEST(HistorySnapshot, BadMagicIsRejected) {
  std::string Bytes = baseFile(5);
  Bytes[0] = 'X';
  EXPECT_EQ(rejectedHeaderCode(Bytes), ErrCode::CorruptData);
}

TEST(HistorySnapshot, VersionMismatchIsRejected) {
  ScratchFile File("version");
  // Only the current version is read: an older or newer header is
  // rejected even with a valid header CRC, and recovery degrades to a
  // cold table.
  for (uint32_t Version : {1u, 2u, 3u, HistoryFileVersion + 1}) {
    SCOPED_TRACE("v" + std::to_string(Version));
    std::string Bytes = baseFile(5);
    setVersion(Bytes, Version);
    EXPECT_EQ(rejectedHeaderCode(Bytes), ErrCode::VersionMismatch);
    KernelHistory Restored;
    RecoveryReport Report = recoverBytes(File, Bytes, Restored);
    EXPECT_EQ(Report.ReadStatus.code(), ErrCode::VersionMismatch);
    EXPECT_EQ(Restored.size(), 0u);
  }
}

TEST(JournalFormat, HeaderCorruptionRejected) {
  const std::string Good = baseFile(5);
  // The CRC covers the generation and the base-record count too.
  for (size_t Offset : {12u, 20u, 29u}) {
    std::string Flipped = Good;
    Flipped[Offset] = static_cast<char>(Flipped[Offset] ^ 0x01);
    EXPECT_EQ(rejectedHeaderCode(Flipped), ErrCode::CorruptData) << Offset;
  }

  EXPECT_EQ(rejectedHeaderCode(Good.substr(0, 31)), ErrCode::Truncated);
  EXPECT_EQ(rejectedHeaderCode(Good.substr(0, 12)), ErrCode::Truncated);
  EXPECT_EQ(rejectedHeaderCode(""), ErrCode::Truncated);
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
  std::string Bytes = emptyFile(1);
  encodeDeltaFrame(Bytes, Rec);
  // Fixed size: header + frame header + fixed payload + one sample.
  EXPECT_EQ(Bytes.size(), 32u + 8u + 43u + 74u);

  HistoryFileScan Scan = scanHistoryFile(Bytes);
  ASSERT_FALSE(Scan.Torn) << Scan.Error.toString();
  ASSERT_EQ(Scan.Deltas.size(), 1u);
  applyDeltaRecord(History, Scan.Deltas[0]);
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
    std::string Bytes = emptyFile(1);
    frameRaw(Bytes, Payload);
    HistoryFileScan Scan = scanHistoryFile(Bytes);
    ASSERT_TRUE(Scan.HeaderValid);
    EXPECT_TRUE(Scan.Torn);
    EXPECT_TRUE(Scan.Deltas.empty());
  }
}

// The base decoder validates like the delta decoder. A negative or NaN
// alpha weight once reached SampleWeightedAlpha::fromParts and aborted
// recovery; an out-of-range class was silently remapped. Each CRC-valid
// bad record is a tear now, recovered as `truncated`.
TEST(HistoryFile, MalformedBaseRecordStopsScan) {
  KernelHistory One;
  One.update(7, [](KernelRecord &Rec) { Rec.Alpha.addSample(0.5, 10.0); });
  const std::string Good = encodeHistoryFile(One, 1);
  const std::string Payload = Good.substr(32 + 8);
  ASSERT_EQ(Payload.size(), 116u);
  auto WithU64 = [&Payload](size_t Off, uint64_t V) {
    std::string P = Payload;
    for (int B = 0; B != 8; ++B)
      P[Off + B] = static_cast<char>((V >> (8 * B)) & 0xff);
    return P;
  };
  auto WithF64 = [&](size_t Off, double V) {
    return WithU64(Off, std::bit_cast<uint64_t>(V));
  };
  auto WithByte = [&Payload](size_t Off, char V) {
    std::string P = Payload;
    P[Off] = V;
    return P;
  };
  const std::pair<const char *, std::string> Cases[] = {
      {"zero key", WithU64(0, 0)},
      {"negative weight", WithF64(16, -1.0)},
      {"NaN weight", WithF64(16, std::nan(""))},
      {"infinite sum", WithF64(8, std::numeric_limits<double>::infinity())},
      {"class 8", WithByte(24, 8)},
      {"P-state 8", WithByte(112, 8)},
      {"cpu-only 2", WithByte(28, 2)},
      {"confident 2", WithByte(29, 2)},
      {"launch-failed 2", WithByte(30, 2)},
      {"hung 2", WithByte(31, 2)},
      {"short payload", Payload.substr(0, 115)},
      {"long payload", Payload + '\0'},
  };
  ScratchFile File("malformed-base");
  for (const auto &[Name, Bad] : Cases) {
    SCOPED_TRACE(Name);
    std::string Bytes = Good.substr(0, 32);
    frameRaw(Bytes, Bad);
    HistoryFileScan Scan = scanHistoryFile(Bytes);
    ASSERT_TRUE(Scan.HeaderValid);
    EXPECT_TRUE(Scan.Torn);
    EXPECT_TRUE(Scan.Base.empty());
    KernelHistory History;
    EXPECT_EQ(recoverBytes(File, Bytes, History).Outcome,
              RecoveryOutcome::Truncated);
    EXPECT_EQ(History.size(), 0u);
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
  auto Entry = findRecord(History, 77);
  ASSERT_TRUE(Entry.has_value());
  EXPECT_TRUE(Entry->Confident);
  EXPECT_EQ(Entry->Alpha.weightedSum(), 0.6 * 100.0);
  EXPECT_EQ(Entry->Alpha.totalWeight(), 100.0);
}

//===----------------------------------------------------------------------===//
// 2. Recovery
//===----------------------------------------------------------------------===//

TEST(HistorySnapshot, MissingFileIsColdStart) {
  ScratchFile File("missing");
  KernelHistory History;
  populateBase(History);
  // Recovery replaces the table even on a cold start, and writes nothing
  // unless asked to compact.
  RecoveryReport Report =
      recoverKernelHistory(History, File.path(), /*Compact=*/false);
  EXPECT_EQ(Report.Outcome, RecoveryOutcome::Cold);
  EXPECT_TRUE(Report.ReadStatus.ok()) << Report.ReadStatus.toString();
  EXPECT_EQ(Report.BaseRecords, 0u);
  EXPECT_EQ(History.size(), 0u);
  EXPECT_FALSE(fileExists(File.path()));
}

TEST(Recovery, ColdStartWhenNothingExists) {
  ScratchFile File("cold");
  KernelHistory History;
  RecoveryReport Report = recoverKernelHistory(History, File.path());
  EXPECT_EQ(Report.Outcome, RecoveryOutcome::Cold);
  EXPECT_EQ(Report.BaseRecords, 0u);
  EXPECT_EQ(Report.ReplayedRecords, 0u);
  EXPECT_GE(Report.Seconds, 0.0);

  // Compaction wrote an empty base image; the journal opens it at the
  // reported generation.
  JournalOptions Opts;
  Opts.Path = File.path();
  auto Journal = HistoryJournal::open(Opts, Report.Generation);
  ASSERT_TRUE(Journal.ok()) << Journal.status().toString();
}

// The journal's deltas sit behind the snapshot's base image in the one
// file; recovery replays them onto it and compacts both into a new base.
TEST(Recovery, ReplaysJournalOntoSnapshotThenCompacts) {
  ScratchFile File("replay");
  std::string Bytes = baseFile(3);
  encodeDeltaFrame(Bytes, bump(7, 2));
  HistoryDeltaRecord Fresh = bump(555, 3);
  Fresh.SetCpuOnly = true;
  encodeDeltaFrame(Bytes, Fresh);
  writeRaw(File.path(), Bytes);

  KernelHistory History;
  RecoveryReport Report = recoverKernelHistory(History, File.path());
  EXPECT_EQ(Report.Outcome, RecoveryOutcome::Replayed);
  EXPECT_EQ(Report.BaseRecords, 3u);
  EXPECT_EQ(Report.ReplayedRecords, 2u);
  EXPECT_EQ(Report.TruncatedRecords, 0u);
  EXPECT_EQ(Report.Generation, 4u);
  EXPECT_TRUE(Report.ReadStatus.ok());
  EXPECT_TRUE(Report.CompactStatus.ok());

  EXPECT_EQ(History.size(), 4u);
  EXPECT_EQ(findRecord(History, 7)->Invocations, 7u);
  EXPECT_EQ(findRecord(History, 555)->Invocations, 3u);
  EXPECT_TRUE(findRecord(History, 555)->CpuOnly);

  // Compaction folded the deltas into the base image.
  HistoryFileScan Scan = scanHistoryFile(readFile(File.path()));
  EXPECT_EQ(Scan.Base.size(), 4u);
  EXPECT_TRUE(Scan.Deltas.empty());

  // Recovery of the recovered state is a fixpoint: Clean, identical
  // entries, no double-apply of the compacted deltas.
  KernelHistory Again;
  RecoveryReport Second = recoverKernelHistory(Again, File.path());
  EXPECT_EQ(Second.Outcome, RecoveryOutcome::Clean);
  EXPECT_EQ(Second.ReplayedRecords, 0u);
  expectSameEntries(History, Again);
}

TEST(Recovery, TornJournalTailTruncates) {
  ScratchFile File("torn");
  std::string Bytes = baseFile(1);
  encodeDeltaFrame(Bytes, bump(7, 1));
  size_t Valid = Bytes.size();
  encodeDeltaFrame(Bytes, bump(7, 1));
  writeRaw(File.path(), Bytes.substr(0, Valid + 6)); // torn second frame

  KernelHistory History;
  RecoveryReport Report = recoverKernelHistory(History, File.path());
  EXPECT_EQ(Report.Outcome, RecoveryOutcome::Truncated);
  EXPECT_EQ(Report.ReplayedRecords, 1u);
  EXPECT_EQ(Report.TruncatedRecords, 1u);
  EXPECT_EQ(findRecord(History, 7)->Invocations, 6u);

  // After compaction the tear is gone for good.
  KernelHistory Again;
  EXPECT_EQ(recoverKernelHistory(Again, File.path()).Outcome,
            RecoveryOutcome::Clean);
  expectSameEntries(History, Again);
}

// Damage inside the base image loses the records from it on — never the
// ones before it, and never the process.
TEST(HistorySnapshot, TruncatedFileIsRejected) {
  ScratchFile File("truncated");
  const std::string Good = baseFile(1);
  KernelHistory History;
  History.bumpInvocations(42); // pre-existing state must not survive

  // A cut inside the last base record: two of three survive.
  RecoveryReport Cut =
      recoverBytes(File, Good.substr(0, Good.size() - 10), History);
  EXPECT_EQ(Cut.Outcome, RecoveryOutcome::Truncated);
  EXPECT_EQ(Cut.ReadStatus.code(), ErrCode::Truncated);
  EXPECT_EQ(Cut.BaseRecords, 2u);
  EXPECT_EQ(Cut.TruncatedRecords, 1u);
  EXPECT_EQ(History.size(), 2u);
  EXPECT_FALSE(findRecord(History, 42));

  // Even the header can be cut short.
  RecoveryReport Short = recoverBytes(File, Good.substr(0, 12), History);
  EXPECT_EQ(Short.Outcome, RecoveryOutcome::Truncated);
  EXPECT_EQ(Short.ReadStatus.code(), ErrCode::Truncated);
  EXPECT_EQ(History.size(), 0u);
}

TEST(HistorySnapshot, CorruptPayloadFailsCrc) {
  ScratchFile File("crc");
  std::string Bytes = baseFile(1);
  Bytes[40] = static_cast<char>(Bytes[40] ^ 0x5a); // inside the first record
  KernelHistory History;
  RecoveryReport Crc = recoverBytes(File, Bytes, History);
  EXPECT_EQ(Crc.Outcome, RecoveryOutcome::Truncated);
  EXPECT_EQ(Crc.ReadStatus.code(), ErrCode::CorruptData);
  EXPECT_EQ(Crc.BaseRecords, 0u);
  EXPECT_EQ(History.size(), 0u);
}

TEST(HistorySnapshot, SaveAndLoadRoundTrip) {
  ScratchFile File("save-load");
  KernelHistory Original;
  populateBase(Original);

  Status Saved = writeHistoryFile(Original, File.path(), 1);
  ASSERT_TRUE(Saved.ok()) << Saved.toString();
  // The atomic-write protocol must not leave its temp file behind.
  EXPECT_FALSE(fileExists(File.path() + ".tmp"));

  KernelHistory Restored;
  RecoveryReport Report = recoverKernelHistory(Restored, File.path(), false);
  EXPECT_EQ(Report.Outcome, RecoveryOutcome::Clean);
  EXPECT_EQ(Report.BaseRecords, 3u);
  EXPECT_EQ(Report.Generation, 1u);
  expectSameEntries(Original, Restored);
}

TEST(HistorySnapshot, LeftoverTempFileIsHarmless) {
  ScratchFile File("leftover-tmp");
  // A writer that crashed mid-write leaves <path>.tmp but never touches
  // the destination: with no destination the restart is a cold start...
  writeRaw(File.path() + ".tmp", "torn partial garbage");
  KernelHistory Restored;
  EXPECT_EQ(recoverKernelHistory(Restored, File.path(), false).Outcome,
            RecoveryOutcome::Cold);

  // ...and the next write replaces the stray temp and publishes intact.
  KernelHistory Original;
  populateBase(Original);
  ASSERT_TRUE(writeHistoryFile(Original, File.path(), 1).ok());
  EXPECT_FALSE(fileExists(File.path() + ".tmp"));
  EXPECT_EQ(recoverKernelHistory(Restored, File.path(), false).Outcome,
            RecoveryOutcome::Clean);
  expectSameEntries(Original, Restored);
}

TEST(HistorySnapshot, SaveOverwritesExistingSnapshot) {
  ScratchFile File("overwrite");
  KernelHistory First;
  First.update(1, [](KernelRecord &Rec) { Rec.Alpha.addSample(0.2, 10.0); });
  ASSERT_TRUE(writeHistoryFile(First, File.path(), 1).ok());

  // A later write replaces the whole table, deltas included.
  std::string Appended = readFile(File.path());
  encodeDeltaFrame(Appended, bump(1, 4));
  writeRaw(File.path(), Appended);
  KernelHistory Second;
  populateBase(Second);
  ASSERT_TRUE(writeHistoryFile(Second, File.path(), 2).ok());

  KernelHistory Restored;
  RecoveryReport Report = recoverKernelHistory(Restored, File.path(), false);
  EXPECT_EQ(Report.Outcome, RecoveryOutcome::Clean);
  EXPECT_EQ(Report.Generation, 2u);
  EXPECT_EQ(Report.BaseRecords, 3u);
  expectSameEntries(Second, Restored);
}

//===----------------------------------------------------------------------===//
// 3. The append side
//===----------------------------------------------------------------------===//

TEST(Journal, OpenEnqueueFlushScan) {
  ScratchFile File("append");
  JournalOptions Opts;
  Opts.Path = File.path();
  auto Journal = HistoryJournal::open(Opts, 2);
  ASSERT_TRUE(Journal.ok()) << Journal.status().toString();
  EXPECT_EQ((*Journal)->generation(), 2u);

  (*Journal)->enqueue(richDelta());
  (*Journal)->enqueue(bump(5, 1));
  ASSERT_TRUE((*Journal)->flush().ok());

  HistoryJournal::Stats Stats = (*Journal)->stats();
  EXPECT_EQ(Stats.Appends, 2u);
  EXPECT_EQ(Stats.Flushes, 1u);
  EXPECT_GT(Stats.AppendedBytes, 0u);

  HistoryFileScan Scan = scanHistoryFile(readFile(File.path()));
  ASSERT_TRUE(Scan.HeaderValid);
  EXPECT_EQ(Scan.Generation, 2u);
  EXPECT_EQ(Scan.BaseCount, 0u);
  EXPECT_FALSE(Scan.Torn);
  ASSERT_EQ(Scan.Deltas.size(), 2u);
  EXPECT_EQ(Scan.Deltas[1].Key, 5u);

  // Empty records are dropped at the door.
  (*Journal)->enqueue(HistoryDeltaRecord{});
  EXPECT_EQ((*Journal)->stats().Appends, 2u);
}

TEST(Journal, GroupCommitHoldsUntilThreshold) {
  ScratchFile File("group-commit");
  JournalOptions Opts;
  Opts.Path = File.path();
  Opts.GroupCommitRecords = 2;
  auto Journal = HistoryJournal::open(Opts, 0);
  ASSERT_TRUE(Journal.ok());

  (*Journal)->enqueue(bump(1, 1));
  ASSERT_TRUE((*Journal)->maybeFlush().ok());
  EXPECT_EQ(readFile(File.path()).size(), 32u); // still header-only

  (*Journal)->enqueue(bump(1, 1));
  ASSERT_TRUE((*Journal)->maybeFlush().ok());
  EXPECT_EQ(scanHistoryFile(readFile(File.path())).Deltas.size(), 2u);
}

// open() appends after a whole base image of the generation recovery
// just wrote. Any other file is one recovery must rewrite first; this
// returns the code open() refuses \p Bytes with, if it does.
static std::optional<ErrCode> openRejection(const std::string &Bytes,
                                            uint64_t Generation) {
  ScratchFile File("open-reject");
  writeRaw(File.path(), Bytes);
  JournalOptions Opts;
  Opts.Path = File.path();
  auto Journal = HistoryJournal::open(Opts, Generation);
  if (Journal.ok())
    return std::nullopt;
  return Journal.status().code();
}

TEST(Journal, OpenRejectsEpochMismatch) {
  EXPECT_EQ(openRejection(baseFile(3), 4), ErrCode::VersionMismatch);
  EXPECT_EQ(openRejection(emptyFile(5), 4), ErrCode::VersionMismatch);
}

// open() only appends current-version frames, so a file left by a prior
// release must be rejected — recovery's compaction is the upgrade path,
// not mixed-version appends.
TEST(Journal, OpenRejectsPriorVersionJournal) {
  for (uint32_t Version : {1u, 3u}) {
    std::string PriorVersion = baseFile(4);
    setVersion(PriorVersion, Version);
    EXPECT_EQ(openRejection(PriorVersion, 4), ErrCode::VersionMismatch)
        << "v" << Version;
  }
}

// A file torn inside its base image: appended deltas would be read as
// base records.
TEST(Journal, OpenRejectsTornBaseImage) {
  const std::string Base = baseFile(4);
  EXPECT_EQ(openRejection(Base.substr(0, 32 + 2 * (8 + 116)), 4),
            ErrCode::Truncated);
}

TEST(Journal, OpenTruncatesTornTailAndResumesAppending) {
  ScratchFile File("open-torn");
  std::string Bytes = baseFile(1);
  encodeDeltaFrame(Bytes, bump(10, 1));
  size_t Valid = Bytes.size();
  encodeDeltaFrame(Bytes, bump(10, 1));
  writeRaw(File.path(), Bytes.substr(0, Valid + 4)); // torn tail

  JournalOptions Opts;
  Opts.Path = File.path();
  auto Journal = HistoryJournal::open(Opts, 1);
  ASSERT_TRUE(Journal.ok()) << Journal.status().toString();
  (*Journal)->enqueue(bump(20, 1));
  ASSERT_TRUE((*Journal)->flush().ok());

  // The tear was truncated away before the append, so the file scans
  // clean end to end: the base image, the intact first record, then the
  // new one.
  HistoryFileScan Scan = scanHistoryFile(readFile(File.path()));
  EXPECT_FALSE(Scan.Torn);
  EXPECT_EQ(Scan.Base.size(), 3u);
  ASSERT_EQ(Scan.Deltas.size(), 2u);
  EXPECT_EQ(Scan.Deltas[0].Key, 10u);
  EXPECT_EQ(Scan.Deltas[1].Key, 20u);
}

// compact() rewrites the file at the next generation: the header and a
// base image of the table, with the pending batch dropped.
TEST(Journal, ResetRewritesHeaderAndDropsPending) {
  ScratchFile File("compact");
  JournalOptions Opts;
  Opts.Path = File.path();
  Opts.GroupCommitRecords = 1000; // never auto-flush
  auto Journal = HistoryJournal::open(Opts, 1);
  ASSERT_TRUE(Journal.ok());

  KernelHistory History;
  populateBase(History);
  (*Journal)->enqueue(bump(7, 1)); // already counted in History
  ASSERT_TRUE((*Journal)->compact(History).ok());
  EXPECT_EQ((*Journal)->generation(), 2u);

  HistoryFileScan Scan = scanHistoryFile(readFile(File.path()));
  EXPECT_EQ(Scan.Generation, 2u);
  EXPECT_EQ(Scan.Base.size(), 3u);
  EXPECT_TRUE(Scan.Deltas.empty()); // the pending record was dropped

  // Appends keep working after compaction, onto the new base image.
  (*Journal)->enqueue(bump(7, 1));
  ASSERT_TRUE((*Journal)->flush().ok());
  KernelHistory Recovered;
  RecoveryReport Report = recoverKernelHistory(Recovered, File.path());
  EXPECT_EQ(Report.Outcome, RecoveryOutcome::Replayed);
  EXPECT_EQ(findRecord(Recovered, 7)->Invocations, 6u);
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
    ScratchFile File("no-shutdown-" + std::to_string(States));
    ScratchFile Copy("no-shutdown-copy-" + std::to_string(States));

    EasConfig Config;
    Config.HistoryFile = File.path();
    Config.Journal.Enabled = true;
    Config.Journal.GroupCommitRecords = 1; // every merge commits
    Config.PStates = States > 1;
    PlatformSpec Healthy = States > 1 ? ladderSpec() : haswellDesktop();
    PlatformSpec Hanging = Healthy;
    Hanging.Faults = *FaultPlan::scenario("gpu-hang");

    std::vector<std::pair<uint64_t, KernelRecord>> Live;
    std::string Killed;
    {
      EasScheduler Scheduler(States > 1 ? ladderFamily() : desktopFamily(),
                             Metric::edp(), Config);
      ASSERT_TRUE(Scheduler.journalStatus().ok())
          << Scheduler.journalStatus().toString();
      EXPECT_TRUE(Scheduler.journaling());
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
          findRecord(Scheduler.history(), KernelH.Id);
      ASSERT_TRUE(HangRec);
      EXPECT_GT(HangRec->QuarantinedRuns, 0u);
      unsigned ReducedStates = 0;
      for (const auto &Entry : Live)
        ReducedStates += Entry.second.PState > 0;
      EXPECT_EQ(ReducedStates > 0, States > 1);

      // Freeze the on-disk state exactly as a kill -9 here would leave
      // it, before the destructor's orderly shutdown compacts it.
      Killed = readFile(File.path());
      writeRaw(Copy.path(), Killed);
    }
    // Journaling wrote the one history file and nothing beside it.
    EXPECT_FALSE(fileExists(File.path() + ".wal"));
    EXPECT_FALSE(fileExists(File.path() + ".tmp"));

    KernelHistory Recovered;
    RecoveryReport Report = recoverKernelHistory(Recovered, Copy.path());
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

    // A scheduler restarted on the killed file (recovery above compacted
    // the copy) counts the records in its table, not the base records
    // plus the delta frames replayed onto them.
    writeRaw(Copy.path(), Killed);
    EasConfig RestartConfig = Config;
    RestartConfig.HistoryFile = Copy.path();
    EasScheduler Restarted(States > 1 ? ladderFamily() : desktopFamily(),
                           Metric::edp(), RestartConfig);
    EXPECT_EQ(Restarted.recoveryReport().Outcome, RecoveryOutcome::Replayed);
    EXPECT_EQ(Restarted.restoredRecords(), Restarted.history().size());
  }
}

// The same kill -9 scenario with an invocation long enough to profile
// for ~23k repetitions. Journaling every repetition's sample delta in
// one frame outgrew both the scanner's frame bound and the u16 sample
// count, so recovery truncated at that frame and lost it and every later
// record. The merged sample keeps the frame at a fixed size.
TEST(SchedulerJournal, LongProfiledInvocationSurvivesKillWithoutShutdown) {
  ScratchFile File("long-profile");
  ScratchFile Copy("long-profile-copy");

  EasConfig Config;
  Config.HistoryFile = File.path();
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
    writeRaw(Copy.path(), readFile(File.path()));
  }

  KernelHistory Recovered;
  RecoveryReport Report = recoverKernelHistory(Recovered, Copy.path());
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
  ScratchFile File("metrics");
  obs::MetricsRegistry Registry;

  EasConfig Config;
  Config.HistoryFile = File.path();
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
      findSample(Snap, obs::names::HistoryRecoveryOutcome,
                 {{"outcome", "cold"}});
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

// Without a journal the same file is written at shutdown only, and a
// restart restores identical learned alphas. snapshot() writes the same
// kind of file, which a journal-less twin restores in full.
TEST(HistorySnapshot, SchedulerRecoversIdenticalAlphasAfterRestart) {
  ScratchFile File("scheduler-restart");
  ScratchFile Copy("scheduler-restart-copy");
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
    EXPECT_FALSE(fileExists(File.path())); // nothing written before shutdown
    SimProcessor Proc(Spec);
    for (int I = 0; I != 6; ++I) {
      Scheduler.execute(Proc, KernelA, 2e6);
      Scheduler.execute(Proc, KernelB, 1e6);
    }
    Learned = Scheduler.history().entries();
    ASSERT_EQ(Learned.size(), 2u);
    ASSERT_TRUE(Scheduler.snapshot(Copy.path()).ok());
    Status Down = Scheduler.shutdown();
    EXPECT_TRUE(Down.ok()) << Down.toString();
  } // the destructor's shutdown() must be a no-op after the explicit one

  for (const std::string &Path : {File.path(), Copy.path()}) {
    SCOPED_TRACE(Path);
    Config.HistoryFile = Path;
    EasScheduler Restarted(desktopFamily(), Metric::edp(), Config);
    EXPECT_TRUE(Restarted.restoreStatus().ok())
        << Restarted.restoreStatus().toString();
    EXPECT_EQ(Restarted.restoredRecords(), 2u);
    EXPECT_EQ(Restarted.recoveryReport().Outcome, RecoveryOutcome::Clean);
    EXPECT_EQ(Restarted.recoveryReport().BaseRecords, 2u);

    // The kill-and-restart guarantee: identical learned alphas.
    auto Recovered = Restarted.history().entries();
    ASSERT_EQ(Recovered.size(), Learned.size());
    for (size_t I = 0; I != Learned.size(); ++I) {
      EXPECT_EQ(Recovered[I].first, Learned[I].first);
      expectSameRecord(Recovered[I].second, Learned[I].second);
    }

    // The restored table is live history, not an archive: the known
    // kernels hit the table-G fast path instead of re-profiling.
    SimProcessor Proc(Spec);
    EasScheduler::InvocationOutcome Hit =
        Restarted.execute(Proc, KernelA, 2e6);
    EXPECT_FALSE(Hit.Profiled);
    EXPECT_FALSE(Hit.Rejected);
  }
}

TEST(HistorySnapshot, SchedulerDegradesToColdTableOnCorruptSnapshot) {
  ScratchFile File("scheduler-corrupt");
  writeRaw(File.path(), "this is not a table-G file at all...............");

  EasConfig Config;
  Config.HistoryFile = File.path();
  EasScheduler Scheduler(desktopFamily(), Metric::edp(), Config);

  // The corruption is reported, not fatal: cold table, still serving.
  EXPECT_FALSE(Scheduler.restoreStatus().ok());
  EXPECT_EQ(Scheduler.restoredRecords(), 0u);
  EXPECT_EQ(Scheduler.history().size(), 0u);

  SimProcessor Proc(haswellDesktop());
  EasScheduler::InvocationOutcome Outcome =
      Scheduler.execute(Proc, namedKernel("after-corruption"), 2e6);
  EXPECT_FALSE(Outcome.Rejected);
  EXPECT_TRUE(Outcome.Profiled);

  // Shutdown replaces the corrupt file with a valid one.
  ASSERT_TRUE(Scheduler.shutdown().ok());
  KernelHistory Reloaded;
  RecoveryReport Report = recoverKernelHistory(Reloaded, File.path(), false);
  EXPECT_EQ(Report.Outcome, RecoveryOutcome::Clean);
  EXPECT_EQ(Report.BaseRecords, 1u);
}

// The upgrade path from the two-file format: a v3 snapshot, with a v3
// journal beside it, takes the VersionMismatch path to a cold table, and
// the next write (recovery's compaction, or shutdown without a journal)
// replaces it at the current version. The journal is never read, and is
// left where it is.
TEST(SchedulerJournal, PriorVersionFilesDegradeAndAreRewritten) {
  ScratchFile File("prior-version-restart");
  const std::string Wal = File.path() + ".wal";
  // A v3 snapshot of an empty table (magic, version, count, payload CRC,
  // then the payload: its u64 journal epoch) and a v3 journal header
  // (magic, version, epoch, CRC over version and epoch).
  std::string OldSnap = "ECASTBLG";
  putLe32(OldSnap, 3);
  putLe64(OldSnap, 0);
  putLe32(OldSnap, crc32(std::string(8, '\0').data(), 8));
  putLe64(OldSnap, 0);
  std::string OldWal = "ECASJRNL";
  putLe32(OldWal, 3);
  putLe64(OldWal, 0);
  putLe32(OldWal, crc32(OldWal.data() + 8, 12));
  auto VersionOf = [&File] {
    HistoryFileScan Scan = scanHistoryFile(readFile(File.path()));
    return Scan.HeaderValid ? HistoryFileVersion : 0u;
  };

  EasConfig Journaling;
  Journaling.HistoryFile = File.path();
  Journaling.Journal.Enabled = true;
  EasConfig ShutdownOnly;
  ShutdownOnly.HistoryFile = File.path();
  for (const EasConfig &Config : {Journaling, ShutdownOnly}) {
    SCOPED_TRACE(Config.Journal.Enabled ? "journaling" : "shutdown-only");
    writeRaw(File.path(), OldSnap);
    writeRaw(Wal, OldWal);
    {
      EasScheduler Scheduler(desktopFamily(), Metric::edp(), Config);
      const RecoveryReport &Report = Scheduler.recoveryReport();
      ASSERT_FALSE(Report.ReadStatus.ok());
      EXPECT_EQ(Report.ReadStatus.code(), ErrCode::VersionMismatch);
      EXPECT_EQ(Report.Outcome, RecoveryOutcome::Truncated);
      EXPECT_EQ(Scheduler.history().size(), 0u);
      EXPECT_EQ(Scheduler.journaling(), Config.Journal.Enabled);
      ASSERT_TRUE(Scheduler.shutdown().ok());
    }
    EXPECT_EQ(VersionOf(), HistoryFileVersion);
    EXPECT_EQ(readFile(Wal), OldWal);
    EasScheduler Restarted(desktopFamily(), Metric::edp(), Config);
    EXPECT_EQ(Restarted.recoveryReport().Outcome, RecoveryOutcome::Clean);
  }
}

//===----------------------------------------------------------------------===//
// 5. Corruption matrix
//===----------------------------------------------------------------------===//

namespace {

/// One seeded file for the corruption matrix: 3 base frames and 4 delta
/// frames, with the offset where each frame ends.
struct SeededFile {
  static constexpr size_t BaseFrames = 3;
  std::string Bytes = baseFile(2);
  std::vector<size_t> Boundaries{32};

  SeededFile() {
    for (size_t I = 0; I != BaseFrames; ++I)
      Boundaries.push_back(Boundaries.back() + 8 + 116);
    EXPECT_EQ(Boundaries.back(), Bytes.size());
    for (const HistoryDeltaRecord &Rec :
         {richDelta(), bump(3, 1), richDelta(), bump(3, 1)}) {
      encodeDeltaFrame(Bytes, Rec);
      Boundaries.push_back(Bytes.size());
    }
  }
  size_t fullFrames() const { return Boundaries.size() - 1; }
  /// Where the base image ends and the deltas begin.
  size_t deltaStart() const { return Boundaries[BaseFrames]; }
};

/// Truncation at any offset in [\p From, \p To) keeps the records up to
/// the last whole frame. A cut inside the header or the base image, on a
/// frame boundary or not, recovers as `truncated` (a cold table inside
/// the header), never as `clean` with fewer records; among the deltas
/// only a mid-frame cut is a tear.
void checkEveryTruncation(const SeededFile &Seed, size_t From, size_t To) {
  ScratchFile File("matrix");
  const std::vector<size_t> &Boundaries = Seed.Boundaries;
  constexpr size_t BaseFrames = SeededFile::BaseFrames;
  for (size_t Len = From; Len != To; ++Len) {
    SCOPED_TRACE(Len);
    std::string Cut = Seed.Bytes.substr(0, Len);
    HistoryFileScan Scan = scanHistoryFile(Cut);
    KernelHistory History;
    RecoveryOutcome Outcome = recoverBytes(File, Cut, History).Outcome;
    if (Len < 32) {
      EXPECT_FALSE(Scan.HeaderValid);
      EXPECT_EQ(Outcome, RecoveryOutcome::Truncated);
      EXPECT_EQ(History.size(), 0u);
      continue;
    }
    ASSERT_TRUE(Scan.HeaderValid);
    size_t Whole = 0;
    while (Whole + 1 < Boundaries.size() && Boundaries[Whole + 1] <= Len)
      ++Whole;
    EXPECT_EQ(Scan.Base.size(), std::min(Whole, BaseFrames));
    EXPECT_EQ(Scan.Deltas.size(), Whole - std::min(Whole, BaseFrames));
    EXPECT_EQ(Scan.ValidBytes, Boundaries[Whole]);
    bool Torn = Whole < BaseFrames || Len != Boundaries[Whole];
    EXPECT_EQ(Scan.Torn, Torn);
    if (Torn)
      EXPECT_EQ(Outcome, RecoveryOutcome::Truncated);
    else
      EXPECT_EQ(Outcome, Whole == BaseFrames ? RecoveryOutcome::Clean
                                             : RecoveryOutcome::Replayed);
  }
}

/// A single-bit flip at any offset in [\p From, \p To) kills at most the
/// frames from the flip onward — and restoring and replaying whatever
/// survives must never abort.
void checkEveryBitFlip(const SeededFile &Seed, size_t From, size_t To) {
  for (size_t Offset = From; Offset != To; ++Offset)
    for (int Bit = 0; Bit != 8; ++Bit) {
      SCOPED_TRACE("bit " + std::to_string(Bit) + " at offset " +
                   std::to_string(Offset));
      std::string Flipped = Seed.Bytes;
      Flipped[Offset] = static_cast<char>(Flipped[Offset] ^ (1 << Bit));
      HistoryFileScan Scan = scanHistoryFile(Flipped);
      EXPECT_TRUE(Scan.Torn);
      EXPECT_EQ(Scan.HeaderValid, Offset >= 32);
      EXPECT_LT(Scan.Base.size() + Scan.Deltas.size(), Seed.fullFrames());
      KernelHistory History;
      History.restore(Scan.Base);
      for (const HistoryDeltaRecord &Rec : Scan.Deltas)
        applyDeltaRecord(History, Rec);
    }
}

} // namespace

// Every cut and every flip in the header and the base image, each
// base-frame boundary included.
TEST(CorruptionMatrix, SnapshotRejectsEveryTruncationAndBitFlip) {
  SeededFile Seed;
  checkEveryTruncation(Seed, 0, Seed.deltaStart());
  checkEveryBitFlip(Seed, 0, Seed.deltaStart());
}

// Every cut and every flip among the delta frames behind the base image.
TEST(CorruptionMatrix, JournalDegradesOnEveryTruncationAndBitFlip) {
  SeededFile Seed;
  checkEveryTruncation(Seed, Seed.deltaStart(), Seed.Bytes.size());
  checkEveryBitFlip(Seed, Seed.deltaStart(), Seed.Bytes.size());
}

TEST(CorruptionMatrix, RandomMultiFaultRoundsNeverCrashRecovery) {
  ScratchFile File("fuzz");
  std::string Good = baseFile(1);
  for (int I = 0; I != 4; ++I)
    encodeDeltaFrame(Good, richDelta());

  Xoshiro256 Rng(0xc4a5u);
  for (int Round = 0; Round != 120; ++Round) {
    std::string Bytes = Good;
    // 1-4 faults per round, any mix of truncations and flips, including
    // whole-file loss.
    const unsigned Faults = 1 + static_cast<unsigned>(Rng.nextBounded(4));
    for (unsigned F = 0; F != Faults; ++F) {
      switch (Rng.nextBounded(3)) {
      case 0:
        Bytes.resize(Rng.nextBounded(Bytes.size() + 1));
        break;
      case 1:
        if (!Bytes.empty()) {
          size_t At = Rng.nextBounded(Bytes.size());
          Bytes[At] = static_cast<char>(Bytes[At] ^ (1u << Rng.nextBounded(8)));
        }
        break;
      default:
        Bytes.clear();
        break;
      }
    }
    writeRaw(File.path(), Bytes);

    KernelHistory History;
    RecoveryReport Report = recoverKernelHistory(History, File.path());
    // The contract: any corruption degrades (cold table or truncated
    // replay); the table never exceeds the uncorrupted world's keys.
    EXPECT_LE(History.size(), 4u) << "round " << Round;
    EXPECT_LE(Report.ReplayedRecords, 4u) << "round " << Round;

    // And whatever recovery produced is a stable fixpoint.
    KernelHistory Again;
    RecoveryReport Second = recoverKernelHistory(Again, File.path());
    EXPECT_EQ(Second.Outcome, RecoveryOutcome::Clean) << "round " << Round;
    expectSameEntries(History, Again);
  }
}

//===----------------------------------------------------------------------===//
// 6. The fork harness: die at every declared crash point
//===----------------------------------------------------------------------===//

namespace {

/// What the crash-sweep child does after arming one point: a full
/// durability cycle — recover (covers the recovery.* and atomicfile.*
/// points via compaction), then append one more delta and flush it
/// (covers the journal.flush.* points). Never returns.
[[noreturn]] void crashChildWorkload(const char *Point,
                                     const std::string &Path) {
  if (Point)
    armCrashPoint(Point);
  KernelHistory History;
  RecoveryReport Report = recoverKernelHistory(History, Path);
  JournalOptions Opts;
  Opts.Path = Path;
  auto Journal = HistoryJournal::open(Opts, Report.Generation);
  if (!Journal.ok())
    _exit(3);
  (*Journal)->enqueue(bump(777, 4));
  if (!(*Journal)->flush().ok())
    _exit(4);
  _exit(0);
}

/// Seeds the base table at generation 1 followed by two pending deltas,
/// so the child's recovery has real replay and compaction work for every
/// crash point to land inside.
void seedCrashState(const std::string &Path) {
  std::string Bytes = baseFile(1);
  encodeDeltaFrame(Bytes, bump(7, 2));
  HistoryDeltaRecord Fresh = bump(555, 3);
  Fresh.SetCpuOnly = true;
  encodeDeltaFrame(Bytes, Fresh);
  ASSERT_TRUE(writeFileAtomic(Path, Bytes).ok());
}

int runCrashChild(const char *Point, const std::string &Path) {
  pid_t Pid = fork();
  if (Pid == 0)
    crashChildWorkload(Point, Path); // never returns
  EXPECT_GT(Pid, 0) << "fork failed";
  int WaitStatus = 0;
  EXPECT_EQ(waitpid(Pid, &WaitStatus, 0), Pid);
  return WaitStatus;
}

} // namespace

TEST(CrashHarness, EveryDeclaredPointHoldsRecoveryInvariants) {
  size_t PointCount = 0;
  const char *const *Points = declaredCrashPoints(PointCount);
  ASSERT_EQ(PointCount, 7u);

  // Baseline: the workload completes when nothing is armed, so a clean
  // exit below would mean the armed point was never reached.
  {
    ScratchFile File("crash-baseline");
    seedCrashState(File.path());
    int WaitStatus = runCrashChild(nullptr, File.path());
    ASSERT_TRUE(WIFEXITED(WaitStatus));
    ASSERT_EQ(WEXITSTATUS(WaitStatus), 0);
  }

  for (size_t I = 0; I != PointCount; ++I) {
    SCOPED_TRACE(Points[I]);
    ScratchFile File("crash-point");
    seedCrashState(File.path());

    int WaitStatus = runCrashChild(Points[I], File.path());
    ASSERT_TRUE(WIFEXITED(WaitStatus));
    // Every declared point must be reachable by the durability cycle —
    // a declared-but-dead point would exit 0 here and fail.
    ASSERT_EQ(WEXITSTATUS(WaitStatus), CrashPointExitCode);

    // The restart after the simulated power cut.
    KernelHistory Recovered;
    RecoveryReport Report = recoverKernelHistory(Recovered, File.path());
    EXPECT_TRUE(Report.CompactStatus.ok()) << Report.CompactStatus.toString();

    // Invariant 1 — nothing durable before the crash is lost. The seed
    // file was fsynced before the fork, so the base table *plus both
    // deltas* must survive no matter where the child died — and, the
    // file being replaced whole, neither delta is applied twice.
    ASSERT_NE(findRecord(Recovered, 7), std::nullopt);
    EXPECT_EQ(findRecord(Recovered, 7)->Invocations, 7u); // 5 base + 2 replayed
    ASSERT_NE(findRecord(Recovered, 11), std::nullopt);
    EXPECT_EQ(findRecord(Recovered, 11)->Invocations, 1u);
    EXPECT_EQ(findRecord(Recovered, 11)->QuarantinedRuns, 1u);
    ASSERT_NE(findRecord(Recovered, 9001), std::nullopt);
    ASSERT_NE(findRecord(Recovered, 555), std::nullopt);
    EXPECT_EQ(findRecord(Recovered, 555)->Invocations, 3u);
    EXPECT_TRUE(findRecord(Recovered, 555)->CpuOnly);

    // Invariant 2 — nothing the crash could not have persisted appears.
    // The child's post-recovery delta (key 777) is all-or-nothing: its
    // record was framed in one write, so it is either fully present or
    // fully absent, and the table never grows beyond the golden set.
    EXPECT_LE(Recovered.size(), 5u);
    if (auto Extra = findRecord(Recovered, 777)) {
      EXPECT_EQ(Extra->Invocations, 4u);
    }

    // Invariant 3 — recovery of the recovered state is a fixpoint with
    // valid CRCs everywhere.
    KernelHistory Again;
    RecoveryReport Second = recoverKernelHistory(Again, File.path());
    EXPECT_EQ(Second.Outcome, RecoveryOutcome::Clean);
    EXPECT_TRUE(Second.ReadStatus.ok());
    expectSameEntries(Recovered, Again);

    // Invariant 4 — the file reopens for appending at the recovered
    // generation (the handoff a restarted scheduler performs).
    JournalOptions Opts;
    Opts.Path = File.path();
    auto Journal = HistoryJournal::open(Opts, Second.Generation);
    EXPECT_TRUE(Journal.ok()) << Journal.status().toString();
  }
}

TEST(CrashHarness, RandomSigkillUnderLoadNeverLosesFlushedPrefix) {
  ScratchFile File("sigkill");
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
      Config.HistoryFile = File.path();
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
    RecoveryReport Report = recoverKernelHistory(Recovered, File.path());
    EXPECT_TRUE(Report.CompactStatus.ok()) << Report.CompactStatus.toString();
    auto Entries = Recovered.entries();
    ASSERT_EQ(Entries.size(), 3u); // exactly the 3 kernels, nothing phantom
    for (const auto &Entry : Entries)
      EXPECT_GE(Entry.second.Invocations,
                static_cast<unsigned>(8 * (Round + 1)));

    // Idempotent, and the state chains into the next round's restart.
    KernelHistory Again;
    EXPECT_EQ(recoverKernelHistory(Again, File.path()).Outcome,
              RecoveryOutcome::Clean);
    expectSameEntries(Recovered, Again);
  }
}
