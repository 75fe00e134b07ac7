//===-- ecas/core/HistoryJournal.cpp - Table-G write-ahead journal --------===//
//
// Part of the ecas project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "ecas/core/HistoryJournal.h"

#include "ecas/core/HistoryCodec.h"
#include "ecas/core/HistorySnapshot.h"
#include "ecas/fault/StorageFaults.h"
#include "ecas/support/AtomicFile.h"
#include "ecas/support/Crc32.h"
#include "ecas/support/CrashPoint.h"

#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>

#ifndef _WIN32
#include <fcntl.h>
#include <unistd.h>
#endif

using namespace ecas;
using namespace ecas::history_codec;

namespace {

constexpr char Magic[8] = {'E', 'C', 'A', 'S', 'J', 'R', 'N', 'L'};
constexpr size_t HeaderBytes = 24;
constexpr size_t FrameHeaderBytes = 8;
/// Fixed part of a record payload (everything but the merged sample).
constexpr size_t RecordFixedBytes = 8 + 4 + 4 + 1 + 4 + 8 + 8 + 4 + 2;
constexpr size_t SampleBytes = 9 * 8 + 2;
/// Structural sanity bound: a frame longer than this cannot have been
/// written by us, so a length field above it marks the tear.
constexpr size_t MaxFrameBytes = 1u << 20;
/// Replay-loop bound for the counter deltas; live merges write 0 or 1.
constexpr uint32_t MaxCounterDelta = 1u << 20;

constexpr uint8_t FlagHasAlphaSample = 1u << 0;
constexpr uint8_t FlagSetCpuOnly = 1u << 1;
constexpr uint8_t FlagBecameConfident = 1u << 2;
constexpr uint8_t FlagHasClass = 1u << 3;
constexpr uint8_t FlagHasPState = 1u << 4;
constexpr uint8_t FlagHasMergedSample = 1u << 5;
constexpr uint8_t FlagsKnown = FlagHasAlphaSample | FlagSetCpuOnly |
                               FlagBecameConfident | FlagHasClass |
                               FlagHasPState | FlagHasMergedSample;

/// Semantic bound for a replayed P-state (mirrors core/OperatingPoint.h
/// kMaxPStates without pulling the decision core into the codec).
constexpr uint32_t MaxPStateIndex = 8;

void encodeSample(std::string &Out, const ProfileSample &S) {
  putF64(Out, S.CpuThroughput);
  putF64(Out, S.GpuThroughput);
  putF64(Out, S.CpuIterations);
  putF64(Out, S.GpuIterations);
  putF64(Out, S.ElapsedSeconds);
  putF64(Out, S.CpuBusySeconds);
  putF64(Out, S.GpuBusySeconds);
  putF64(Out, S.MissPerLoadStore);
  putF64(Out, S.InstructionsRetired);
  Out.push_back(static_cast<char>(S.GpuLaunchFailed ? 1 : 0));
  Out.push_back(static_cast<char>(S.GpuHung ? 1 : 0));
}

ProfileSample decodeSample(const unsigned char *P) {
  ProfileSample S;
  S.CpuThroughput = getF64(P);
  S.GpuThroughput = getF64(P + 8);
  S.CpuIterations = getF64(P + 16);
  S.GpuIterations = getF64(P + 24);
  S.ElapsedSeconds = getF64(P + 32);
  S.CpuBusySeconds = getF64(P + 40);
  S.GpuBusySeconds = getF64(P + 48);
  S.MissPerLoadStore = getF64(P + 56);
  S.InstructionsRetired = getF64(P + 64);
  S.GpuLaunchFailed = P[72] != 0;
  S.GpuHung = P[73] != 0;
  return S;
}

void encodeDeltaPayload(std::string &Out, const HistoryDeltaRecord &Rec) {
  putU64(Out, Rec.Key);
  putU32(Out, Rec.InvocationsDelta);
  putU32(Out, Rec.QuarantinedDelta);
  uint8_t Flags = 0;
  if (Rec.HasAlphaSample)
    Flags |= FlagHasAlphaSample;
  if (Rec.SetCpuOnly)
    Flags |= FlagSetCpuOnly;
  if (Rec.BecameConfident)
    Flags |= FlagBecameConfident;
  if (Rec.HasClass)
    Flags |= FlagHasClass;
  if (Rec.HasPState)
    Flags |= FlagHasPState;
  if (Rec.HasMergedSample)
    Flags |= FlagHasMergedSample;
  Out.push_back(static_cast<char>(Flags));
  putU32(Out, Rec.ClassIndex);
  putF64(Out, Rec.AlphaValue);
  putF64(Out, Rec.AlphaWeight);
  putU32(Out, Rec.PState);
  // The u16 sample count: always 0 (see decodeDeltaPayload).
  Out.append(2, '\0');
  if (Rec.HasMergedSample)
    encodeSample(Out, Rec.MergedSample);
}

/// Overwrites the four bytes at \p P with \p V, little-endian.
void storeU32(char *P, uint32_t V) {
  for (int I = 0; I != 4; ++I)
    P[I] = static_cast<char>((V >> (8 * I)) & 0xffu);
}

/// Structural + semantic validation, so a CRC-colliding corruption (or
/// a handcrafted file) degrades to a truncated scan instead of tripping
/// the assertions inside SampleWeightedAlpha::addSample during replay.
bool decodeDeltaPayload(std::string_view Payload, HistoryDeltaRecord &Rec) {
  if (Payload.size() < RecordFixedBytes)
    return false;
  const auto *P = reinterpret_cast<const unsigned char *>(Payload.data());
  Rec.Key = getU64(P);
  if (Rec.Key == 0)
    return false;
  Rec.InvocationsDelta = getU32(P + 8);
  Rec.QuarantinedDelta = getU32(P + 12);
  if (Rec.InvocationsDelta > MaxCounterDelta ||
      Rec.QuarantinedDelta > MaxCounterDelta)
    return false;
  uint8_t Flags = P[16];
  if (Flags & ~FlagsKnown)
    return false;
  Rec.HasAlphaSample = (Flags & FlagHasAlphaSample) != 0;
  Rec.SetCpuOnly = (Flags & FlagSetCpuOnly) != 0;
  Rec.BecameConfident = (Flags & FlagBecameConfident) != 0;
  Rec.HasClass = (Flags & FlagHasClass) != 0;
  Rec.HasPState = (Flags & FlagHasPState) != 0;
  Rec.HasMergedSample = (Flags & FlagHasMergedSample) != 0;
  Rec.ClassIndex = getU32(P + 17);
  if (Rec.HasClass && Rec.ClassIndex >= WorkloadClass::NumClasses)
    return false;
  Rec.AlphaValue = getF64(P + 21);
  Rec.AlphaWeight = getF64(P + 29);
  if (Rec.HasAlphaSample &&
      (!std::isfinite(Rec.AlphaValue) || Rec.AlphaValue < 0.0 ||
       Rec.AlphaValue > 1.0 || !std::isfinite(Rec.AlphaWeight) ||
       Rec.AlphaWeight < 0.0))
    return false;
  Rec.PState = getU32(P + 37);
  if (Rec.HasPState && Rec.PState >= MaxPStateIndex)
    return false;
  // The u16 sample count once carried per-repetition sample deltas;
  // writers of this version leave it 0 and journal MergedSample instead.
  if (P[41] != 0 || P[42] != 0)
    return false;
  if (Payload.size() !=
      RecordFixedBytes + (Rec.HasMergedSample ? SampleBytes : 0))
    return false;
  if (Rec.HasMergedSample)
    Rec.MergedSample = decodeSample(P + RecordFixedBytes);
  return true;
}

} // namespace

void ecas::applyDeltaFields(KernelRecord &R, const HistoryDeltaRecord &Rec) {
  if (Rec.HasMergedSample)
    R.Sample = Rec.MergedSample;
  if (Rec.BecameConfident) {
    R.Confident = true;
    R.Alpha = SampleWeightedAlpha();
  }
  if (Rec.HasAlphaSample)
    R.Alpha.addSample(Rec.AlphaValue, Rec.AlphaWeight);
  if (Rec.HasClass)
    R.Class = WorkloadClass::fromIndex(Rec.ClassIndex);
  if (Rec.SetCpuOnly)
    R.CpuOnly = true;
  if (Rec.HasPState)
    R.PState = Rec.PState;
}

void ecas::applyDeltaRecord(KernelHistory &History,
                            const HistoryDeltaRecord &Rec) {
  if (Rec.hasRecordFields())
    History.update(Rec.Key,
                   [&Rec](KernelRecord &R) { applyDeltaFields(R, Rec); });
  for (uint32_t I = 0; I != Rec.InvocationsDelta; ++I)
    History.bumpInvocations(Rec.Key);
  for (uint32_t I = 0; I != Rec.QuarantinedDelta; ++I)
    History.bumpQuarantinedRuns(Rec.Key);
}

std::string ecas::encodeJournalHeader(uint64_t Epoch) {
  std::string Out;
  Out.reserve(HeaderBytes);
  Out.append(Magic, sizeof(Magic));
  putU32(Out, HistoryJournalVersion);
  putU64(Out, Epoch);
  putU32(Out, crc32(Out.data() + 8, 12));
  return Out;
}

void ecas::encodeDeltaFrame(std::string &Out, const HistoryDeltaRecord &Rec) {
  // Reserve the frame header, encode the payload after it, then fill
  // the header in: no temporary payload string.
  size_t Frame = Out.size();
  Out.append(FrameHeaderBytes, '\0');
  encodeDeltaPayload(Out, Rec);
  char *Header = Out.data() + Frame;
  size_t PayloadBytes = Out.size() - Frame - FrameHeaderBytes;
  storeU32(Header, static_cast<uint32_t>(PayloadBytes));
  storeU32(Header + 4, crc32(Header + FrameHeaderBytes, PayloadBytes));
}

JournalScan ecas::scanJournal(std::string_view Bytes) {
  JournalScan Scan;
  if (Bytes.size() < HeaderBytes) {
    Scan.Torn = !Bytes.empty();
    Scan.Error = Status::error(ErrCode::Truncated,
                               "journal smaller than its 24-byte header (" +
                                   std::to_string(Bytes.size()) + " bytes)");
    return Scan;
  }
  const auto *P = reinterpret_cast<const unsigned char *>(Bytes.data());
  if (std::memcmp(P, Magic, sizeof(Magic)) != 0) {
    Scan.Torn = true;
    Scan.Error = Status::error(ErrCode::CorruptData,
                               "journal magic mismatch (not a table-G WAL)");
    return Scan;
  }
  uint32_t Version = getU32(P + 8);
  if (Version != HistoryJournalVersion) {
    Scan.Torn = true;
    Scan.Error = Status::error(ErrCode::VersionMismatch,
                               "journal format v" + std::to_string(Version) +
                                   ", this build reads v" +
                                   std::to_string(HistoryJournalVersion));
    return Scan;
  }
  if (crc32(P + 8, 12) != getU32(P + 20)) {
    Scan.Torn = true;
    Scan.Error =
        Status::error(ErrCode::CorruptData, "journal header CRC mismatch");
    return Scan;
  }
  Scan.HeaderValid = true;
  Scan.Epoch = getU64(P + 12);
  Scan.ValidBytes = HeaderBytes;

  size_t Off = HeaderBytes;
  while (Off < Bytes.size()) {
    if (Bytes.size() - Off < FrameHeaderBytes) {
      Scan.Torn = true;
      Scan.TruncatedRecords = 1;
      Scan.Error = Status::error(
          ErrCode::Truncated, "torn frame header at offset " +
                                  std::to_string(Off) + " (" +
                                  std::to_string(Bytes.size() - Off) +
                                  " trailing bytes)");
      break;
    }
    uint32_t Len = getU32(P + Off);
    uint32_t ExpectedCrc = getU32(P + Off + 4);
    if (Len == 0 || Len > MaxFrameBytes ||
        Bytes.size() - Off - FrameHeaderBytes < Len) {
      Scan.Torn = true;
      Scan.TruncatedRecords = 1;
      Scan.Error = Status::error(
          ErrCode::Truncated, "torn frame at offset " + std::to_string(Off) +
                                  " (declares " + std::to_string(Len) +
                                  " payload bytes)");
      break;
    }
    std::string_view Payload = Bytes.substr(Off + FrameHeaderBytes, Len);
    if (crc32(Payload.data(), Payload.size()) != ExpectedCrc) {
      Scan.Torn = true;
      Scan.TruncatedRecords = 1;
      Scan.Error = Status::error(ErrCode::CorruptData,
                                 "frame CRC mismatch at offset " +
                                     std::to_string(Off));
      break;
    }
    HistoryDeltaRecord Rec;
    if (!decodeDeltaPayload(Payload, Rec)) {
      Scan.Torn = true;
      Scan.TruncatedRecords = 1;
      Scan.Error = Status::error(ErrCode::CorruptData,
                                 "malformed record at offset " +
                                     std::to_string(Off));
      break;
    }
    Scan.Records.push_back(std::move(Rec));
    Off += FrameHeaderBytes + Len;
    Scan.ValidBytes = Off;
  }
  return Scan;
}

const char *ecas::recoveryOutcomeName(RecoveryOutcome Outcome) {
  switch (Outcome) {
  case RecoveryOutcome::Clean:
    return "clean";
  case RecoveryOutcome::Replayed:
    return "replayed";
  case RecoveryOutcome::Truncated:
    return "truncated";
  case RecoveryOutcome::Cold:
    return "cold";
  }
  return "unknown";
}

RecoveryReport ecas::recoverKernelHistory(KernelHistory &History,
                                          const std::string &SnapshotPath,
                                          const std::string &JournalPath,
                                          bool Compact) {
  RecoveryReport Report;
  std::chrono::steady_clock::time_point Start =
      std::chrono::steady_clock::now();

  // Phase 1: the newest valid snapshot (a missing file is a cold start,
  // a corrupt one degrades to cold with the status preserved).
  uint64_t SnapshotEpoch = 0;
  bool SnapshotOk = true;
  bool SnapshotExisted = false;
  {
    std::string Bytes;
    Status Read = readFileBytes(SnapshotPath, Bytes, SnapshotExisted);
    if (!Read) {
      History.clear();
      SnapshotOk = false;
      Report.SnapshotStatus = Read;
    } else if (SnapshotExisted) {
      ErrorOr<size_t> Loaded =
          deserializeKernelHistory(History, Bytes, &SnapshotEpoch);
      if (Loaded) {
        Report.SnapshotRecords = *Loaded;
      } else {
        SnapshotOk = false;
        SnapshotEpoch = 0;
        Report.SnapshotStatus = Status::error(
            Loaded.status().code(),
            SnapshotPath + ": " + Loaded.status().message());
      }
    } else {
      History.clear();
    }
  }

  // Phase 2: replay the journal — unless its epoch says the snapshot
  // already contains it (a crash between compaction's snapshot write
  // and journal reset leaves exactly that state; replaying would apply
  // every delta twice).
  uint64_t JournalEpoch = SnapshotEpoch;
  bool JournalTorn = false;
  bool JournalExisted = false;
  if (!JournalPath.empty()) {
    std::string Bytes;
    Status Read = readFileBytes(JournalPath, Bytes, JournalExisted);
    if (!Read) {
      Report.JournalStatus = Read;
      JournalTorn = true;
    } else if (JournalExisted && !Bytes.empty()) {
      JournalScan Scan = scanJournal(Bytes);
      if (Scan.HeaderValid && Scan.Epoch < SnapshotEpoch) {
        Report.StaleJournalSkipped = true;
      } else {
        if (Scan.HeaderValid)
          JournalEpoch = std::max(JournalEpoch, Scan.Epoch);
        for (const HistoryDeltaRecord &Rec : Scan.Records)
          applyDeltaRecord(History, Rec);
        Report.ReplayedRecords = Scan.Records.size();
        Report.TruncatedRecords = Scan.TruncatedRecords;
        JournalTorn = Scan.Torn;
        if (!Scan.Error.ok())
          Report.JournalStatus = Status::error(
              Scan.Error.code(), JournalPath + ": " + Scan.Error.message());
      }
    }
  }
  ECAS_CRASHPOINT("recovery.after-replay");

  // Classify before compaction: compaction failures are reported via
  // CompactStatus, not by downgrading what recovery found.
  bool LostData = JournalTorn || (SnapshotExisted && !SnapshotOk);
  if (LostData)
    Report.Outcome = RecoveryOutcome::Truncated;
  else if (Report.ReplayedRecords > 0)
    Report.Outcome = RecoveryOutcome::Replayed;
  else if (SnapshotExisted)
    Report.Outcome = RecoveryOutcome::Clean;
  else
    Report.Outcome = RecoveryOutcome::Cold;

  // Phase 3: compact — fresh snapshot at the next epoch, then (and only
  // then) reset the journal to match. The ordering is the crash-safety
  // argument: die between the two writes and the journal is stale, not
  // double-applied.
  Report.Epoch = std::max(SnapshotEpoch, JournalEpoch);
  if (Compact) {
    Report.Epoch += 1;
    Report.CompactStatus =
        saveKernelHistory(History, SnapshotPath, Report.Epoch);
    ECAS_CRASHPOINT("recovery.after-snapshot");
    if (Report.CompactStatus.ok() && !JournalPath.empty())
      Report.CompactStatus =
          writeFileAtomic(JournalPath, encodeJournalHeader(Report.Epoch));
    ECAS_CRASHPOINT("recovery.after-reset");
  }

  Report.Seconds = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - Start)
                       .count();
  return Report;
}

//===----------------------------------------------------------------------===//
// HistoryJournal — the append side
//===----------------------------------------------------------------------===//

ErrorOr<std::unique_ptr<HistoryJournal>>
HistoryJournal::open(JournalOptions Options, uint64_t Epoch) {
  if (Options.Path.empty())
    return Status::error(ErrCode::InvalidArgument, "empty journal path");
  if (Options.GroupCommitRecords == 0)
    return Status::error(ErrCode::InvalidArgument,
                         "zero group-commit record threshold (1 means "
                         "per-record commit)");
#ifdef _WIN32
  return Status::error(ErrCode::DeviceUnavailable,
                       "journaling needs POSIX file IO");
#else
  std::string Existing;
  bool Existed = false;
  if (Status S = readFileBytes(Options.Path, Existing, Existed); !S)
    return S;
  size_t KeepBytes = 0;
  if (Existed && !Existing.empty()) {
    JournalScan Scan = scanJournal(Existing);
    if (!Scan.HeaderValid)
      return Status::error(Scan.Error.code(),
                           Options.Path + ": " + Scan.Error.message() +
                               " (recover before opening)");
    if (Scan.Epoch != Epoch)
      return Status::error(
          ErrCode::VersionMismatch,
          Options.Path + ": journal epoch " + std::to_string(Scan.Epoch) +
              " does not match recovery epoch " + std::to_string(Epoch) +
              " (recover before opening)");
    // A torn tail from the previous crash must not bury new appends
    // behind unparseable bytes: drop it, keep the valid prefix.
    KeepBytes = Scan.ValidBytes;
  }

  std::unique_ptr<HistoryJournal> Journal(
      new HistoryJournal(std::move(Options), Epoch));
  const std::string &Path = Journal->Options.Path;
  LockGuard Io(Journal->IoMutex);
  if (!Existed || Existing.empty()) {
    Journal->Fd = ::open(Path.c_str(), O_CREAT | O_WRONLY | O_TRUNC, 0644);
    if (Journal->Fd < 0)
      return Status::error(ErrCode::IoError, "cannot create " + Path + ": " +
                                                 std::strerror(errno));
    std::string Header = encodeJournalHeader(Epoch);
    if (::write(Journal->Fd, Header.data(), Header.size()) !=
        static_cast<ssize_t>(Header.size()))
      return Status::error(ErrCode::IoError, "short header write to " + Path);
    if (::fsync(Journal->Fd) != 0)
      return Status::error(ErrCode::IoError, "fsync " + Path + ": " +
                                                 std::strerror(errno));
    // The file *name* must survive a crash too, or recovery finds a
    // snapshot with no journal and cannot tell loss from first-boot.
    if (Status S = syncParentDir(Path); !S)
      return S;
  } else {
    Journal->Fd = ::open(Path.c_str(), O_WRONLY, 0644);
    if (Journal->Fd < 0)
      return Status::error(ErrCode::IoError, "cannot open " + Path + ": " +
                                                 std::strerror(errno));
    if (::ftruncate(Journal->Fd, static_cast<off_t>(KeepBytes)) != 0)
      return Status::error(ErrCode::IoError, "truncate " + Path + ": " +
                                                 std::strerror(errno));
    if (::lseek(Journal->Fd, 0, SEEK_END) < 0)
      return Status::error(ErrCode::IoError, "seek " + Path + ": " +
                                                 std::strerror(errno));
  }
  return Journal;
#endif
}

HistoryJournal::~HistoryJournal() {
  (void)flush();
#ifndef _WIN32
  LockGuard Io(IoMutex);
  if (Fd >= 0)
    ::close(Fd);
  Fd = -1;
#endif
}

// Hot-path exception (DESIGN.md §14): journaling is opt-in durability.
// enqueue() encodes the frame straight into the pending batch under the
// leaf buffer lock and never touches the file; the batch buffers are
// reused across flushes, so a warm journal appends without allocating.
// Invocations without a journal never get here (journalRecord gates on
// the Journal pointer).
// ecas-hotpath: allow(alloc, lock)
void HistoryJournal::enqueue(const HistoryDeltaRecord &Rec) {
  if (Rec.empty())
    return;
  size_t FrameBytes = 0;
  {
    LockGuard Lock(BufferMutex);
    size_t Before = Pending.size();
    encodeDeltaFrame(Pending, Rec);
    FrameBytes = Pending.size() - Before;
    if (++PendingRecords >= Options.GroupCommitRecords ||
        Pending.size() >= Options.GroupCommitBytes)
      GroupFull.store(true, std::memory_order_release);
  }
  AppendCount.fetch_add(1, std::memory_order_relaxed);
  AppendedBytes.fetch_add(FrameBytes, std::memory_order_relaxed);
  if (Metrics.Appends)
    Metrics.Appends->add();
  if (Metrics.Bytes)
    Metrics.Bytes->add(FrameBytes);
}

// Hot-path exception (DESIGN.md §14): the group-commit flush is the
// documented blocking cost of opt-in durability — it takes the IO
// mutex and calls write/fsync when the pending batch crosses the
// group-commit threshold. Journal-less schedulers never reach it.
// ecas-hotpath: allow(io, alloc, lock, extern-call)
Status HistoryJournal::maybeFlush() {
  if (!GroupFull.load(std::memory_order_acquire))
    return Status::success();
  return flush();
}

Status HistoryJournal::flush() {
  LockGuard Io(IoMutex);
  return flushLocked();
}

Status HistoryJournal::flushLocked() {
  {
    LockGuard Lock(BufferMutex);
    Batch.swap(Pending);
    PendingRecords = 0;
    GroupFull.store(false, std::memory_order_relaxed);
  }
  Status S = writeBatch();
  // Keep the capacity: the next flush hands this buffer back to enqueue.
  Batch.clear();
  return S;
}

Status HistoryJournal::writeBatch() {
#ifdef _WIN32
  return Status::success();
#else
  if (Batch.empty())
    return Status::success();
  if (Fd < 0)
    return Status::error(ErrCode::IoError, "journal file is closed");
  ECAS_CRASHPOINT("journal.flush.before-write");
  // An injected fault here is *silent*: a short write models the pages
  // a power cut never committed (the torn tail recovery truncates at),
  // a bit flip models media corruption (the frame CRC catches it).
  if (StorageFaultInjector *Injector = storageFaultInjector())
    Injector->mangle(Batch);
  size_t Written = 0;
  while (Written < Batch.size()) {
    ssize_t N = ::write(Fd, Batch.data() + Written, Batch.size() - Written);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return Status::error(ErrCode::IoError,
                           "journal write to " + Options.Path + ": " +
                               std::strerror(errno));
    }
    Written += static_cast<size_t>(N);
  }
  ECAS_CRASHPOINT("journal.flush.after-write");
  if (Options.SyncOnFlush && ::fsync(Fd) != 0)
    return Status::error(ErrCode::IoError, "fsync " + Options.Path + ": " +
                                               std::strerror(errno));
  ECAS_CRASHPOINT("journal.flush.after-sync");
  FlushCount.fetch_add(1, std::memory_order_relaxed);
  return Status::success();
#endif
}

Status HistoryJournal::reset(uint64_t NewEpoch) {
#ifdef _WIN32
  return Status::success();
#else
  LockGuard Io(IoMutex);
  {
    // Compaction committed everything enqueued before it read the
    // table; anything still pending was enqueued concurrently and is in
    // the table the new snapshot serialized, so dropping it is correct
    // (replaying it would double-apply).
    LockGuard Lock(BufferMutex);
    Pending.clear();
    PendingRecords = 0;
    GroupFull.store(false, std::memory_order_relaxed);
  }
  if (Fd >= 0)
    ::close(Fd);
  Fd = -1;
  if (Status S = writeFileAtomic(Options.Path, encodeJournalHeader(NewEpoch));
      !S)
    return S;
  Fd = ::open(Options.Path.c_str(), O_WRONLY | O_APPEND, 0644);
  if (Fd < 0)
    return Status::error(ErrCode::IoError, "cannot reopen " + Options.Path +
                                               ": " + std::strerror(errno));
  Epoch.store(NewEpoch, std::memory_order_release);
  return Status::success();
#endif
}

HistoryJournal::Stats HistoryJournal::stats() const {
  Stats S;
  S.Appends = AppendCount.load(std::memory_order_relaxed);
  S.AppendedBytes = AppendedBytes.load(std::memory_order_relaxed);
  S.Flushes = FlushCount.load(std::memory_order_relaxed);
  return S;
}
