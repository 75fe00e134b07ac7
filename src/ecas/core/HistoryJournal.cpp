//===-- ecas/core/HistoryJournal.cpp - The durable table-G file -----------===//
//
// Part of the ecas project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "ecas/core/HistoryJournal.h"

#include "ecas/support/AtomicFile.h"
#include "ecas/support/Crc32.h"
#include "ecas/support/CrashPoint.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>

#include <fcntl.h>
#include <unistd.h>

using namespace ecas;

namespace {

constexpr char Magic[8] = {'E', 'C', 'A', 'S', 'T', 'B', 'L', 'G'};
constexpr size_t HeaderBytes = 32;
/// The header CRC covers version, generation and base-record count.
constexpr size_t HeaderCrcOffset = 8, HeaderCrcBytes = 20;
constexpr size_t FrameHeaderBytes = 8;
constexpr size_t BaseRecordBytes = 116;
/// Fixed part of a delta payload (everything but the merged sample).
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

/// Semantic bound for a decoded P-state (mirrors core/OperatingPoint.h
/// kMaxPStates without pulling the decision core into the codec).
constexpr uint32_t MaxPStateIndex = 8;

void putU32(std::string &Out, uint32_t V) {
  for (int I = 0; I != 4; ++I)
    Out.push_back(static_cast<char>((V >> (8 * I)) & 0xffu));
}

void putU64(std::string &Out, uint64_t V) {
  for (int I = 0; I != 8; ++I)
    Out.push_back(static_cast<char>((V >> (8 * I)) & 0xffu));
}

void putF64(std::string &Out, double V) {
  uint64_t Bits;
  static_assert(sizeof(Bits) == sizeof(V));
  std::memcpy(&Bits, &V, sizeof(Bits));
  putU64(Out, Bits);
}

uint32_t getU32(const unsigned char *P) {
  uint32_t V = 0;
  for (int I = 0; I != 4; ++I)
    V |= static_cast<uint32_t>(P[I]) << (8 * I);
  return V;
}

uint64_t getU64(const unsigned char *P) {
  uint64_t V = 0;
  for (int I = 0; I != 8; ++I)
    V |= static_cast<uint64_t>(P[I]) << (8 * I);
  return V;
}

double getF64(const unsigned char *P) {
  uint64_t Bits = getU64(P);
  double V;
  std::memcpy(&V, &Bits, sizeof(V));
  return V;
}

/// Overwrites the four bytes at \p P with \p V, little-endian.
void storeU32(char *P, uint32_t V) {
  for (int I = 0; I != 4; ++I)
    P[I] = static_cast<char>((V >> (8 * I)) & 0xffu);
}

/// Appends one frame whose payload \p Fn appends to \p Out: the frame
/// header is reserved first and filled in after, so there is no
/// temporary payload string.
template <typename EncodeFn> void appendFrame(std::string &Out, EncodeFn Fn) {
  size_t Frame = Out.size();
  Out.append(FrameHeaderBytes, '\0');
  Fn(Out);
  char *Header = Out.data() + Frame;
  size_t PayloadBytes = Out.size() - Frame - FrameHeaderBytes;
  storeU32(Header, static_cast<uint32_t>(PayloadBytes));
  storeU32(Header + 4, crc32(Header + FrameHeaderBytes, PayloadBytes));
}

void encodeHeader(std::string &Out, uint64_t Generation, uint64_t Count) {
  Out.append(Magic, sizeof(Magic));
  putU32(Out, HistoryFileVersion);
  putU64(Out, Generation);
  putU64(Out, Count);
  putU32(Out, crc32(Out.data() + Out.size() - HeaderCrcBytes, HeaderCrcBytes));
}

/// The nine measured values of a sample, without its fault flags.
void putSampleValues(std::string &Out, const ProfileSample &S) {
  putF64(Out, S.CpuThroughput);
  putF64(Out, S.GpuThroughput);
  putF64(Out, S.CpuIterations);
  putF64(Out, S.GpuIterations);
  putF64(Out, S.ElapsedSeconds);
  putF64(Out, S.CpuBusySeconds);
  putF64(Out, S.GpuBusySeconds);
  putF64(Out, S.MissPerLoadStore);
  putF64(Out, S.InstructionsRetired);
}

void getSampleValues(const unsigned char *P, ProfileSample &S) {
  S.CpuThroughput = getF64(P);
  S.GpuThroughput = getF64(P + 8);
  S.CpuIterations = getF64(P + 16);
  S.GpuIterations = getF64(P + 24);
  S.ElapsedSeconds = getF64(P + 32);
  S.CpuBusySeconds = getF64(P + 40);
  S.GpuBusySeconds = getF64(P + 48);
  S.MissPerLoadStore = getF64(P + 56);
  S.InstructionsRetired = getF64(P + 64);
}

void encodeSample(std::string &Out, const ProfileSample &S) {
  putSampleValues(Out, S);
  Out.push_back(static_cast<char>(S.GpuLaunchFailed ? 1 : 0));
  Out.push_back(static_cast<char>(S.GpuHung ? 1 : 0));
}

ProfileSample decodeSample(const unsigned char *P) {
  ProfileSample S;
  getSampleValues(P, S);
  S.GpuLaunchFailed = P[72] != 0;
  S.GpuHung = P[73] != 0;
  return S;
}

void encodeBasePayload(std::string &Out, uint64_t Key,
                       const KernelRecord &Rec) {
  putU64(Out, Key);
  putF64(Out, Rec.Alpha.weightedSum());
  putF64(Out, Rec.Alpha.totalWeight());
  putU32(Out, Rec.Class.index());
  Out.push_back(static_cast<char>(Rec.CpuOnly ? 1 : 0));
  Out.push_back(static_cast<char>(Rec.Confident ? 1 : 0));
  Out.push_back(static_cast<char>(Rec.Sample.GpuLaunchFailed ? 1 : 0));
  Out.push_back(static_cast<char>(Rec.Sample.GpuHung ? 1 : 0));
  putU32(Out, Rec.Invocations);
  putU32(Out, Rec.QuarantinedRuns);
  putSampleValues(Out, Rec.Sample);
  putU32(Out, Rec.PState);
}

/// Validates like decodeDeltaPayload, so a CRC-valid but malformed base
/// record (a negative or NaN alpha weight, an out-of-range class) is a
/// tear instead of an ECAS_CHECK abort in SampleWeightedAlpha::fromParts.
bool decodeBasePayload(std::string_view Payload, uint64_t &Key,
                       KernelRecord &Rec) {
  if (Payload.size() != BaseRecordBytes)
    return false;
  const auto *P = reinterpret_cast<const unsigned char *>(Payload.data());
  Key = getU64(P);
  double WeightedSum = getF64(P + 8);
  double TotalWeight = getF64(P + 16);
  uint32_t ClassIndex = getU32(P + 24);
  uint32_t PState = getU32(P + 112);
  if (Key == 0 || !std::isfinite(WeightedSum) ||
      !std::isfinite(TotalWeight) || TotalWeight < 0.0 ||
      ClassIndex >= WorkloadClass::NumClasses || PState >= MaxPStateIndex ||
      std::any_of(P + 28, P + 32, [](unsigned char B) { return B > 1; }))
    return false;
  Rec.Alpha = SampleWeightedAlpha::fromParts(WeightedSum, TotalWeight);
  Rec.Class = WorkloadClass::fromIndex(ClassIndex);
  Rec.CpuOnly = P[28] != 0;
  Rec.Confident = P[29] != 0;
  Rec.Sample.GpuLaunchFailed = P[30] != 0;
  Rec.Sample.GpuHung = P[31] != 0;
  Rec.Invocations = getU32(P + 32);
  Rec.QuarantinedRuns = getU32(P + 36);
  getSampleValues(P + 40, Rec.Sample);
  Rec.PState = PState;
  return true;
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

/// Why \p Bytes does not open with a current-version header, or success.
Status checkHeader(std::string_view Bytes) {
  const auto *P = reinterpret_cast<const unsigned char *>(Bytes.data());
  if (Bytes.size() < HeaderBytes)
    return Status::error(ErrCode::Truncated,
                         "table-G file smaller than its 32-byte header (" +
                             std::to_string(Bytes.size()) + " bytes)");
  if (std::memcmp(P, Magic, sizeof(Magic)) != 0)
    return Status::error(ErrCode::CorruptData,
                         "magic mismatch (not a table-G file)");
  if (uint32_t Version = getU32(P + 8); Version != HistoryFileVersion)
    return Status::error(ErrCode::VersionMismatch,
                         "table-G format v" + std::to_string(Version) +
                             ", this build reads v" +
                             std::to_string(HistoryFileVersion));
  if (crc32(P + HeaderCrcOffset, HeaderCrcBytes) != getU32(P + 28))
    return Status::error(ErrCode::CorruptData, "header CRC mismatch");
  return Status::success();
}

/// Reads the frame at \p Off into \p Payload, checking its length and
/// CRC. \returns why the frame is torn, or success.
Status readFrame(std::string_view Bytes, size_t Off,
                 std::string_view &Payload) {
  const auto *P = reinterpret_cast<const unsigned char *>(Bytes.data()) + Off;
  size_t Left = Bytes.size() - Off;
  if (Left < FrameHeaderBytes)
    return Status::error(ErrCode::Truncated,
                         "torn frame header at offset " +
                             std::to_string(Off) + " (" +
                             std::to_string(Left) + " trailing bytes)");
  uint32_t Len = getU32(P);
  if (Len == 0 || Len > MaxFrameBytes || Left - FrameHeaderBytes < Len)
    return Status::error(ErrCode::Truncated,
                         "torn frame at offset " + std::to_string(Off) +
                             " (declares " + std::to_string(Len) +
                             " payload bytes)");
  Payload = Bytes.substr(Off + FrameHeaderBytes, Len);
  if (crc32(Payload.data(), Payload.size()) != getU32(P + 4))
    return Status::error(ErrCode::CorruptData,
                         "frame CRC mismatch at offset " +
                             std::to_string(Off));
  return Status::success();
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

std::string ecas::encodeHistoryFile(const KernelHistory &History,
                                    uint64_t Generation) {
  std::vector<std::pair<uint64_t, KernelRecord>> Entries = History.entries();
  std::string Out;
  Out.reserve(HeaderBytes +
              Entries.size() * (FrameHeaderBytes + BaseRecordBytes));
  encodeHeader(Out, Generation, Entries.size());
  for (const auto &[Key, Rec] : Entries)
    appendFrame(Out, [&](std::string &Payload) {
      encodeBasePayload(Payload, Key, Rec);
    });
  return Out;
}

Status ecas::writeHistoryFile(const KernelHistory &History,
                              const std::string &Path, uint64_t Generation) {
  return writeFileAtomic(Path, encodeHistoryFile(History, Generation));
}

void ecas::encodeDeltaFrame(std::string &Out, const HistoryDeltaRecord &Rec) {
  appendFrame(Out, [&Rec](std::string &Payload) {
    encodeDeltaPayload(Payload, Rec);
  });
}

HistoryFileScan ecas::scanHistoryFile(std::string_view Bytes) {
  HistoryFileScan Scan;
  auto Tear = [&Scan](Status Why, size_t Lost) {
    Scan.Torn = true;
    Scan.TruncatedRecords = Lost;
    Scan.Error = std::move(Why);
  };
  if (Status S = checkHeader(Bytes); !S) {
    Tear(std::move(S), 0);
    return Scan;
  }
  const auto *P = reinterpret_cast<const unsigned char *>(Bytes.data());
  Scan.HeaderValid = true;
  Scan.Generation = getU64(P + 12);
  Scan.BaseCount = getU64(P + 20);
  Scan.ValidBytes = HeaderBytes;

  // The count is CRC-covered but still bounded by the bytes present
  // before anything is reserved: a file cut short must not turn its
  // declared count into an unhandled length_error.
  size_t Off = HeaderBytes;
  Scan.Base.reserve(std::min<uint64_t>(
      Scan.BaseCount,
      (Bytes.size() - Off) / (FrameHeaderBytes + BaseRecordBytes)));
  // The first BaseCount frames are base records, the rest deltas. A tear
  // in the base image loses the records it declares after the tear.
  while (Off < Bytes.size()) {
    bool InBase = Scan.Base.size() < Scan.BaseCount;
    std::string_view Payload;
    Status S = readFrame(Bytes, Off, Payload);
    if (S && InBase) {
      std::pair<uint64_t, KernelRecord> Entry;
      if (decodeBasePayload(Payload, Entry.first, Entry.second))
        Scan.Base.push_back(std::move(Entry));
      else
        S = Status::error(ErrCode::CorruptData,
                          "malformed base record at offset " +
                              std::to_string(Off));
    } else if (S) {
      HistoryDeltaRecord Rec;
      if (decodeDeltaPayload(Payload, Rec))
        Scan.Deltas.push_back(std::move(Rec));
      else
        S = Status::error(ErrCode::CorruptData,
                          "malformed delta record at offset " +
                              std::to_string(Off));
    }
    if (!S) {
      Tear(std::move(S), InBase ? Scan.BaseCount - Scan.Base.size() : 1);
      return Scan;
    }
    Off += FrameHeaderBytes + Payload.size();
    Scan.ValidBytes = Off;
  }
  if (Scan.Base.size() < Scan.BaseCount)
    Tear(Status::error(ErrCode::Truncated,
                       "file ends after " + std::to_string(Scan.Base.size()) +
                           " of " + std::to_string(Scan.BaseCount) +
                           " base records"),
         Scan.BaseCount - Scan.Base.size());
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
                                          const std::string &Path,
                                          bool Compact) {
  RecoveryReport Report;
  std::chrono::steady_clock::time_point Start =
      std::chrono::steady_clock::now();

  // One read, one scan: restore the base image, replay the deltas after
  // it. A missing file is a cold start; an unreadable one degrades to
  // whatever came before the tear, with the status saying why.
  HistoryFileScan Scan;
  bool Existed = false;
  {
    std::string Bytes;
    if (Status Read = readFileBytes(Path, Bytes, Existed); !Read)
      Report.ReadStatus = Read;
    else if (Existed)
      Scan = scanHistoryFile(Bytes);
  }
  if (!Scan.Error.ok())
    Report.ReadStatus = Status::error(Scan.Error.code(),
                                      Path + ": " + Scan.Error.message());
  History.restore(Scan.Base);
  for (const HistoryDeltaRecord &Rec : Scan.Deltas)
    applyDeltaRecord(History, Rec);
  Report.BaseRecords = Scan.Base.size();
  Report.ReplayedRecords = Scan.Deltas.size();
  Report.Records = History.size();
  Report.TruncatedRecords = Scan.TruncatedRecords;
  Report.Generation = Scan.Generation;
  ECAS_CRASHPOINT("recovery.after-replay");

  // Classify before compaction: compaction failures are reported via
  // CompactStatus, not by downgrading what recovery found.
  if (!Report.ReadStatus.ok())
    Report.Outcome = RecoveryOutcome::Truncated;
  else if (!Existed)
    Report.Outcome = RecoveryOutcome::Cold;
  else if (Report.ReplayedRecords > 0)
    Report.Outcome = RecoveryOutcome::Replayed;
  else
    Report.Outcome = RecoveryOutcome::Clean;

  // Compact: one atomic rewrite. A crash before the rename leaves the
  // old file, deltas and all; after it, the new base image alone. No
  // state holds a delta both in a base image and after it.
  if (Compact) {
    Report.CompactStatus =
        writeHistoryFile(History, Path, ++Report.Generation);
    ECAS_CRASHPOINT("recovery.after-compact");
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
HistoryJournal::open(JournalOptions Options, uint64_t Generation) {
  if (Options.Path.empty())
    return Status::error(ErrCode::InvalidArgument, "empty journal path");
  if (Options.GroupCommitRecords == 0)
    return Status::error(ErrCode::InvalidArgument,
                         "zero group-commit record threshold (1 means "
                         "per-record commit)");
  std::string Existing;
  bool Existed = false;
  if (Status S = readFileBytes(Options.Path, Existing, Existed); !S)
    return S;
  size_t KeepBytes = 0;
  if (Existed && !Existing.empty()) {
    HistoryFileScan Scan = scanHistoryFile(Existing);
    if (!Scan.HeaderValid || Scan.Base.size() != Scan.BaseCount)
      return Status::error(Scan.Error.code(),
                           Options.Path + ": " + Scan.Error.message() +
                               " (recover before opening)");
    if (Scan.Generation != Generation)
      return Status::error(
          ErrCode::VersionMismatch,
          Options.Path + ": generation " + std::to_string(Scan.Generation) +
              " does not match recovery generation " +
              std::to_string(Generation) + " (recover before opening)");
    // A torn tail from the previous crash must not bury new appends
    // behind unparseable bytes: drop it, keep the valid prefix.
    KeepBytes = Scan.ValidBytes;
  }

  std::unique_ptr<HistoryJournal> Journal(
      new HistoryJournal(std::move(Options), Generation));
  const std::string &Path = Journal->Options.Path;
  LockGuard Io(Journal->IoMutex);
  if (!Existed || Existing.empty()) {
    Journal->Fd = ::open(Path.c_str(), O_CREAT | O_WRONLY | O_TRUNC, 0644);
    if (Journal->Fd < 0)
      return Status::error(ErrCode::IoError, "cannot create " + Path + ": " +
                                                 std::strerror(errno));
    std::string Header;
    encodeHeader(Header, Generation, 0);
    if (::write(Journal->Fd, Header.data(), Header.size()) !=
        static_cast<ssize_t>(Header.size()))
      return Status::error(ErrCode::IoError, "short header write to " + Path);
    if (::fsync(Journal->Fd) != 0)
      return Status::error(ErrCode::IoError, "fsync " + Path + ": " +
                                                 std::strerror(errno));
    // The file *name* must survive a crash too, or recovery cannot tell
    // loss from first boot.
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
}

HistoryJournal::~HistoryJournal() {
  (void)flush();
  LockGuard Io(IoMutex);
  if (Fd >= 0)
    ::close(Fd);
  Fd = -1;
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
  if (Batch.empty())
    return Status::success();
  if (Fd < 0)
    return Status::error(ErrCode::IoError, "journal file is closed");
  ECAS_CRASHPOINT("journal.flush.before-write");
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
}

Status HistoryJournal::compact(const KernelHistory &History) {
  LockGuard Io(IoMutex);
  {
    // Every pending record's effect is already in the table the image
    // below serializes; appending it after the image would apply it
    // twice on replay.
    LockGuard Lock(BufferMutex);
    Pending.clear();
    PendingRecords = 0;
    GroupFull.store(false, std::memory_order_relaxed);
  }
  uint64_t Next = generation() + 1;
  if (Status S = writeHistoryFile(History, Options.Path, Next); !S)
    return S;
  // The descriptor still names the replaced file; reopen the new one.
  if (Fd >= 0)
    ::close(Fd);
  Fd = ::open(Options.Path.c_str(), O_WRONLY | O_APPEND, 0644);
  if (Fd < 0)
    return Status::error(ErrCode::IoError, "cannot reopen " + Options.Path +
                                               ": " + std::strerror(errno));
  Generation.store(Next, std::memory_order_release);
  return Status::success();
}

HistoryJournal::Stats HistoryJournal::stats() const {
  Stats S;
  S.Appends = AppendCount.load(std::memory_order_relaxed);
  S.AppendedBytes = AppendedBytes.load(std::memory_order_relaxed);
  S.Flushes = FlushCount.load(std::memory_order_relaxed);
  return S;
}
