//===-- ecas/core/HistorySnapshot.cpp - Durable table-G snapshots ---------===//
//
// Part of the ecas project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "ecas/core/HistorySnapshot.h"

#include "ecas/core/HistoryCodec.h"
#include "ecas/support/AtomicFile.h"
#include "ecas/support/Crc32.h"

#include <cstring>
#include <vector>

using namespace ecas;
using namespace ecas::history_codec;

namespace {

constexpr char Magic[8] = {'E', 'C', 'A', 'S', 'T', 'B', 'L', 'G'};
constexpr size_t HeaderBytes = 24;
constexpr size_t EpochBytes = 8;
constexpr size_t RecordBytes = 116;

void encodeRecord(std::string &Out, uint64_t Key, const KernelRecord &Rec) {
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
  putF64(Out, Rec.Sample.CpuThroughput);
  putF64(Out, Rec.Sample.GpuThroughput);
  putF64(Out, Rec.Sample.CpuIterations);
  putF64(Out, Rec.Sample.GpuIterations);
  putF64(Out, Rec.Sample.ElapsedSeconds);
  putF64(Out, Rec.Sample.CpuBusySeconds);
  putF64(Out, Rec.Sample.GpuBusySeconds);
  putF64(Out, Rec.Sample.MissPerLoadStore);
  putF64(Out, Rec.Sample.InstructionsRetired);
  putU32(Out, Rec.PState);
}

std::pair<uint64_t, KernelRecord> decodeRecord(const unsigned char *P) {
  KernelRecord Rec;
  uint64_t Key = getU64(P);
  Rec.Alpha = SampleWeightedAlpha::fromParts(getF64(P + 8), getF64(P + 16));
  Rec.Class = WorkloadClass::fromIndex(getU32(P + 24) %
                                       WorkloadClass::NumClasses);
  Rec.CpuOnly = P[28] != 0;
  Rec.Confident = P[29] != 0;
  Rec.Sample.GpuLaunchFailed = P[30] != 0;
  Rec.Sample.GpuHung = P[31] != 0;
  Rec.Invocations = getU32(P + 32);
  Rec.QuarantinedRuns = getU32(P + 36);
  Rec.Sample.CpuThroughput = getF64(P + 40);
  Rec.Sample.GpuThroughput = getF64(P + 48);
  Rec.Sample.CpuIterations = getF64(P + 56);
  Rec.Sample.GpuIterations = getF64(P + 64);
  Rec.Sample.ElapsedSeconds = getF64(P + 72);
  Rec.Sample.CpuBusySeconds = getF64(P + 80);
  Rec.Sample.GpuBusySeconds = getF64(P + 88);
  Rec.Sample.MissPerLoadStore = getF64(P + 96);
  Rec.Sample.InstructionsRetired = getF64(P + 104);
  Rec.PState = getU32(P + 112);
  return {Key, Rec};
}

} // namespace

std::string ecas::serializeKernelHistory(const KernelHistory &History,
                                         uint64_t Epoch) {
  std::vector<std::pair<uint64_t, KernelRecord>> Entries = History.entries();
  std::string Payload;
  Payload.reserve(EpochBytes + Entries.size() * RecordBytes);
  putU64(Payload, Epoch);
  for (const auto &[Key, Rec] : Entries)
    encodeRecord(Payload, Key, Rec);

  std::string Out;
  Out.reserve(HeaderBytes + Payload.size());
  Out.append(Magic, sizeof(Magic));
  putU32(Out, HistorySnapshotVersion);
  putU64(Out, Entries.size());
  putU32(Out, crc32(Payload.data(), Payload.size()));
  Out += Payload;
  return Out;
}

ErrorOr<size_t> ecas::deserializeKernelHistory(KernelHistory &History,
                                               std::string_view Bytes,
                                               uint64_t *EpochOut) {
  History.clear();
  if (EpochOut)
    *EpochOut = 0;
  if (Bytes.size() < HeaderBytes)
    return Status::error(ErrCode::Truncated,
                         "snapshot smaller than its 24-byte header (" +
                             std::to_string(Bytes.size()) + " bytes)");
  const auto *P = reinterpret_cast<const unsigned char *>(Bytes.data());
  if (std::memcmp(P, Magic, sizeof(Magic)) != 0)
    return Status::error(ErrCode::CorruptData,
                         "snapshot magic mismatch (not a table-G file)");
  uint32_t Version = getU32(P + 8);
  if (Version != HistorySnapshotVersion)
    return Status::error(ErrCode::VersionMismatch,
                         "snapshot format v" + std::to_string(Version) +
                             ", this build reads v" +
                             std::to_string(HistorySnapshotVersion));
  uint64_t CountField = getU64(P + 12);
  uint32_t ExpectedCrc = getU32(P + 20);
  size_t PayloadSize = Bytes.size() - HeaderBytes;
  // The count field is not CRC-covered (the CRC spans the payload), so
  // bound it before the multiplication: a flipped high bit would wrap
  // CountField * RecordBytes past 2^64, slip through the equality, and
  // turn the reserve() below into an unhandled length_error.
  if (CountField > PayloadSize / RecordBytes ||
      PayloadSize != EpochBytes + CountField * RecordBytes)
    return Status::error(
        ErrCode::Truncated,
        "snapshot declares " + std::to_string(CountField) + " records (" +
            std::to_string(EpochBytes + CountField * RecordBytes) +
            " payload bytes) but " +
            std::to_string(Bytes.size() - HeaderBytes) + " are present");
  uint32_t ActualCrc =
      crc32(P + HeaderBytes, Bytes.size() - HeaderBytes);
  if (ActualCrc != ExpectedCrc)
    return Status::error(ErrCode::CorruptData,
                         "snapshot payload CRC mismatch (stored " +
                             std::to_string(ExpectedCrc) + ", computed " +
                             std::to_string(ActualCrc) + ")");
  if (EpochOut)
    *EpochOut = getU64(P + HeaderBytes);

  const unsigned char *Records = P + HeaderBytes + EpochBytes;
  std::vector<std::pair<uint64_t, KernelRecord>> Entries;
  Entries.reserve(CountField);
  for (uint64_t I = 0; I != CountField; ++I)
    Entries.push_back(decodeRecord(Records + I * RecordBytes));
  History.restore(Entries);
  return Entries.size();
}

Status ecas::saveKernelHistory(const KernelHistory &History,
                               const std::string &Path, uint64_t Epoch) {
  return writeFileAtomic(Path, serializeKernelHistory(History, Epoch));
}

ErrorOr<size_t> ecas::loadKernelHistory(KernelHistory &History,
                                        const std::string &Path,
                                        uint64_t *EpochOut) {
  if (EpochOut)
    *EpochOut = 0;
  std::string Bytes;
  bool Existed = false;
  if (Status S = readFileBytes(Path, Bytes, Existed); !S) {
    History.clear();
    return S;
  }
  if (!Existed) {
    // No snapshot yet: a cold start, not a failure.
    History.clear();
    return size_t{0};
  }
  ErrorOr<size_t> Result = deserializeKernelHistory(History, Bytes, EpochOut);
  if (!Result)
    return Status::error(Result.status().code(),
                         Path + ": " + Result.status().message());
  return Result;
}
