//===-- ecas/core/HistorySnapshot.h - Durable table-G snapshots *- C++ -*-===//
//
// Part of the ecas project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Versioned binary persistence for the table G, making the paper's
/// one-time-characterization + accumulated-history design (Fig. 7) hold
/// across process restarts: learned sample-weighted alphas survive a
/// crash and a restarted scheduler resumes from the last good snapshot.
///
/// File format (all integers and doubles little-endian):
///
///   offset  size  field
///   0       8     magic "ECASTBLG"
///   8       4     u32 format version (currently 3)
///   12      8     u64 record count
///   20      4     u32 CRC-32 of the payload
///   24      ...   payload: u64 journal epoch, then count x 116-byte
///                 records
///
/// Each record: u64 kernel id; f64 alpha weighted-sum, f64 alpha total
/// weight; u32 class index, u8 cpu-only, u8 confident, u8 launch-failed,
/// u8 hung; u32 invocations, u32 quarantined runs; then the accumulated
/// ProfileSample as 9 f64 (cpu/gpu throughput, cpu/gpu iterations,
/// elapsed, cpu/gpu busy seconds, miss ratio, instructions); the chosen
/// P-state as a trailing u32.
///
/// The epoch ties a snapshot to its write-ahead journal (DESIGN.md
/// §13): a snapshot at epoch E plus a journal at epoch E reproduce the
/// live table; a journal whose epoch is below the snapshot's has
/// already been compacted in and must not be replayed twice.
///
/// Writes go through support/AtomicFile (temp + fsync + rename +
/// parent-dir fsync), so a crash mid-write leaves either the previous
/// snapshot or the new one — never a torn destination, and never a
/// rename the filesystem forgets. Loads verify magic, version, declared
/// size, and CRC; any mismatch returns a recoverable Status and the
/// caller degrades to a cold table instead of aborting. Only the current
/// version is read: an older file is a VersionMismatch, and the next
/// write (recovery's compaction, or shutdown) replaces it.
///
//===----------------------------------------------------------------------===//

#ifndef ECAS_CORE_HISTORYSNAPSHOT_H
#define ECAS_CORE_HISTORYSNAPSHOT_H

#include "ecas/core/KernelHistory.h"
#include "ecas/support/Error.h"

#include <string>
#include <string_view>

namespace ecas {

/// The snapshot format version this build writes and reads. v2 added
/// the journal epoch as the first payload field; v3 widened each record
/// by a trailing u32 P-state for the joint (alpha, f) decision core.
inline constexpr uint32_t HistorySnapshotVersion = 3;

/// Serializes a consistent copy of \p History into the snapshot byte
/// format (header + CRC-checked payload), stamped with \p Epoch.
std::string serializeKernelHistory(const KernelHistory &History,
                                   uint64_t Epoch = 0);

/// Parses \p Bytes into \p History, replacing its contents. On any
/// error (bad magic, truncation, version mismatch, CRC failure) the
/// table is left cleared — a cold start — and the Status says why.
/// \p EpochOut, when non-null, receives the stored journal epoch
/// (0 on error). \returns the number of records restored.
ErrorOr<size_t> deserializeKernelHistory(KernelHistory &History,
                                         std::string_view Bytes,
                                         uint64_t *EpochOut = nullptr);

/// Atomically writes \p History to \p Path at \p Epoch (temp file +
/// fsync + rename + parent-dir fsync via support/AtomicFile).
Status saveKernelHistory(const KernelHistory &History,
                         const std::string &Path, uint64_t Epoch = 0);

/// Loads \p Path into \p History. A missing file is a cold start, not an
/// error: returns 0 records loaded. Corruption, truncation, and version
/// mismatches return the error Status with the table left cold.
/// \p EpochOut, when non-null, receives the stored epoch (0 when the
/// file is missing or bad). \returns the number of records restored.
ErrorOr<size_t> loadKernelHistory(KernelHistory &History,
                                  const std::string &Path,
                                  uint64_t *EpochOut = nullptr);

} // namespace ecas

#endif // ECAS_CORE_HISTORYSNAPSHOT_H
