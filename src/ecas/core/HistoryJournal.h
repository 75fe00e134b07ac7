//===-- ecas/core/HistoryJournal.h - The durable table-G file --*- C++ -*-===//
//
// Part of the ecas project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The crash-consistency layer for table G (DESIGN.md §13). Table G is
/// durable as one file: a compacted base image of the whole table, then
/// one CRC-framed delta record per table-G merge appended since,
/// group-committed off the hot path, so a kill -9 costs at most the
/// unflushed group-commit window.
///
/// File format (all integers and doubles little-endian):
///
///   header   magic "ECASTBLG" (8) + u32 version + u64 generation +
///            u64 base-record count + u32 CRC-32 of bytes [8, 28)  = 32 B
///   frame    u32 payload length + u32 CRC-32(payload) + payload
///
/// The first `count` frames are base records, every later frame is a
/// delta; frame position tells them apart. The header CRC covers the
/// count, so a file that ends after fewer base frames than it declares
/// is torn, not short.
///
///   base     u64 key; f64 alpha weighted-sum, f64 alpha total weight;
///            u32 class index, u8 cpu-only, u8 confident, u8
///            launch-failed, u8 hung; u32 invocations, u32 quarantined
///            runs; the accumulated ProfileSample as 9 f64 (cpu/gpu
///            throughput, cpu/gpu iterations, elapsed, cpu/gpu busy
///            seconds, miss ratio, instructions); u32 P-state   = 116 B
///   delta    u64 key; u32 invocations delta; u32 quarantined delta;
///            u8 flags (alpha-sample / cpu-only / became-confident /
///            class / pstate / merged-sample); u32 class index; f64
///            alpha value, f64 alpha weight; u32 pstate; u16 sample
///            count, always 0; then, when the merged-sample flag is
///            set, the merged ProfileSample as 9 f64 + 2 flag bytes
///
/// A base record keeps the alpha accumulator's raw sums, which one alpha
/// sample cannot reproduce bit for bit. A profiled merge journals its
/// resulting sample once, so a delta has a fixed size; its sample count
/// is a remnant of older versions and must be 0. Only this version is
/// read: recovery degrades an older file to a cold table and rewrites it.
///
/// Compaction rewrites the file as a base image through writeFileAtomic
/// and reopens it for appending. A crash leaves either the old file,
/// deltas and all, or the new one, so no delta is applied twice. The
/// generation counts compactions; open() refuses a file at another one.
///
/// Replay is order-exact: records whose effect does not commute are
/// enqueued inside the table-G shard-locked merge closure, so file order
/// equals live merge order per key (DESIGN.md §13).
///
//===----------------------------------------------------------------------===//

#ifndef ECAS_CORE_HISTORYJOURNAL_H
#define ECAS_CORE_HISTORYJOURNAL_H

#include "ecas/core/KernelHistory.h"
#include "ecas/obs/Metrics.h"
#include "ecas/support/Error.h"
#include "ecas/support/ThreadAnnotations.h"

#include <atomic>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace ecas {

/// The table-G file format version this build writes and reads. v4
/// folded the separate snapshot (v3) and journal (v3) files into one.
inline constexpr uint32_t HistoryFileVersion = 4;

/// Group-commit tunables, shared by JournalOptions and
/// EasConfig::Journal.
struct GroupCommitOptions {
  /// A batch is written (and fsynced) once it holds this many records…
  unsigned GroupCommitRecords = 32;
  /// …or this many bytes, whichever comes first. The unflushed window —
  /// the most a crash can lose — is bounded by both.
  size_t GroupCommitBytes = 64 * 1024;
  /// fsync each flushed batch. Off trades the durability statement down
  /// to "survives process death, not power loss".
  bool SyncOnFlush = true;
};

/// What HistoryJournal::open() needs: the table-G file and its tunables.
struct JournalOptions : GroupCommitOptions {
  std::string Path;
};

/// One table-G mutation, exactly as the merge path applied it. The
/// deltas are self-contained: replaying them in file order onto the
/// base image they follow reproduces the live table bit-for-bit.
struct HistoryDeltaRecord {
  uint64_t Key = 0;
  /// bumpInvocations / bumpQuarantinedRuns deltas (commutative).
  uint32_t InvocationsDelta = 0;
  uint32_t QuarantinedDelta = 0;
  /// The record's whole sample right after this merge accumulated its
  /// repetitions, taken under the shard lock. Replay assigns it, so
  /// file order alone makes replay exact.
  bool HasMergedSample = false;
  ProfileSample MergedSample;
  /// The merge crossed the confident threshold: set Confident and reset
  /// the alpha accumulator to empty *before* adding AlphaValue.
  bool BecameConfident = false;
  bool HasAlphaSample = false;
  double AlphaValue = 0.0;
  double AlphaWeight = 0.0;
  bool SetCpuOnly = false;
  bool HasClass = false;
  uint32_t ClassIndex = 0;
  /// The joint (alpha, f) search re-decided this kernel's P-state.
  bool HasPState = false;
  uint32_t PState = 0;

  /// True when the delta changes the record itself, not just counters.
  bool hasRecordFields() const {
    return HasMergedSample || BecameConfident || HasAlphaSample ||
           SetCpuOnly || HasClass || HasPState;
  }
  bool empty() const {
    return InvocationsDelta == 0 && QuarantinedDelta == 0 &&
           !hasRecordFields();
  }
};

/// Applies \p Rec's record fields (not its counters) to \p R: the merged
/// sample, the confident transition, the alpha sample, class, CpuOnly
/// and P-state, in that order. The scheduler's live merge closure
/// applies its delta through this function under the shard lock, and
/// replay does too, so the two cannot drift.
void applyDeltaFields(KernelRecord &R, const HistoryDeltaRecord &Rec);

/// Applies one delta to \p History: its record fields through
/// applyDeltaFields() under KernelHistory::update(), then its counter
/// bumps. Replay and the scheduler's CPU-alone paths use it.
void applyDeltaRecord(KernelHistory &History, const HistoryDeltaRecord &Rec);

/// Serializes a compacted table-G file: the header at \p Generation,
/// then one base frame per record of \p History.
std::string encodeHistoryFile(const KernelHistory &History,
                              uint64_t Generation);

/// The one writer of table-G base images: atomically replaces \p Path
/// with encodeHistoryFile(History, Generation) (temp file + fsync +
/// rename + parent-dir fsync via support/AtomicFile).
Status writeHistoryFile(const KernelHistory &History, const std::string &Path,
                        uint64_t Generation);

/// Appends one CRC-framed delta to \p Out, encoding in place: no
/// temporary buffers, so appending into a buffer with spare capacity
/// does not allocate.
void encodeDeltaFrame(std::string &Out, const HistoryDeltaRecord &Rec);

/// What a full parse of a table-G file's bytes found. Parsing stops at
/// the first torn, corrupt or malformed frame — everything before it is
/// trustworthy, everything at and after it is discarded.
struct HistoryFileScan {
  /// Header parsed successfully; the fields below it are meaningful.
  bool HeaderValid = false;
  uint64_t Generation = 0;
  /// Base records the header declares.
  uint64_t BaseCount = 0;
  /// The base frames read, in file order (fewer than BaseCount only
  /// when the scan tore inside the base image).
  std::vector<std::pair<uint64_t, KernelRecord>> Base;
  /// The delta frames read after the base image, in file order.
  std::vector<HistoryDeltaRecord> Deltas;
  /// Parsing stopped before a clean end of the bytes.
  bool Torn = false;
  /// Records lost at the tear: the missing base records when it lies in
  /// the base image, the one frame at the tear when it lies among the
  /// deltas (bytes beyond it cannot be framed reliably).
  size_t TruncatedRecords = 0;
  /// Bytes of valid prefix (header + intact frames); a repair truncates
  /// the file to this length.
  size_t ValidBytes = 0;
  /// Why parsing stopped (success at a clean end of the bytes).
  Status Error = Status::success();
};

/// Pure parser (no IO), shared by recovery, HistoryJournal::open and the
/// corruption-matrix fuzz: any byte mutation must yield a torn scan,
/// never a crash.
HistoryFileScan scanHistoryFile(std::string_view Bytes);

/// How a recovery found the on-disk state.
enum class RecoveryOutcome {
  /// The base image loaded and no deltas followed it: nothing lost,
  /// nothing to replay.
  Clean,
  /// Delta records were replayed on top of the base image.
  Replayed,
  /// Data was lost: the file was torn, corrupt, unreadable or of
  /// another version, and the table holds what came before the tear.
  Truncated,
  /// No prior state existed (first boot).
  Cold,
};

const char *recoveryOutcomeName(RecoveryOutcome Outcome);

/// Everything recoverKernelHistory() did, for logs and metrics.
struct RecoveryReport {
  RecoveryOutcome Outcome = RecoveryOutcome::Cold;
  size_t BaseRecords = 0;
  /// Delta frames replayed onto the base image; one record can take
  /// many, so this is not a record count.
  size_t ReplayedRecords = 0;
  /// Records in the table after replay.
  size_t Records = 0;
  size_t TruncatedRecords = 0;
  /// Generation the file is at after recovery (the compacted one's).
  uint64_t Generation = 0;
  /// Host seconds the whole recovery took.
  double Seconds = 0.0;
  /// Why reading stopped early (success for a clean or missing file).
  Status ReadStatus = Status::success();
  Status CompactStatus = Status::success();
};

/// Recovers table G from \p Path in one read and one scan: restore the
/// base image, replay the deltas after it (stopping at the first torn
/// record), then — when \p Compact — rewrite the file as a base image of
/// the result at the next generation. Never fails hard: the worst
/// corruption degrades to a cold table with ReadStatus saying why.
RecoveryReport recoverKernelHistory(KernelHistory &History,
                                    const std::string &Path,
                                    bool Compact = true);

/// The append side: one open table-G file, shared by every thread that
/// merges into table G. enqueue() is cheap (buffer append under a leaf
/// mutex, safe inside the shard-locked merge closure); the batch hits
/// the disk on maybeFlush()/flush(), serialized by a separate IO mutex
/// so group commit never blocks the enqueue path behind an fsync.
class HistoryJournal {
public:
  /// Opens \p Options.Path for appending at \p Generation, creating an
  /// empty table-G file when it is missing or empty. An existing file
  /// must carry \p Generation (recovery just compacted it there) and a
  /// whole base image — anything else is an error; a torn-but-matching
  /// delta tail is truncated to its valid prefix before appending
  /// resumes.
  static ErrorOr<std::unique_ptr<HistoryJournal>>
  open(JournalOptions Options, uint64_t Generation);

  /// Best-effort final flush (fsynced), then closes the file.
  ~HistoryJournal();

  HistoryJournal(const HistoryJournal &) = delete;
  HistoryJournal &operator=(const HistoryJournal &) = delete;

  /// Optional counters bumped as records are enqueued (lock-free adds;
  /// safe on the merge path).
  struct MetricHooks {
    obs::Counter *Appends = nullptr;
    obs::Counter *Bytes = nullptr;
  };
  void setMetrics(MetricHooks Hooks) { Metrics = Hooks; }

  uint64_t generation() const {
    return Generation.load(std::memory_order_acquire);
  }

  /// Buffers one delta record, encoding it straight into the pending
  /// batch under one lock. Thread-safe; does no IO, so it is legal (and,
  /// for order-sensitive records, required) inside the table-G merge
  /// closure.
  void enqueue(const HistoryDeltaRecord &Rec);

  /// Flushes when an enqueue crossed a group-commit threshold; returns
  /// after one atomic load otherwise. Call after enqueue(), outside
  /// shard locks.
  Status maybeFlush();

  /// Unconditionally writes and (per SyncOnFlush) fsyncs the pending
  /// batch.
  Status flush();

  /// Replaces the file with a base image of \p History at the next
  /// generation and reopens it for appending. The pending batch is
  /// dropped: \p History already holds every record in it. Merges must
  /// be quiesced (shutdown drains first); one racing the image could
  /// land in it and in a later append both.
  Status compact(const KernelHistory &History);

  struct Stats {
    uint64_t Appends = 0;
    uint64_t AppendedBytes = 0;
    uint64_t Flushes = 0;
  };
  Stats stats() const;

private:
  HistoryJournal(JournalOptions OptionsIn, uint64_t GenerationIn)
      : Options(std::move(OptionsIn)), Generation(GenerationIn) {}

  Status flushLocked() ECAS_REQUIRES(IoMutex);
  /// Writes (and per SyncOnFlush fsyncs) the swapped-out Batch.
  Status writeBatch() ECAS_REQUIRES(IoMutex);

  JournalOptions Options;
  std::atomic<uint64_t> Generation;
  MetricHooks Metrics;

  /// Enqueue side. Leaf lock: taken inside KernelHistory shard locks
  /// and inside IoMutex, never the other way around.
  mutable AnnotatedMutex BufferMutex{"HistoryJournal.Buffer"};
  std::string Pending ECAS_GUARDED_BY(BufferMutex);
  unsigned PendingRecords ECAS_GUARDED_BY(BufferMutex) = 0;
  /// Set by the enqueue that crosses a group-commit threshold, cleared
  /// when the batch is swapped out, so maybeFlush() needs no lock.
  std::atomic<bool> GroupFull{false};

  /// IO side; acquired before BufferMutex (to swap the batch out).
  mutable AnnotatedMutex IoMutex{"HistoryJournal.Io"};
  int Fd ECAS_GUARDED_BY(IoMutex) = -1;
  /// The batch being written. Swapped with Pending and cleared (keeping
  /// its capacity) after each flush, so the two buffers alternate and a
  /// warm journal appends without allocating.
  std::string Batch ECAS_GUARDED_BY(IoMutex);

  std::atomic<uint64_t> AppendCount{0};
  std::atomic<uint64_t> AppendedBytes{0};
  std::atomic<uint64_t> FlushCount{0};
};

} // namespace ecas

#endif // ECAS_CORE_HISTORYJOURNAL_H
