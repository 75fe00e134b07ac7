//===-- ecas/core/HistoryJournal.h - Table-G write-ahead journal *- C++ -*-===//
//
// Part of the ecas project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The crash-consistency layer for table G (DESIGN.md §13). Snapshots
/// alone lose everything since the last write; the journal closes that
/// window by appending one CRC-framed delta record per table-G merge,
/// group-committed off the hot path, so a kill -9 costs at most the
/// unflushed group-commit window.
///
/// File format (little-endian, see HistoryCodec.h):
///
///   header   magic "ECASJRNL" (8) + u32 version + u64 epoch +
///            u32 CRC-32 of bytes [8, 20)                       = 24 B
///   frame    u32 payload length + u32 CRC-32(payload) + payload
///   payload  u64 key; u32 invocations delta; u32 quarantined delta;
///            u8 flags (alpha-sample / cpu-only / became-confident /
///            class / pstate / merged-sample); u32 class index; f64
///            alpha value, f64 alpha weight; u32 pstate; u16 sample
///            count, always 0; then, when the merged-sample flag is
///            set, the merged ProfileSample as 9 f64 + 2 flag bytes
///
/// A profiled merge journals its resulting sample once, so every frame
/// has a fixed size however many repetitions the invocation ran. The
/// sample count is a remnant of older versions, which journaled each
/// repetition's delta; a nonzero count is a malformed record. Only this
/// version is read: an older journal is a VersionMismatch, and recovery
/// degrades it like any other unreadable journal and resets the file to
/// the current version.
///
/// The epoch pairs a journal with its snapshot: snapshot(E) + replay of
/// journal(E) == the live table. Recovery compacts to snapshot(E+1) and
/// only then resets the journal to epoch E+1, so a crash between the
/// two leaves a *stale* journal (epoch < snapshot's) that the next
/// recovery skips — deltas are never applied twice.
///
/// Replay is order-exact: records whose effect does not commute (the
/// merged sample, the confident transition that resets the alpha
/// accumulator, alpha samples, class) are enqueued inside the table-G
/// shard-locked merge closure, so journal order equals live merge order
/// per key; purely additive counter deltas may enqueue outside locks.
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

/// The journal format version this build writes and reads. v2 added the
/// chosen P-state to the delta payload, v3 the merged sample.
inline constexpr uint32_t HistoryJournalVersion = 3;

/// Journal tunables, embedded in EasConfig::Journal and passed to
/// HistoryJournal::open().
struct JournalOptions {
  /// Journal file path. EasScheduler derives "<HistoryFile>.wal" when
  /// left empty.
  std::string Path;
  /// A batch is written (and fsynced) once it holds this many records…
  unsigned GroupCommitRecords = 32;
  /// …or this many bytes, whichever comes first. The unflushed window —
  /// the most a crash can lose — is bounded by both.
  size_t GroupCommitBytes = 64 * 1024;
  /// fsync each flushed batch. Off trades the durability statement down
  /// to "survives process death, not power loss".
  bool SyncOnFlush = true;
};

/// One table-G mutation, exactly as the merge path applied it. The
/// deltas are self-contained: replaying them in journal order onto the
/// snapshot they follow reproduces the live table bit-for-bit.
struct HistoryDeltaRecord {
  uint64_t Key = 0;
  /// bumpInvocations / bumpQuarantinedRuns deltas (commutative).
  uint32_t InvocationsDelta = 0;
  uint32_t QuarantinedDelta = 0;
  /// The record's whole sample right after this merge accumulated its
  /// repetitions, taken under the shard lock. Replay assigns it, so
  /// journal order alone makes replay exact.
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

/// Serializes a fresh journal header at \p Epoch (what a reset journal
/// file contains).
std::string encodeJournalHeader(uint64_t Epoch);

/// Appends one CRC-framed record to \p Out, encoding in place: no
/// temporary buffers, so appending into a buffer with spare capacity
/// does not allocate.
void encodeDeltaFrame(std::string &Out, const HistoryDeltaRecord &Rec);

/// What a full parse of a journal's bytes found. Parsing stops at the
/// first torn or corrupt frame — everything before it is trustworthy,
/// everything at and after it is discarded (TruncatedRecords counts the
/// frame at the tear; bytes beyond it cannot be framed reliably).
struct JournalScan {
  /// Header parsed successfully; Epoch and Records are meaningful.
  bool HeaderValid = false;
  uint64_t Epoch = 0;
  std::vector<HistoryDeltaRecord> Records;
  /// Parsing stopped before the end of the bytes.
  bool Torn = false;
  size_t TruncatedRecords = 0;
  /// Bytes of valid prefix (header + intact frames); a repair truncates
  /// the file to this length.
  size_t ValidBytes = 0;
  /// Why parsing stopped (success at a clean end-of-file).
  Status Error = Status::success();
};

/// Pure parser (no IO), shared by recovery and the corruption-matrix
/// fuzz: any byte mutation must yield a truncated scan, never a crash.
JournalScan scanJournal(std::string_view Bytes);

/// How a recovery found the on-disk state.
enum class RecoveryOutcome {
  /// Snapshot loaded, journal empty or already compacted: nothing lost,
  /// nothing to replay.
  Clean,
  /// Journal records were replayed on top of the snapshot.
  Replayed,
  /// Data was lost: a torn/corrupt journal tail was truncated, or the
  /// snapshot itself was unreadable and the table rebuilt from less.
  Truncated,
  /// No prior state existed (first boot).
  Cold,
};

const char *recoveryOutcomeName(RecoveryOutcome Outcome);

/// Everything recoverKernelHistory() did, for logs and metrics.
struct RecoveryReport {
  RecoveryOutcome Outcome = RecoveryOutcome::Cold;
  size_t SnapshotRecords = 0;
  size_t ReplayedRecords = 0;
  size_t TruncatedRecords = 0;
  /// The journal's epoch predated the snapshot's (a crash landed between
  /// compaction's snapshot write and journal reset); its records were
  /// already in the snapshot and were skipped, not replayed.
  bool StaleJournalSkipped = false;
  /// Epoch the table is at after recovery (the compacted snapshot's).
  uint64_t Epoch = 0;
  /// Host seconds the whole recovery took.
  double Seconds = 0.0;
  Status SnapshotStatus = Status::success();
  Status JournalStatus = Status::success();
  Status CompactStatus = Status::success();
};

/// Recovers table G from \p SnapshotPath + \p JournalPath: load the
/// newest valid snapshot, replay the journal (skipping a stale one,
/// truncating at the first torn record), then — when \p Compact — write
/// a fresh snapshot at the next epoch and reset the journal to it.
/// Never fails hard: the worst corruption degrades to a cold table with
/// the statuses saying why.
RecoveryReport recoverKernelHistory(KernelHistory &History,
                                    const std::string &SnapshotPath,
                                    const std::string &JournalPath,
                                    bool Compact = true);

/// The append side: one open journal file, shared by every thread that
/// merges into table G. enqueue() is cheap (buffer append under a leaf
/// mutex, safe inside the shard-locked merge closure); the batch hits
/// the disk on maybeFlush()/flush(), serialized by a separate IO mutex
/// so group commit never blocks the enqueue path behind an fsync.
class HistoryJournal {
public:
  /// Opens \p Options.Path for appending at \p Epoch, creating a fresh
  /// header when the file is missing or empty. An existing journal must
  /// carry \p Epoch (recovery just reset it there) — any mismatch or
  /// corruption is an error; a torn-but-matching tail is truncated to
  /// its valid prefix before appending resumes.
  static ErrorOr<std::unique_ptr<HistoryJournal>>
  open(JournalOptions Options, uint64_t Epoch);

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

  uint64_t epoch() const { return Epoch.load(std::memory_order_acquire); }

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

  /// Truncates the journal to a fresh header at \p NewEpoch (compaction
  /// committed everything up to here into the snapshot). Pending
  /// unflushed records are dropped — the caller flushes first.
  Status reset(uint64_t NewEpoch);

  struct Stats {
    uint64_t Appends = 0;
    uint64_t AppendedBytes = 0;
    uint64_t Flushes = 0;
  };
  Stats stats() const;

private:
  HistoryJournal(JournalOptions OptionsIn, uint64_t EpochIn)
      : Options(std::move(OptionsIn)), Epoch(EpochIn) {}

  Status flushLocked() ECAS_REQUIRES(IoMutex);
  /// Writes (and per SyncOnFlush fsyncs) the swapped-out Batch.
  Status writeBatch() ECAS_REQUIRES(IoMutex);

  JournalOptions Options;
  std::atomic<uint64_t> Epoch;
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
