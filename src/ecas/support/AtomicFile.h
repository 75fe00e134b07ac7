//===-- ecas/support/AtomicFile.h - Durable atomic file writes -*- C++ -*-===//
//
// Part of the ecas project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one blessed implementation of the write-a-file-atomically idiom
/// (DESIGN.md §13). Every durable artifact — table-G snapshots, metrics
/// exports, journal resets — goes through writeFileAtomic(), which
/// performs the full crash-safe sequence:
///
///   1. write "<path>.tmp" and fsync it (the *contents* are durable),
///   2. rename the temp file over the destination (the *name* flips
///      atomically),
///   3. fsync the destination's parent directory (the *rename* is
///      durable — without this step a power cut after rename can
///      resurrect the old file, or no file at all, on journaling
///      filesystems that haven't committed the directory update).
///
/// Step 3 is the durability hole the pre-§13 helpers had; ecas-lint's
/// atomic-write rule now forbids raw std::rename/fsync outside this
/// file and the journal, so the fix cannot regress silently.
///
//===----------------------------------------------------------------------===//

#ifndef ECAS_SUPPORT_ATOMICFILE_H
#define ECAS_SUPPORT_ATOMICFILE_H

#include "ecas/support/Error.h"

#include <string>
#include <string_view>

namespace ecas {

/// Atomically replaces \p Path with \p Bytes: temp write + fsync +
/// rename + parent-directory fsync. On failure the destination is
/// either the old content or the new content, never a mixture; a stray
/// "<path>.tmp" may remain and is overwritten by the next attempt.
Status writeFileAtomic(const std::string &Path, std::string_view Bytes);

/// Reads all of \p Path into \p Out. A missing file is not an error:
/// \p Existed is set false and \p Out cleared. Read failures on an
/// existing file return IoError.
Status readFileBytes(const std::string &Path, std::string &Out,
                     bool &Existed);

/// Flushes the directory containing \p Path (a filesystem that refuses
/// directory fsync is not an error). Exposed for the journal, whose
/// append-mode writes need the same rename-durability step after
/// creating the file.
Status syncParentDir(const std::string &Path);

} // namespace ecas

#endif // ECAS_SUPPORT_ATOMICFILE_H
