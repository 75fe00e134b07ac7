//===-- ecas/support/AtomicFile.cpp - Durable atomic file writes ----------===//
//
// Part of the ecas project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "ecas/support/AtomicFile.h"

#include "ecas/support/CrashPoint.h"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include <fcntl.h>
#include <unistd.h>

using namespace ecas;

namespace {

/// fsyncs \p Path's data.
Status syncFile(const std::string &Path) {
  int Fd = ::open(Path.c_str(), O_RDONLY);
  if (Fd < 0)
    return Status::error(ErrCode::IoError, "cannot reopen " + Path +
                                               " for fsync: " +
                                               std::strerror(errno));
  int Rc = ::fsync(Fd);
  ::close(Fd);
  if (Rc != 0)
    return Status::error(ErrCode::IoError,
                         "fsync " + Path + ": " + std::strerror(errno));
  return Status::success();
}

} // namespace

Status ecas::syncParentDir(const std::string &Path) {
  size_t Slash = Path.find_last_of('/');
  std::string Dir = Slash == std::string::npos ? "." : Path.substr(0, Slash);
  if (Dir.empty())
    Dir = "/";
  int Fd = ::open(Dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (Fd < 0)
    return Status::error(ErrCode::IoError, "cannot open directory " + Dir +
                                               " for fsync: " +
                                               std::strerror(errno));
  int Rc = ::fsync(Fd);
  ::close(Fd);
  // Some filesystems refuse directory fsync (EINVAL); the rename is
  // then as durable as the platform allows, which is not an error the
  // caller can act on.
  if (Rc != 0 && errno != EINVAL)
    return Status::error(ErrCode::IoError,
                         "fsync directory " + Dir + ": " +
                             std::strerror(errno));
  return Status::success();
}

Status ecas::writeFileAtomic(const std::string &Path,
                             std::string_view Bytes) {
  std::string TempPath = Path + ".tmp";
  {
    std::ofstream File(TempPath, std::ios::binary | std::ios::trunc);
    if (!File)
      return Status::error(ErrCode::IoError, "cannot write " + TempPath);
    File.write(Bytes.data(), static_cast<std::streamsize>(Bytes.size()));
    File.flush();
    if (!File)
      return Status::error(ErrCode::IoError, "short write to " + TempPath);
  }
  if (Status S = syncFile(TempPath); !S)
    return S;
  ECAS_CRASHPOINT("atomicfile.after-temp-write");
  if (std::rename(TempPath.c_str(), Path.c_str()) != 0)
    return Status::error(ErrCode::IoError, "rename " + TempPath + " -> " +
                                               Path + ": " +
                                               std::strerror(errno));
  ECAS_CRASHPOINT("atomicfile.after-rename");
  return syncParentDir(Path);
}

Status ecas::readFileBytes(const std::string &Path, std::string &Out,
                           bool &Existed) {
  Out.clear();
  std::ifstream File(Path, std::ios::binary);
  if (!File) {
    Existed = false;
    return Status::success();
  }
  Existed = true;
  std::ostringstream Buffer;
  Buffer << File.rdbuf();
  if (File.bad())
    return Status::error(ErrCode::IoError, "read error on " + Path);
  Out = Buffer.str();
  return Status::success();
}
