#include "src/common/atomic_file.h"

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <sstream>

#include "src/common/failpoint.h"

namespace treewalk {

Status ErrnoStatus(const std::string& op, const std::string& path) {
  return Internal(op + " '" + path + "': " + std::strerror(errno));
}

Status WriteAllFd(int fd, const std::string& path, std::string_view bytes) {
  std::size_t done = 0;
  while (done < bytes.size()) {
    ssize_t n = ::write(fd, bytes.data() + done, bytes.size() - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      return ErrnoStatus("write", path);
    }
    done += static_cast<std::size_t>(n);
  }
  return Status::Ok();
}

Status FsyncFd(int fd, const std::string& path) {
  if (::fsync(fd) != 0) return ErrnoStatus("fsync", path);
  return Status::Ok();
}

void FsyncParentDir(const std::string& path) {
  std::string dir = ".";
  std::size_t slash = path.find_last_of('/');
  if (slash != std::string::npos) dir = path.substr(0, slash + 1);
  int fd = ::open(dir.c_str(), O_RDONLY);
  if (fd < 0) return;
  ::fsync(fd);
  ::close(fd);
}

Status WriteFileAtomic(const std::string& path, std::string_view bytes) {
  return WriteFileAtomic(path, std::vector<std::string_view>{bytes});
}

Status WriteFileAtomic(const std::string& path,
                       const std::vector<std::string_view>& pieces) {
  // Unique per (process, call) so two threads racing to cache one key
  // never scribble on each other's tmp file.
  static std::atomic<std::uint64_t> counter{0};
  std::string tmp = path + ".tmp." + std::to_string(::getpid()) + "." +
                    std::to_string(counter.fetch_add(1));
  Status status = [&]() -> Status {
    TREEWALK_FAILPOINT("atomic_file/write");
    int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0) return ErrnoStatus("create", tmp);
    Status s = Status::Ok();
    for (std::size_t i = 0; s.ok() && i < pieces.size(); ++i) {
      s = WriteAllFd(fd, tmp, pieces[i]);
    }
    if (s.ok()) {
      s = [&]() -> Status {
        TREEWALK_FAILPOINT("atomic_file/fsync");
        return FsyncFd(fd, tmp);
      }();
    }
    ::close(fd);
    if (!s.ok()) return s;
    TREEWALK_FAILPOINT("atomic_file/rename");
    if (::rename(tmp.c_str(), path.c_str()) != 0) {
      return ErrnoStatus("rename", tmp);
    }
    return Status::Ok();
  }();
  if (!status.ok()) {
    ::unlink(tmp.c_str());
    return status;
  }
  FsyncParentDir(path);
  return Status::Ok();
}

Result<std::string> ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return NotFound("cannot read '" + path + "'");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

}  // namespace treewalk
