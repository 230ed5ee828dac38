#ifndef TREEWALK_COMMON_ATOMIC_FILE_H_
#define TREEWALK_COMMON_ATOMIC_FILE_H_

#include <string>
#include <string_view>
#include <vector>

#include "src/common/result.h"

namespace treewalk {

/// Crash-consistent file creation, extracted from the journal's header
/// discipline (src/common/journal.cc) so every on-disk artifact — WAL
/// headers, tree snapshots, selector-cache entries — shares one audited
/// tmp+write+fsync+rename sequence.  See docs/ROBUSTNESS.md.

/// errno as a kInternal Status: "<op> '<path>': <strerror>".
Status ErrnoStatus(const std::string& op, const std::string& path);

/// write(2) until every byte landed (or a real error).
Status WriteAllFd(int fd, const std::string& path, std::string_view bytes);

/// fsync(2) as a Status.  No failpoint of its own; callers with a
/// durability barrier to test wrap it (the journal does).
Status FsyncFd(int fd, const std::string& path);

/// fsyncs the directory containing `path`, making a rename into it
/// durable.  Best-effort: some filesystems refuse O_RDONLY on dirs.
void FsyncParentDir(const std::string& path);

/// Atomically replaces `path` with `bytes`: writes to a unique
/// `<path>.tmp.*`, fsyncs, renames over `path`, fsyncs the parent dir.
/// A crash (or injected fault) at any point leaves either the old file
/// or the complete new one — never a torn write; the tmp file is
/// unlinked on failure.  Unique tmp names make concurrent writers of
/// one path safe (last rename wins with a complete file either way).
/// Failpoints: atomic_file/write, atomic_file/fsync, atomic_file/rename.
Status WriteFileAtomic(const std::string& path, std::string_view bytes);
/// The same, writing the concatenation of `pieces` without assembling
/// it in memory first.
Status WriteFileAtomic(const std::string& path,
                       const std::vector<std::string_view>& pieces);

/// Reads `path` fully into a string (kNotFound when unreadable).
Result<std::string> ReadFileBytes(const std::string& path);

}  // namespace treewalk

#endif  // TREEWALK_COMMON_ATOMIC_FILE_H_
