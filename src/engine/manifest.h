#ifndef TREEWALK_ENGINE_MANIFEST_H_
#define TREEWALK_ENGINE_MANIFEST_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/common/result.h"

namespace treewalk {

/// One `<program.twp> <tree>` line of a batch manifest, plus the stable
/// job id journal entries key on.
struct ManifestEntry {
  std::string program_path;
  std::string tree_path;
  /// 1-based manifest line.
  int line_number = 0;
  /// Content-derived job id: FNV-1a over both paths and both files'
  /// bytes, never 0.  Stable across runs while the inputs are
  /// unchanged, so a resumed batch skips exactly the work that was
  /// journaled as complete; editing a program or tree changes the id
  /// and the job reruns (stale journal entries are simply never
  /// matched).  An unreadable file hashes as a marker, keeping the id
  /// stable so the load failure itself is reproducible under resume.
  ///
  /// LoadManifestFile hashes a `.twsnap` by its framing alone
  /// (ReadSnapshotFraming: the header with t's content hash, and the
  /// section table with every section's CRC32C), not by its bytes; a
  /// snapshot whose framing does not validate is hashed whole, so a
  /// stale or corrupt file keeps a stable id too.  Journals written
  /// before this rule keyed `.twsnap` jobs by the whole file, so a
  /// resume across the change reruns those jobs; it never skips one.
  std::uint64_t job_id = 0;
};

struct Manifest {
  std::vector<ManifestEntry> entries;
};

/// Reads `path` into `out`; false when unreadable.  Injected into
/// ParseManifest so tests can fabricate file contents.
using ManifestFileReader =
    std::function<bool(const std::string& path, std::string& out)>;

/// The job id ParseManifest assigns (exposed for journal tooling).
std::uint64_t ManifestJobId(const std::string& program_path,
                            const std::string& tree_path,
                            const std::string* program_content,
                            const std::string* tree_content);

/// Parses manifest text: one `<program> <tree>` pair per line, blank
/// lines and `#` comments skipped.  Errors (all kInvalidArgument, with
/// line numbers):
///   - a line with one or three-plus fields;
///   - two lines naming the same (program, tree) pair — their job ids
///     would collide, and journal keys must be unique; the message
///     names both line numbers.
/// File contents are read once per distinct path, only to derive ids —
/// parse failures inside the files are the caller's concern.
Result<Manifest> ParseManifest(const std::string& text,
                               const ManifestFileReader& reader);

/// ParseManifest over the file at `path` with the real filesystem
/// reader, which returns a `.twsnap`'s framing instead of its bytes
/// (see ManifestEntry::job_id; kNotFound when the manifest itself is
/// unreadable).
Result<Manifest> LoadManifestFile(const std::string& path);

}  // namespace treewalk

#endif  // TREEWALK_ENGINE_MANIFEST_H_
