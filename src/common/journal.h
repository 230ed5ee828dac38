#ifndef TREEWALK_COMMON_JOURNAL_H_
#define TREEWALK_COMMON_JOURNAL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/crc32c.h"  // journal frames are CRC32C-checked
#include "src/common/result.h"

namespace treewalk {

/// Append-only write-ahead journal with CRC-framed records
/// (docs/ROBUSTNESS.md, "Durability & recovery").
///
/// File layout:
///
///   header   16 bytes: magic "TWJRNL01", u32-LE version, u32-LE zero
///   record*  u32-LE payload length | u32-LE CRC32C(payload) | payload
///
/// The header is created atomically (written to `<path>.tmp`, fsynced,
/// renamed over `path`), so a crash during creation leaves either no
/// journal or a valid empty one — never a half-written header.  Records
/// are appended in place; a crash mid-append leaves a *torn tail* that
/// the reader detects (short frame, oversized length, or CRC mismatch)
/// and reports as the byte offset of the last intact frame, which
/// reopening for append truncates away.
inline constexpr char kJournalMagic[8] = {'T', 'W', 'J', 'R', 'N', 'L',
                                          '0', '1'};
inline constexpr std::size_t kJournalHeaderBytes = 16;
inline constexpr std::uint32_t kJournalVersion = 1;
/// Frames claiming a longer payload are treated as torn, bounding what a
/// corrupt length prefix can make the reader allocate.
inline constexpr std::uint32_t kMaxJournalRecordBytes = 1u << 20;

/// Result of parsing a journal image: every intact record in order, the
/// byte length of the intact prefix (header + whole frames), and
/// whether parsing stopped at a torn/corrupt tail.
struct JournalContents {
  std::vector<std::string> records;
  std::uint64_t valid_bytes = 0;
  bool torn = false;
  /// Why parsing stopped, when `torn` ("short frame", "crc mismatch",
  /// "oversized record").
  std::string tail_error;
};

/// Parses an in-memory journal image.  A missing or malformed header is
/// kInvalidArgument; a torn tail is NOT an error (contents.torn is set
/// and the intact prefix is returned).
Result<JournalContents> ParseJournal(std::string_view bytes);

/// Reads and parses the journal at `path` (kNotFound if absent).
Result<JournalContents> ReadJournal(const std::string& path);

/// Appends CRC-framed records to a journal file.  Not thread-safe; wrap
/// in a mutex to share (src/engine/batch_journal.h does).
class JournalWriter {
 public:
  /// Opens `path` for appending.  Creates it (atomic tmp+rename header
  /// write) when absent; otherwise validates the header and truncates
  /// any torn tail back to the last intact frame.
  static Result<JournalWriter> Open(const std::string& path);

  JournalWriter(JournalWriter&& other) noexcept;
  JournalWriter& operator=(JournalWriter&& other) noexcept;
  JournalWriter(const JournalWriter&) = delete;
  JournalWriter& operator=(const JournalWriter&) = delete;
  ~JournalWriter();

  /// Appends one framed record.  The write is pushed to the kernel
  /// (surviving a crash of this process) but not fsynced — call Sync()
  /// for a power-loss barrier.
  Status Append(std::string_view payload);

  /// fsyncs the journal file: everything appended so far survives power
  /// loss, not just process death.
  Status Sync();

  /// Records appended through this writer (not counting pre-existing
  /// records in a reopened journal).
  std::int64_t appended() const { return appended_; }

  const std::string& path() const { return path_; }

  /// Closes the file descriptor (no implicit fsync).  Idempotent; the
  /// destructor calls it.
  void Close();

 private:
  JournalWriter(int fd, std::string path) : fd_(fd), path_(std::move(path)) {}

  int fd_ = -1;
  std::string path_;
  std::int64_t appended_ = 0;
};

}  // namespace treewalk

#endif  // TREEWALK_COMMON_JOURNAL_H_
