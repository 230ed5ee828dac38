#include "src/common/journal.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <fstream>
#include <sstream>
#include <utility>

#include "src/common/atomic_file.h"
#include "src/common/failpoint.h"
#include "src/common/metrics.h"

namespace treewalk {

namespace {

/// Journal instrument family, registered once per process
/// (docs/OBSERVABILITY.md).
struct JournalMetrics {
  Counter* records;
  Counter* bytes;
  Counter* fsyncs;
  Counter* errors;
  Histogram* fsync_us;

  static JournalMetrics& Get() {
    static JournalMetrics* metrics = [] {
      auto* m = new JournalMetrics;
      MetricsRegistry& r = MetricsRegistry::Global();
      m->records = r.FindOrCreateCounter(
          "treewalk_journal_records_appended_total",
          "WAL records appended (frames written)");
      m->bytes = r.FindOrCreateCounter(
          "treewalk_journal_bytes_appended_total",
          "WAL bytes appended, including frame headers");
      m->fsyncs = r.FindOrCreateCounter("treewalk_journal_fsyncs_total",
                                        "Explicit and cadenced fsync calls");
      m->errors = r.FindOrCreateCounter("treewalk_journal_fsync_errors_total",
                                        "fsync calls that returned an error");
      m->fsync_us = r.FindOrCreateHistogram(
          "treewalk_journal_fsync_us", "fsync latency in microseconds",
          LatencyBucketsUs());
      return m;
    }();
    return *metrics;
  }
};

std::string HeaderBytes() {
  std::string header(kJournalMagic, sizeof(kJournalMagic));
  PutU32Le(kJournalVersion, header);
  PutU32Le(0, header);
  return header;
}

/// fsync with the journal's durability-barrier failpoint; the raw
/// syscall wrappers live in src/common/atomic_file.h.
Status FsyncJournalFd(int fd, const std::string& path) {
  TREEWALK_FAILPOINT("journal/fsync");
  return FsyncFd(fd, path);
}

/// Creates `path` with a valid empty-journal header via tmp+rename, so a
/// crash at any point leaves no half-written header behind.
Status CreateJournalFile(const std::string& path) {
  std::string tmp = path + ".tmp";
  int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return ErrnoStatus("create", tmp);
  Status status = WriteAllFd(fd, tmp, HeaderBytes());
  if (status.ok()) status = FsyncJournalFd(fd, tmp);
  ::close(fd);
  if (status.ok()) {
    status = [&]() -> Status {
      TREEWALK_FAILPOINT("journal/rename");
      if (::rename(tmp.c_str(), path.c_str()) != 0) {
        return ErrnoStatus("rename", tmp);
      }
      return Status::Ok();
    }();
  }
  if (!status.ok()) {
    ::unlink(tmp.c_str());
    return status;
  }
  FsyncParentDir(path);
  return Status::Ok();
}

}  // namespace

Result<JournalContents> ParseJournal(std::string_view bytes) {
  if (bytes.size() < kJournalHeaderBytes) {
    return InvalidArgument("journal shorter than its header (" +
                           std::to_string(bytes.size()) + " bytes)");
  }
  if (bytes.substr(0, sizeof(kJournalMagic)) !=
      std::string_view(kJournalMagic, sizeof(kJournalMagic))) {
    return InvalidArgument("journal has bad magic");
  }
  std::uint32_t version = GetU32Le(bytes, sizeof(kJournalMagic));
  if (version != kJournalVersion) {
    return InvalidArgument("journal version " + std::to_string(version) +
                           " unsupported (expected " +
                           std::to_string(kJournalVersion) + ")");
  }

  JournalContents contents;
  std::size_t at = kJournalHeaderBytes;
  contents.valid_bytes = at;
  while (at < bytes.size()) {
    if (bytes.size() - at < 8) {
      contents.torn = true;
      contents.tail_error = "short frame header at byte " + std::to_string(at);
      break;
    }
    std::uint32_t length = GetU32Le(bytes, at);
    std::uint32_t crc = GetU32Le(bytes, at + 4);
    if (length > kMaxJournalRecordBytes) {
      contents.torn = true;
      contents.tail_error = "oversized record (" + std::to_string(length) +
                            " bytes) at byte " + std::to_string(at);
      break;
    }
    if (bytes.size() - at - 8 < length) {
      contents.torn = true;
      contents.tail_error = "short payload at byte " + std::to_string(at);
      break;
    }
    std::string_view payload = bytes.substr(at + 8, length);
    if (Crc32c(payload) != crc) {
      contents.torn = true;
      contents.tail_error = "crc mismatch at byte " + std::to_string(at);
      break;
    }
    contents.records.emplace_back(payload);
    at += 8 + length;
    contents.valid_bytes = at;
  }
  return contents;
}

Result<JournalContents> ReadJournal(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return NotFound("cannot read journal '" + path + "'");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return ParseJournal(buffer.str());
}

Result<JournalWriter> JournalWriter::Open(const std::string& path) {
  if (::access(path.c_str(), F_OK) != 0) {
    TREEWALK_RETURN_IF_ERROR(CreateJournalFile(path));
  }
  Result<JournalContents> contents = ReadJournal(path);
  if (!contents.ok()) return contents.status();

  int fd = ::open(path.c_str(), O_WRONLY);
  if (fd < 0) return ErrnoStatus("open", path);
  // Truncate a torn tail (crash mid-append) back to the intact prefix,
  // then append from there.
  if (::ftruncate(fd, static_cast<off_t>(contents->valid_bytes)) != 0) {
    Status status = ErrnoStatus("ftruncate", path);
    ::close(fd);
    return status;
  }
  if (::lseek(fd, 0, SEEK_END) < 0) {
    Status status = ErrnoStatus("lseek", path);
    ::close(fd);
    return status;
  }
  return JournalWriter(fd, path);
}

JournalWriter::JournalWriter(JournalWriter&& other) noexcept
    : fd_(other.fd_),
      path_(std::move(other.path_)),
      appended_(other.appended_) {
  other.fd_ = -1;
}

JournalWriter& JournalWriter::operator=(JournalWriter&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    path_ = std::move(other.path_);
    appended_ = other.appended_;
    other.fd_ = -1;
  }
  return *this;
}

JournalWriter::~JournalWriter() { Close(); }

void JournalWriter::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Status JournalWriter::Append(std::string_view payload) {
  TREEWALK_FAILPOINT("journal/append");
  if (fd_ < 0) return FailedPrecondition("journal writer is closed");
  if (payload.size() > kMaxJournalRecordBytes) {
    return InvalidArgument("journal record of " +
                           std::to_string(payload.size()) +
                           " bytes exceeds the frame cap");
  }
  // One frame, one write(2): an interrupted append tears at most this
  // record, which the reader truncates on the next open.
  std::string frame;
  frame.reserve(8 + payload.size());
  PutU32Le(static_cast<std::uint32_t>(payload.size()), frame);
  PutU32Le(Crc32c(payload), frame);
  frame.append(payload);
  TREEWALK_RETURN_IF_ERROR(WriteAllFd(fd_, path_, frame));
  ++appended_;
  JournalMetrics& metrics = JournalMetrics::Get();
  metrics.records->Increment();
  metrics.bytes->Increment(static_cast<std::int64_t>(frame.size()));
  return Status::Ok();
}

Status JournalWriter::Sync() {
  if (fd_ < 0) return FailedPrecondition("journal writer is closed");
  auto start = std::chrono::steady_clock::now();
  Status status = FsyncJournalFd(fd_, path_);
  JournalMetrics& metrics = JournalMetrics::Get();
  metrics.fsyncs->Increment();
  metrics.fsync_us->Observe(
      std::chrono::duration_cast<std::chrono::duration<double, std::micro>>(
          std::chrono::steady_clock::now() - start)
          .count());
  if (!status.ok()) metrics.errors->Increment();
  return status;
}

}  // namespace treewalk
