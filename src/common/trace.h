#ifndef TREEWALK_COMMON_TRACE_H_
#define TREEWALK_COMMON_TRACE_H_

/// Span-based tracer (docs/OBSERVABILITY.md).
///
/// A ScopedSpan records one complete span — name, thread, parent span,
/// steady-clock start, duration — into a bounded per-thread buffer when
/// the process-global Tracer is enabled.  Spans nest via a thread-local
/// stack, so every event carries its parent's span id and a trace
/// viewer can rebuild the tree.  When a thread's buffer is full, new
/// spans are counted as dropped instead of recorded (bounded memory
/// under any load; the drop count is exported).
///
/// The tracer is off by default and costs one relaxed atomic load per
/// span site while off.  ChromeTraceJson() renders the collected spans
/// in the Chrome trace-event JSON array format, loadable in
/// chrome://tracing or https://ui.perfetto.dev.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace treewalk {

/// One completed span.  Timestamps are microseconds since Enable().
struct TraceEvent {
  std::string name;
  /// Extra `"key":value` JSON members for the args object; empty or a
  /// comma-joined list like "\"job\":3,\"rung\":1".
  std::string args;
  std::uint64_t id = 0;         ///< span id, unique per process run
  std::uint64_t parent_id = 0;  ///< enclosing span on the same thread, 0=root
  std::uint64_t ts_us = 0;
  std::uint64_t dur_us = 0;
  std::uint32_t tid = 0;  ///< dense per-thread index, not the OS tid
};

class Tracer {
 public:
  static constexpr std::size_t kDefaultCapacity = 65536;

  static Tracer& Global();

  /// Starts recording; resets the clock epoch and clears old events.
  /// `per_thread_capacity` bounds each thread's buffer.
  void Enable(std::size_t per_thread_capacity = kDefaultCapacity);
  /// Stops recording; collected events stay readable.
  void Disable();
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Spans discarded because their thread's buffer was full.
  std::uint64_t dropped() const;

  /// Every recorded event across all threads (including exited ones),
  /// sorted by start timestamp.
  std::vector<TraceEvent> Collect() const;

  /// Chrome trace-event format: a JSON array of "X" (complete) events.
  std::string ChromeTraceJson() const;

  std::uint64_t NowMicros() const;

  /// Records an already-measured complete span (used where the start
  /// predates the recording site, e.g. per-job queue wait).  No-op when
  /// disabled.
  void RecordComplete(const char* name, std::string args,
                      std::uint64_t ts_us, std::uint64_t dur_us);

 private:
  friend class ScopedSpan;
  struct ThreadBuffer {
    mutable std::mutex mu;
    std::vector<TraceEvent> events;
    std::uint64_t dropped = 0;
    std::uint32_t tid = 0;
  };

  ThreadBuffer* BufferForThisThread();
  void Record(TraceEvent event);

  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> next_span_id_{1};
  /// Bumped by Enable(); stale thread-local buffer caches re-register.
  std::atomic<std::uint64_t> generation_{0};
  /// Steady-clock microseconds at Enable(); atomic so span sites can
  /// read it without the registration mutex.
  std::atomic<std::int64_t> epoch_us_{0};
  std::atomic<std::size_t> capacity_{kDefaultCapacity};
  mutable std::mutex mu_;  ///< guards buffers_ registration/collection
  std::vector<std::shared_ptr<ThreadBuffer>> buffers_;
  std::uint32_t next_tid_ = 0;
};

/// RAII span: records [construction, destruction) when the tracer is
/// enabled.  Cheap when disabled (one relaxed load, no clock read).
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name) : ScopedSpan(name, std::string()) {}
  ScopedSpan(const char* name, std::string args);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  const char* name_;
  std::string args_;
  std::uint64_t start_us_ = 0;
  std::uint64_t id_ = 0;
  std::uint64_t parent_ = 0;
  bool active_ = false;
};

}  // namespace treewalk

#endif  // TREEWALK_COMMON_TRACE_H_
