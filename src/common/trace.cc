#include "src/common/trace.h"

#include <algorithm>
#include <utility>

namespace treewalk {

namespace {

/// Enclosing-span stack of the current thread; the top is the parent of
/// the next span started here.
thread_local std::vector<std::uint64_t> t_span_stack;

struct BufferCache {
  std::uint64_t generation = ~std::uint64_t{0};
  std::shared_ptr<void> keepalive;  // owns the ThreadBuffer
  void* buffer = nullptr;
};
thread_local BufferCache t_buffer_cache;

std::string JsonEscape(const std::string& v) {
  std::string out;
  out.reserve(v.size());
  for (char c : v) {
    if (c == '\\' || c == '"') out.push_back('\\');
    if (c == '\n') {
      out += "\\n";
      continue;
    }
    out.push_back(c);
  }
  return out;
}

}  // namespace

Tracer& Tracer::Global() {
  static Tracer* tracer = new Tracer;
  return *tracer;
}

void Tracer::Enable(std::size_t per_thread_capacity) {
  std::lock_guard<std::mutex> lock(mu_);
  buffers_.clear();
  next_tid_ = 0;
  capacity_.store(per_thread_capacity == 0 ? 1 : per_thread_capacity,
                  std::memory_order_relaxed);
  epoch_us_.store(std::chrono::duration_cast<std::chrono::microseconds>(
                      std::chrono::steady_clock::now().time_since_epoch())
                      .count(),
                  std::memory_order_relaxed);
  generation_.fetch_add(1, std::memory_order_relaxed);
  enabled_.store(true, std::memory_order_release);
}

void Tracer::Disable() { enabled_.store(false, std::memory_order_release); }

std::uint64_t Tracer::NowMicros() const {
  std::int64_t now_us =
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count();
  return static_cast<std::uint64_t>(
      now_us - epoch_us_.load(std::memory_order_relaxed));
}

Tracer::ThreadBuffer* Tracer::BufferForThisThread() {
  std::uint64_t generation = generation_.load(std::memory_order_relaxed);
  if (t_buffer_cache.generation == generation &&
      t_buffer_cache.buffer != nullptr) {
    return static_cast<ThreadBuffer*>(t_buffer_cache.buffer);
  }
  auto buffer = std::make_shared<ThreadBuffer>();
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Enable() may have raced ahead; register in the current generation
    // either way — worst case the buffer belongs to the newer run,
    // which is the one that matters.
    buffer->tid = next_tid_++;
    buffer->events.reserve(std::min<std::size_t>(
        capacity_.load(std::memory_order_relaxed), 4096));
    buffers_.push_back(buffer);
  }
  t_buffer_cache.generation = generation;
  t_buffer_cache.keepalive = buffer;
  t_buffer_cache.buffer = buffer.get();
  return buffer.get();
}

void Tracer::Record(TraceEvent event) {
  ThreadBuffer* buffer = BufferForThisThread();
  std::lock_guard<std::mutex> lock(buffer->mu);
  if (buffer->events.size() >= capacity_.load(std::memory_order_relaxed)) {
    ++buffer->dropped;
    return;
  }
  event.tid = buffer->tid;
  buffer->events.push_back(std::move(event));
}

std::uint64_t Tracer::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t total = 0;
  for (const std::shared_ptr<ThreadBuffer>& b : buffers_) {
    std::lock_guard<std::mutex> buffer_lock(b->mu);
    total += b->dropped;
  }
  return total;
}

std::vector<TraceEvent> Tracer::Collect() const {
  std::vector<TraceEvent> events;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const std::shared_ptr<ThreadBuffer>& b : buffers_) {
      std::lock_guard<std::mutex> buffer_lock(b->mu);
      events.insert(events.end(), b->events.begin(), b->events.end());
    }
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.ts_us < b.ts_us;
                   });
  return events;
}

std::string Tracer::ChromeTraceJson() const {
  std::vector<TraceEvent> events = Collect();
  std::string out = "[";
  bool first = true;
  for (const TraceEvent& e : events) {
    if (!first) out += ",";
    first = false;
    out += "\n{\"name\":\"" + JsonEscape(e.name) +
           "\",\"cat\":\"treewalk\",\"ph\":\"X\",\"pid\":1,\"tid\":" +
           std::to_string(e.tid) + ",\"ts\":" + std::to_string(e.ts_us) +
           ",\"dur\":" + std::to_string(e.dur_us) + ",\"args\":{\"span\":" +
           std::to_string(e.id) + ",\"parent\":" + std::to_string(e.parent_id);
    if (!e.args.empty()) out += "," + e.args;
    out += "}}";
  }
  out += "\n]\n";
  return out;
}

void Tracer::RecordComplete(const char* name, std::string args,
                            std::uint64_t ts_us, std::uint64_t dur_us) {
  if (!enabled()) return;
  TraceEvent event;
  event.name = name;
  event.args = std::move(args);
  event.id = next_span_id_.fetch_add(1, std::memory_order_relaxed);
  event.parent_id = t_span_stack.empty() ? 0 : t_span_stack.back();
  event.ts_us = ts_us;
  event.dur_us = dur_us;
  Record(std::move(event));
}

ScopedSpan::ScopedSpan(const char* name, std::string args)
    : name_(name), args_(std::move(args)) {
  Tracer& tracer = Tracer::Global();
  if (!tracer.enabled()) return;
  active_ = true;
  start_us_ = tracer.NowMicros();
  id_ = tracer.next_span_id_.fetch_add(1, std::memory_order_relaxed);
  parent_ = t_span_stack.empty() ? 0 : t_span_stack.back();
  t_span_stack.push_back(id_);
}

ScopedSpan::~ScopedSpan() {
  if (!active_) return;
  // Pop even if the tracer was disabled mid-span, else the stack leaks
  // a frame and later parents are wrong.
  if (!t_span_stack.empty() && t_span_stack.back() == id_) {
    t_span_stack.pop_back();
  }
  Tracer& tracer = Tracer::Global();
  if (!tracer.enabled()) return;
  TraceEvent event;
  event.name = name_;
  event.args = std::move(args_);
  event.id = id_;
  event.parent_id = parent_;
  event.ts_us = start_us_;
  event.dur_us = tracer.NowMicros() - start_us_;
  tracer.Record(std::move(event));
}

}  // namespace treewalk
