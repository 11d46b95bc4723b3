// Pipeline tracing: RAII spans collected into per-thread event buffers and
// exported as Chrome trace-event JSON ({"traceEvents": [...]}), loadable in
// chrome://tracing and Perfetto.
//
// Collection model:
//   * TraceCollector::Global() owns one event buffer per participating
//     thread. A thread registers its buffer once (mutex-guarded, first span
//     only); every later append is a plain push_back onto thread-private
//     storage — no locks, no cross-thread contention on the hot path.
//   * TraceSpan captures the enabled flag and a start timestamp at
//     construction and emits one complete ("ph":"X") event at destruction.
//     When tracing is disabled the span is two relaxed atomic loads and
//     nothing else — no clock reads, no allocation.
//   * The span tree is recorded, not inferred: an active span takes a
//     process-unique id and records the thread's current span as its parent,
//     becomes the current span itself, and restores its parent on close.
//     A ThreadPool lane adopts its loop's parallel_for span (see
//     SetCurrentTraceSpan) and opens a `lane` span under it, so a span opened
//     on a worker names its lane, and the lane the fork that ran it.
//     Consumers link spans by these ids (SpanGraph::Build); a span
//     whose parent is absent from the buffers (dropped by the cap, or opened
//     before Enable()) is a root.
//   * Export (ToJson/WriteJson) and Clear must not race with live spans: call
//     them only when no analysis is in flight (the pipeline joins all worker
//     lanes before returning, so "after Analysis::Run returns" is safe).
//   * Tracing never affects analysis results; only timestamps differ between
//     runs. Thread ids in the export are small stable registration indexes,
//     not OS ids, so traces from identical runs line up.

#ifndef VALUECHECK_SRC_SUPPORT_TRACE_H_
#define VALUECHECK_SRC_SUPPORT_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace vc {

// One complete span, in the trace-event JSON vocabulary.
struct TraceEvent {
  std::string name;
  const char* category = "pipeline";
  int64_t ts_micros = 0;   // start, relative to Enable()
  int64_t dur_micros = 0;  // duration
  int tid = 0;             // registration index of the emitting thread
  uint64_t span = 0;       // process-unique id; 0 = none
  uint64_t parent = 0;     // id of the span current when this one opened; 0 = root
  std::vector<std::pair<std::string, std::string>> args;
};

class TraceCollector {
 public:
  // Per-thread buffer cap: spans past this are dropped (counted, never
  // silently) so a pathological run cannot grow the trace without bound.
  static constexpr size_t kDefaultThreadBufferCap = 1u << 20;

  static TraceCollector& Global();

  // Starts a collection epoch: drops buffered events and re-bases timestamps.
  void Enable();
  void Disable() { enabled_.store(false, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  // Microseconds since the current epoch's Enable() call.
  int64_t NowMicros() const;

  // Appends a complete event to the calling thread's buffer. Once a thread's
  // buffer holds thread_buffer_cap() events, further spans are dropped and
  // counted in dropped_count() plus the "trace.dropped_spans" registry
  // counter; ToJson() carries an explicit cap note.
  void Record(TraceEvent event);

  size_t EventCount() const;
  // Spans dropped due to the per-thread cap since the last Enable()/Clear().
  uint64_t dropped_count() const { return dropped_.load(std::memory_order_relaxed); }

  size_t thread_buffer_cap() const {
    return thread_buffer_cap_.load(std::memory_order_relaxed);
  }
  // Test hook: shrink the cap to exercise the overflow path cheaply.
  void SetThreadBufferCapForTest(size_t cap) {
    thread_buffer_cap_.store(cap, std::memory_order_relaxed);
  }

  // Stable-ordered copy of every buffered event, sorted by (ts, tid); the
  // input of every exporter.
  std::vector<TraceEvent> SnapshotEvents() const;

  // Chrome trace-event JSON: {"traceEvents":[...],"displayTimeUnit":"ms"}.
  // Events are ordered by (ts, tid) so output is layout-stable; each carries
  // its "span" id and, unless it is a root, its "parent" id under "args".
  std::string ToJson() const;
  // Writes ToJson() to `path`; returns false on I/O failure.
  bool WriteJson(const std::string& path) const;

  // Drops buffered events (thread registrations survive).
  void Clear();

  // One thread's private event storage (public only so the implementation's
  // thread_local cache can name the type).
  struct ThreadBuffer {
    int tid = 0;
    std::vector<TraceEvent> events;
  };

 private:
  TraceCollector() = default;
  ThreadBuffer& LocalBuffer();

  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> dropped_{0};
  std::atomic<size_t> thread_buffer_cap_{kDefaultThreadBufferCap};
  std::chrono::steady_clock::time_point epoch_ = std::chrono::steady_clock::now();
  mutable std::mutex mutex_;  // guards buffers_ registration and export
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
};

inline bool TraceEnabled() { return TraceCollector::Global().enabled(); }

// Makes `span` the calling thread's current span, the parent of the spans it
// opens next, and returns the previous one. A ThreadPool lane adopts its
// loop's parallel_for span with it and restores the old value when done.
uint64_t SetCurrentTraceSpan(uint64_t span);

// RAII scope producing one complete trace event. The category must outlive
// the span (string literals in practice).
class TraceSpan {
 public:
  explicit TraceSpan(const char* name, const char* category = "pipeline")
      : active_(TraceEnabled()) {
    if (active_) {
      Begin(name, category);
    }
  }
  ~TraceSpan() { End(); }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  // Attaches a key/value pair to the event; no-ops when tracing is disabled.
  void Arg(const char* key, const std::string& value) {
    if (active_) {
      event_.args.emplace_back(key, value);
    }
  }
  void Arg(const char* key, int64_t value) {
    if (active_) {
      event_.args.emplace_back(key, std::to_string(value));
    }
  }

  // The span's id; 0 when tracing was off at construction.
  uint64_t id() const { return event_.span; }

 private:
  void Begin(const char* name, const char* category);
  void End();

  bool active_;
  TraceEvent event_;
};

}  // namespace vc

#endif  // VALUECHECK_SRC_SUPPORT_TRACE_H_
