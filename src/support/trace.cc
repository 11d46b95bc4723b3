#include "src/support/trace.h"

#include <algorithm>
#include <fstream>
#include <utility>

#include "src/support/json_writer.h"
#include "src/support/metrics.h"

namespace vc {

namespace {

// Per-thread buffer pointer, registered with the global collector on first
// use. Buffers are owned by the collector and never freed (threads may
// outlive epochs), so the cached pointer stays valid for the process's life.
thread_local TraceCollector::ThreadBuffer* tls_buffer = nullptr;

// The innermost open span of this thread (0 = none): the parent of the next
// span it opens.
thread_local uint64_t tls_current_span = 0;

// Span ids are never reused, not even across epochs, so a span still open
// when Enable() starts a new epoch cannot alias a new one.
std::atomic<uint64_t> next_span_id{1};

}  // namespace

uint64_t SetCurrentTraceSpan(uint64_t span) {
  return std::exchange(tls_current_span, span);
}

TraceCollector& TraceCollector::Global() {
  static TraceCollector* collector = new TraceCollector();  // never destroyed
  return *collector;
}

void TraceCollector::Enable() {
  Clear();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    epoch_ = std::chrono::steady_clock::now();
  }
  enabled_.store(true, std::memory_order_relaxed);
}

int64_t TraceCollector::NowMicros() const {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

TraceCollector::ThreadBuffer& TraceCollector::LocalBuffer() {
  if (tls_buffer == nullptr) {
    std::lock_guard<std::mutex> lock(mutex_);
    buffers_.push_back(std::make_unique<ThreadBuffer>());
    buffers_.back()->tid = static_cast<int>(buffers_.size());
    tls_buffer = buffers_.back().get();
  }
  return *tls_buffer;
}

void TraceCollector::Record(TraceEvent event) {
  ThreadBuffer& buffer = LocalBuffer();
  if (buffer.events.size() >= thread_buffer_cap()) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    MetricsRegistry::Global().GetCounter("trace.dropped_spans").Add(1);
    return;
  }
  event.tid = buffer.tid;
  buffer.events.push_back(std::move(event));
}

size_t TraceCollector::EventCount() const {
  std::lock_guard<std::mutex> lock(mutex_);
  size_t total = 0;
  for (const auto& buffer : buffers_) {
    total += buffer->events.size();
  }
  return total;
}

std::vector<TraceEvent> TraceCollector::SnapshotEvents() const {
  std::vector<TraceEvent> events;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& buffer : buffers_) {
      events.insert(events.end(), buffer->events.begin(), buffer->events.end());
    }
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     if (a.ts_micros != b.ts_micros) {
                       return a.ts_micros < b.ts_micros;
                     }
                     return a.tid < b.tid;
                   });
  return events;
}

std::string TraceCollector::ToJson() const {
  JsonWriter json;
  json.BeginObject();
  json.Key("traceEvents").BeginArray();
  for (const TraceEvent& event : SnapshotEvents()) {
    json.BeginObject();
    json.String("name", event.name);
    json.String("cat", event.category);
    json.String("ph", "X");
    json.Int("ts", event.ts_micros);
    json.Int("dur", event.dur_micros);
    json.Int("pid", 1);
    json.Int("tid", event.tid);
    json.Key("args").BeginObject();
    json.Int("span", static_cast<int64_t>(event.span));
    if (event.parent != 0) {
      json.Int("parent", static_cast<int64_t>(event.parent));
    }
    for (const auto& [key, value] : event.args) {
      json.String(key, value);
    }
    json.EndObject();
    json.EndObject();
  }
  json.EndArray();
  json.String("displayTimeUnit", "ms");
  uint64_t dropped = dropped_count();
  if (dropped > 0) {
    // Explicit cap note: the trace is incomplete, and by how much.
    json.Int("droppedEvents", static_cast<int64_t>(dropped));
    json.String("droppedNote",
                "per-thread buffer cap (" + std::to_string(thread_buffer_cap()) +
                    " events) reached; " + std::to_string(dropped) + " span(s) dropped");
  }
  json.EndObject();
  return json.str();
}

bool TraceCollector::WriteJson(const std::string& path) const {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    return false;
  }
  out << ToJson() << "\n";
  return out.good();
}

void TraceCollector::Clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& buffer : buffers_) {
    buffer->events.clear();
  }
  dropped_.store(0, std::memory_order_relaxed);
}

void TraceSpan::Begin(const char* name, const char* category) {
  event_.name = name;
  event_.category = category;
  event_.span = next_span_id.fetch_add(1, std::memory_order_relaxed);
  event_.parent = SetCurrentTraceSpan(event_.span);
  event_.ts_micros = TraceCollector::Global().NowMicros();
}

void TraceSpan::End() {
  if (!active_) {
    return;
  }
  tls_current_span = event_.parent;
  TraceCollector& collector = TraceCollector::Global();
  if (!collector.enabled()) {
    return;  // tracing stopped mid-span; drop the event
  }
  event_.dur_micros = collector.NowMicros() - event_.ts_micros;
  collector.Record(std::move(event_));
}

}  // namespace vc
