// In-memory trace of one benchmark process (perfbench/README.md, "Traced
// run"). Spans are recorded around calls into the analyzer's layers from the
// benchmark's side of the API; nothing inside src/ is instrumented.
//
// Two kinds of record, both kept in memory and written out once at exit:
//
//  * spans (name, start, end, parent) for coarse calls — one per project
//    build, checker run, pruning pass, commit, ...;
//  * per-name totals (calls, nanoseconds) for the per-file and per-function
//    calls of the serial front-end and dataflow passes, which number in the
//    hundreds of thousands on the large workloads. Those passes run on one
//    thread, so each total is the layer's self time.
//
// Counters (tokens, functions, candidates, ...) ride along under their
// metric names.

#ifndef VALUECHECK_PERFBENCH_TRACE_LOG_H_
#define VALUECHECK_PERFBENCH_TRACE_LOG_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/support/json_writer.h"

namespace perfbench {

inline int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class TraceLog {
 public:
  struct SpanRecord {
    std::string name;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int parent = -1;
  };
  struct Total {
    int64_t calls = 0;
    int64_t nanos = 0;
  };

  // RAII span; nests under the innermost open span of the same log.
  class Span {
   public:
    Span(TraceLog& log, std::string name) : log_(log), index_(log.Open(std::move(name))) {}
    ~Span() { log_.Close(index_); }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    TraceLog& log_;
    int index_;
  };

  // RAII accumulation into a per-name total (no span record).
  class Timed {
   public:
    explicit Timed(Total& total) : total_(total), start_(NowNanos()) {}
    ~Timed() {
      total_.calls += 1;
      total_.nanos += NowNanos() - start_;
    }
    Timed(const Timed&) = delete;
    Timed& operator=(const Timed&) = delete;

   private:
    Total& total_;
    int64_t start_;
  };

  Total& TotalFor(const std::string& name) { return totals_[name]; }
  void Count(const std::string& name, double value) { counters_[name] += value; }

  // Summed duration of every span named `name`.
  int64_t SpanNanos(const std::string& name) const {
    int64_t sum = 0;
    for (const SpanRecord& span : spans_) {
      if (span.name == name) {
        sum += span.end_ns - span.start_ns;
      }
    }
    return sum;
  }

  std::string ToJson() const {
    vc::JsonWriter json;
    json.BeginObject();
    json.Key("spans").BeginArray();
    for (const SpanRecord& span : spans_) {
      json.BeginObject();
      json.String("name", span.name);
      json.Int("start_ns", span.start_ns);
      json.Int("end_ns", span.end_ns);
      json.Int("parent", span.parent);
      json.EndObject();
    }
    json.EndArray();
    json.Key("totals").BeginObject();
    for (const auto& [name, total] : totals_) {
      json.Key(name).BeginObject();
      json.Int("calls", total.calls);
      json.Int("nanos", total.nanos);
      json.EndObject();
    }
    json.EndObject();
    json.Key("counters").BeginObject();
    for (const auto& [name, value] : counters_) {
      json.Int(name, static_cast<int64_t>(value));
    }
    json.EndObject();
    json.EndObject();
    return json.str();
  }

 private:
  int Open(std::string name) {
    SpanRecord span;
    span.name = std::move(name);
    span.parent = open_.empty() ? -1 : open_.back();
    span.start_ns = NowNanos();
    spans_.push_back(std::move(span));
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }
  void Close(int index) {
    spans_[index].end_ns = NowNanos();
    open_.pop_back();
  }

  std::vector<SpanRecord> spans_;
  std::vector<int> open_;
  std::map<std::string, Total> totals_;
  std::map<std::string, double> counters_;
};

}  // namespace perfbench

#endif  // VALUECHECK_PERFBENCH_TRACE_LOG_H_
