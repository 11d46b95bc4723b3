// vc_obs_lint — validator for the observability artifacts valuecheck emits,
// used by tools/check.sh's observability smoke and handy interactively:
//
//   vc_obs_lint events FILE   one JSON object per line, parsed with the
//                             project json_reader; "event"/"seq"/"ts_us"
//                             present on every line; "seq" dense from 0 and
//                             strictly increasing in file order; first event
//                             run_start, last run_end
//   vc_obs_lint prom FILE [--require-cache] [--require-serve]
//                             Prometheus text exposition 0.0.4: every sample
//                             line is `name{...} value` with a [a-zA-Z_:]
//                             leading character, every metric has a # TYPE,
//                             and at least one vc_ sample exists. Any
//                             vc_cache_* samples (the incremental engine's
//                             cache.* family) must be non-negative and come
//                             with the vc_cache_files/vc_cache_functions
//                             gauges; --require-cache additionally fails the
//                             lint when the family is absent entirely (used
//                             by the incremental smoke in tools/check.sh).
//                             Any vc_serve_* samples (the daemon's serve.*
//                             family) must be non-negative, carry the
//                             request-latency histogram, and satisfy the
//                             admission accounting identity
//                             requests == ok+degraded+shed+deadline+failed;
//                             --require-serve additionally fails the lint
//                             when the family is absent (the serve smoke).
//                             Any vc_pipeline_*_seconds histogram requires
//                             all six stage families (parse, detect,
//                             authorship, cross_scope_filter, prune, rank):
//                             every stage records where it runs. When
//                             vc_mem_tracked_bytes > 0, every per-category
//                             vc_mem_<category>_bytes sample must be > 0: a
//                             category that reads zero while memory is
//                             tracked has no producer
//   vc_obs_lint folded FILE   collapsed-stack: every line is
//                             `frame(;frame)* <positive integer>` with no
//                             two identical adjacent frames, and the file
//                             is non-empty
//   vc_obs_lint perf FILE     --perf-report JSON: required fields in the
//                             schema's stable order, serial fraction and
//                             every utilization in [0, 1], worker ids
//                             dense from 0, and a wall_seconds that covers
//                             the span window (any worker's busy + idle
//                             seconds) up to 10 us of timestamp rounding and
//                             the report's six significant digits
//
// The folded listing comes from the recorded span tree, where a pool
// worker's frames sit under the lane that ran them. The pool runs nested
// loops inline and no span opens inside one of its own name, so an `a;a`
// pair in it is always an attribution artifact.
//
// Exit 0 on success (prints one summary line), 1 on any violation (first
// violation printed with its line number), 2 on usage/IO errors.

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "src/support/json_reader.h"

namespace {

int Fail(const std::string& path, int line_no, const std::string& message) {
  std::fprintf(stderr, "vc_obs_lint: %s:%d: %s\n", path.c_str(), line_no, message.c_str());
  return 1;
}

// The first frame of a `a;b;c` stack that repeats its predecessor, or "".
std::string SelfNestedFrame(const std::string& stack) {
  std::istringstream frames(stack);
  std::string frame, previous;
  while (std::getline(frames, frame, ';')) {
    if (frame == previous) {
      return frame;
    }
    previous = frame;
  }
  return "";
}

std::optional<std::vector<std::string>> ReadLines(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "vc_obs_lint: cannot read %s\n", path.c_str());
    return std::nullopt;
  }
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    lines.push_back(line);
  }
  return lines;
}

int LintEvents(const std::string& path) {
  std::optional<std::vector<std::string>> lines = ReadLines(path);
  if (!lines.has_value()) {
    return 2;
  }
  if (lines->empty()) {
    return Fail(path, 0, "event stream is empty");
  }
  int64_t expected_seq = 0;
  std::string first_type;
  std::string last_type;
  for (size_t i = 0; i < lines->size(); ++i) {
    const int line_no = static_cast<int>(i) + 1;
    const std::string& line = (*lines)[i];
    if (line.empty()) {
      return Fail(path, line_no, "empty line in JSONL stream");
    }
    std::string error;
    std::optional<vc::JsonValue> value = vc::ParseJson(line, &error);
    if (!value.has_value()) {
      return Fail(path, line_no, "unparsable JSON: " + error);
    }
    if (!value->IsObject()) {
      return Fail(path, line_no, "line is not a JSON object");
    }
    if (!value->Has("event") || !value->Has("seq") || !value->Has("ts_us")) {
      return Fail(path, line_no, "missing required field (event/seq/ts_us)");
    }
    int64_t seq = value->GetInt("seq", -1);
    if (seq != expected_seq) {
      return Fail(path, line_no,
                  "seq " + std::to_string(seq) + ", expected " + std::to_string(expected_seq) +
                      " (must be dense and strictly increasing)");
    }
    ++expected_seq;
    if (value->GetInt("ts_us", -1) < 0) {
      return Fail(path, line_no, "negative ts_us");
    }
    last_type = value->GetString("event");
    if (i == 0) {
      first_type = last_type;
    }
  }
  if (first_type != "run_start") {
    return Fail(path, 1, "first event is '" + first_type + "', expected run_start");
  }
  if (last_type != "run_end") {
    return Fail(path, static_cast<int>(lines->size()),
                "last event is '" + last_type + "', expected run_end");
  }
  std::printf("vc_obs_lint: %s: %zu event(s) OK\n", path.c_str(), lines->size());
  return 0;
}

bool ValidMetricName(const std::string& name) {
  if (name.empty()) {
    return false;
  }
  for (size_t i = 0; i < name.size(); ++i) {
    char c = name[i];
    bool ok = std::isalpha(static_cast<unsigned char>(c)) || c == '_' || c == ':' ||
              (i > 0 && std::isdigit(static_cast<unsigned char>(c)));
    if (!ok) {
      return false;
    }
  }
  return true;
}

// Base metric name of a sample line: everything before the first '{' or ' '.
std::string SampleName(const std::string& line) {
  size_t end = line.find_first_of("{ ");
  return end == std::string::npos ? line : line.substr(0, end);
}

int LintProm(const std::string& path, bool require_cache, bool require_serve) {
  std::optional<std::vector<std::string>> lines = ReadLines(path);
  if (!lines.has_value()) {
    return 2;
  }
  std::vector<std::string> typed;  // names declared by # TYPE, in order
  size_t samples = 0;
  bool any_vc = false;
  size_t cache_samples = 0;
  bool cache_files_gauge = false;
  bool cache_functions_gauge = false;
  size_t serve_samples = 0;
  bool serve_latency_histogram = false;
  bool pipeline_family = false;  // any vc_pipeline_<stage>_seconds declared
  double mem_tracked = -1;       // vc_mem_tracked_bytes; -1 = not seen
  int empty_mem_line = 0;        // first per-category vc_mem_*_bytes sample <= 0
  std::string empty_mem_name;
  // Admission accounting counters; -1 = not seen in the exposition.
  double serve_requests = -1, serve_ok = -1, serve_degraded = -1;
  double serve_shed = -1, serve_deadline = -1, serve_failed = -1;
  for (size_t i = 0; i < lines->size(); ++i) {
    const int line_no = static_cast<int>(i) + 1;
    const std::string& line = (*lines)[i];
    if (line.empty()) {
      continue;
    }
    if (line[0] == '#') {
      std::istringstream meta(line);
      std::string hash, kind, name, type;
      meta >> hash >> kind >> name >> type;
      if (kind == "TYPE") {
        if (!ValidMetricName(name)) {
          return Fail(path, line_no, "bad metric name '" + name + "' in TYPE line");
        }
        if (type != "counter" && type != "gauge" && type != "histogram" &&
            type != "summary" && type != "untyped") {
          return Fail(path, line_no, "unknown metric type '" + type + "'");
        }
        typed.push_back(name);
        pipeline_family = pipeline_family || name.rfind("vc_pipeline_", 0) == 0;
      }
      continue;
    }
    // Sample line: NAME[{labels}] VALUE
    std::string name = SampleName(line);
    if (!ValidMetricName(name)) {
      return Fail(path, line_no, "bad sample metric name '" + name + "'");
    }
    size_t space = line.rfind(' ');
    if (space == std::string::npos || space + 1 >= line.size()) {
      return Fail(path, line_no, "sample line has no value");
    }
    const std::string value = line.substr(space + 1);
    char* end = nullptr;
    std::strtod(value.c_str(), &end);
    bool inf_nan = value == "+Inf" || value == "-Inf" || value == "NaN";
    if (!inf_nan && (end == value.c_str() || *end != '\0')) {
      return Fail(path, line_no, "unparsable sample value '" + value + "'");
    }
    // Histogram series (_bucket/_sum/_count) belong to their base TYPE name.
    bool declared = false;
    for (const std::string& t : typed) {
      if (name == t || name == t + "_bucket" || name == t + "_sum" || name == t + "_count") {
        declared = true;
        break;
      }
    }
    if (!declared) {
      return Fail(path, line_no, "sample '" + name + "' has no preceding # TYPE declaration");
    }
    if (name.rfind("vc_", 0) == 0) {
      any_vc = true;
    }
    // Incremental cache family: counters and gauges are monotone tallies of
    // parse/detect traffic — a negative value means the publisher regressed,
    // not that the run was merely cold.
    if (name.rfind("vc_cache_", 0) == 0) {
      ++cache_samples;
      if (std::strtod(value.c_str(), nullptr) < 0) {
        return Fail(path, line_no, "cache metric '" + name + "' is negative");
      }
      if (name == "vc_cache_files") {
        cache_files_gauge = true;
      }
      if (name == "vc_cache_functions") {
        cache_functions_gauge = true;
      }
    }
    // Memory family: vc_mem_<category>_bytes per category beside the
    // vc_mem_tracked_bytes and vc_mem_peak_rss_bytes totals.
    if (name == "vc_mem_tracked_bytes") {
      mem_tracked = std::strtod(value.c_str(), nullptr);
    } else if (empty_mem_line == 0 && name.rfind("vc_mem_", 0) == 0 &&
               name != "vc_mem_peak_rss_bytes" &&
               name.compare(name.size() - 6, 6, "_bytes") == 0 &&
               std::strtod(value.c_str(), nullptr) <= 0) {
      empty_mem_line = line_no;
      empty_mem_name = name;
    }
    // Daemon family: every serve.* metric is a tally or a high-water mark,
    // so a negative sample always means a publisher bug. The request
    // counters additionally obey the admission-control accounting identity
    // checked after the scan.
    if (name.rfind("vc_serve_", 0) == 0) {
      ++serve_samples;
      double v = std::strtod(value.c_str(), nullptr);
      if (v < 0) {
        return Fail(path, line_no, "serve metric '" + name + "' is negative");
      }
      if (name == "vc_serve_request_seconds_count") {
        serve_latency_histogram = true;
      } else if (name == "vc_serve_requests_total") {
        serve_requests = v;
      } else if (name == "vc_serve_ok_total") {
        serve_ok = v;
      } else if (name == "vc_serve_degraded_total") {
        serve_degraded = v;
      } else if (name == "vc_serve_shed_total") {
        serve_shed = v;
      } else if (name == "vc_serve_deadline_total") {
        serve_deadline = v;
      } else if (name == "vc_serve_failed_total") {
        serve_failed = v;
      }
    }
    ++samples;
  }
  if (samples == 0) {
    return Fail(path, 0, "no samples in exposition");
  }
  if (!any_vc) {
    return Fail(path, 0, "no vc_-prefixed samples (wrong file?)");
  }
  if (require_cache && cache_samples == 0) {
    return Fail(path, 0, "no vc_cache_* samples (incremental cache metrics missing)");
  }
  if (cache_samples > 0 && (!cache_files_gauge || !cache_functions_gauge)) {
    return Fail(path, 0,
                "vc_cache_* family present without the vc_cache_files/"
                "vc_cache_functions gauges (partial publish)");
  }
  if (require_serve && serve_samples == 0) {
    return Fail(path, 0, "no vc_serve_* samples (daemon metrics missing)");
  }
  if (pipeline_family) {
    for (const char* stage :
         {"parse", "detect", "authorship", "cross_scope_filter", "prune", "rank"}) {
      const std::string family = std::string("vc_pipeline_") + stage + "_seconds";
      if (std::find(typed.begin(), typed.end(), family) == typed.end()) {
        return Fail(path, 0, "vc_pipeline_*_seconds present without " + family +
                                 " (every stage records where it runs)");
      }
    }
  }
  if (mem_tracked > 0 && empty_mem_line > 0) {
    return Fail(path, empty_mem_line,
                "memory category '" + empty_mem_name +
                    "' is zero while vc_mem_tracked_bytes > 0 (a category with no producer)");
  }
  if (serve_samples > 0) {
    if (serve_requests < 0 || serve_ok < 0 || serve_degraded < 0 || serve_shed < 0 ||
        serve_deadline < 0 || serve_failed < 0) {
      return Fail(path, 0,
                  "vc_serve_* family present without the full request-accounting "
                  "counter set (requests/ok/degraded/shed/deadline/failed)");
    }
    if (!serve_latency_histogram) {
      return Fail(path, 0,
                  "vc_serve_* family present without the vc_serve_request_seconds "
                  "histogram");
    }
    const double accounted = serve_ok + serve_degraded + serve_shed + serve_deadline +
                             serve_failed;
    if (serve_requests != accounted) {
      return Fail(path, 0,
                  "serve accounting identity violated: vc_serve_requests_total " +
                      std::to_string(serve_requests) + " != ok+degraded+shed+deadline+failed " +
                      std::to_string(accounted));
    }
  }
  std::printf(
      "vc_obs_lint: %s: %zu sample(s), %zu metric(s), %zu cache sample(s), "
      "%zu serve sample(s) OK\n",
      path.c_str(), samples, typed.size(), cache_samples, serve_samples);
  return 0;
}

// Perf-report lint: the contract of `valuecheck analyze --perf-report`.
// Structural validity plus the invariants the span analytics guarantee by
// construction — every fraction in [0, 1], worker ids dense from 0 — and the
// stable top-level field order the schema promises.
int LintPerf(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "vc_obs_lint: cannot read %s\n", path.c_str());
    return 2;
  }
  std::string raw((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  std::string error;
  std::optional<vc::JsonValue> value = vc::ParseJson(raw, &error);
  if (!value.has_value()) {
    return Fail(path, 1, "unparsable JSON: " + error);
  }
  if (!value->IsObject()) {
    return Fail(path, 1, "perf report is not a JSON object");
  }
  static const char* kFieldOrder[] = {
      "schema_version",   "wall_seconds",       "jobs",
      "hardware_threads", "span_count",         "dropped_spans",
      "serial_fraction",  "total_busy_seconds", "workers",
      "mean_utilization", "imbalance",          "steals"};
  size_t cursor = 0;
  for (const char* key : kFieldOrder) {
    if (!value->Has(key)) {
      return Fail(path, 1, std::string("missing field '") + key + "'");
    }
    size_t pos = raw.find(std::string("\"") + key + "\":", cursor);
    if (pos == std::string::npos) {
      return Fail(path, 1, std::string("field '") + key +
                               "' out of order (stable field order violated)");
    }
    cursor = pos;
  }
  if (value->GetInt("schema_version") < 1) {
    return Fail(path, 1, "schema_version must be >= 1");
  }
  double wall = value->GetDouble("wall_seconds");
  if (wall < 0) {
    return Fail(path, 1, "negative wall_seconds");
  }
  if (value->GetInt("jobs") < 1 || value->GetInt("hardware_threads") < 1) {
    return Fail(path, 1, "jobs and hardware_threads must be >= 1");
  }
  if (value->GetInt("span_count", -1) < 0 || value->GetInt("dropped_spans", -1) < 0) {
    return Fail(path, 1, "negative span_count/dropped_spans");
  }
  double serial = value->GetDouble("serial_fraction");
  if (serial < 0 || serial > 1) {
    return Fail(path, 1, "serial_fraction outside [0, 1]");
  }
  const vc::JsonValue& workers = value->Get("workers");
  if (!workers.IsArray()) {
    return Fail(path, 1, "workers is not an array");
  }
  const std::vector<vc::JsonValue>& items = workers.Items();
  for (size_t i = 0; i < items.size(); ++i) {
    const vc::JsonValue& w = items[i];
    if (w.GetInt("id", -1) != static_cast<int64_t>(i)) {
      return Fail(path, 1, "worker ids are not dense from 0 (worker " +
                               std::to_string(i) + ")");
    }
    double util = w.GetDouble("utilization", -1);
    if (util < 0 || util > 1) {
      return Fail(path, 1, "worker " + std::to_string(i) + " utilization outside [0, 1]");
    }
    double busy = w.GetDouble("busy_seconds", -1);
    double idle = w.GetDouble("idle_seconds", -1);
    if (busy < 0 || idle < 0) {
      return Fail(path, 1, "worker " + std::to_string(i) + " has negative busy/idle time");
    }
    // The serial-fraction fit divides busy time by the wall, so the wall must
    // cover every span. The slack is 10 us of timestamp rounding plus the
    // JSON's six significant digits.
    double window = busy + idle;
    if (wall < window - (10e-6 + 1e-5 * window)) {
      return Fail(path, 1, "wall_seconds " + std::to_string(wall) +
                               " is shorter than the span window " +
                               std::to_string(window) + " (worker " + std::to_string(i) + ")");
    }
    for (const vc::JsonValue& v : w.Get("timeline").Items()) {
      double f = v.AsDouble(-1);
      if (f < 0 || f > 1) {
        return Fail(path, 1, "worker " + std::to_string(i) + " timeline value outside [0, 1]");
      }
    }
  }
  double mean_util = value->GetDouble("mean_utilization");
  if (mean_util < 0 || mean_util > 1) {
    return Fail(path, 1, "mean_utilization outside [0, 1]");
  }
  const vc::JsonValue& imbalance = value->Get("imbalance");
  if (imbalance.GetDouble("ratio", -1) < 0) {
    return Fail(path, 1, "negative imbalance.ratio");
  }
  const vc::JsonValue& steals = value->Get("steals");
  if (steals.GetInt("count", -1) < 0) {
    return Fail(path, 1, "negative steals.count");
  }
  for (const vc::JsonValue& bucket : steals.Get("latency_ns_log2").Items()) {
    if (bucket.AsDouble(-1) < 0) {
      return Fail(path, 1, "negative steal latency bucket");
    }
  }
  std::printf("vc_obs_lint: %s: perf report, %zu worker(s) OK\n", path.c_str(), items.size());
  return 0;
}

int LintFolded(const std::string& path) {
  std::optional<std::vector<std::string>> lines = ReadLines(path);
  if (!lines.has_value()) {
    return 2;
  }
  size_t stacks = 0;
  for (size_t i = 0; i < lines->size(); ++i) {
    const int line_no = static_cast<int>(i) + 1;
    const std::string& line = (*lines)[i];
    if (line.empty()) {
      continue;
    }
    size_t space = line.rfind(' ');
    if (space == std::string::npos || space == 0) {
      return Fail(path, line_no, "expected 'stack weight', got '" + line + "'");
    }
    const std::string weight = line.substr(space + 1);
    char* end = nullptr;
    long long parsed = std::strtoll(weight.c_str(), &end, 10);
    if (end == weight.c_str() || *end != '\0' || parsed <= 0) {
      return Fail(path, line_no, "weight must be a positive integer, got '" + weight + "'");
    }
    const std::string stack = line.substr(0, space);
    if (stack.front() == ';' || stack.back() == ';' || stack.find(";;") != std::string::npos) {
      return Fail(path, line_no, "malformed frame list '" + stack + "'");
    }
    const std::string repeated = SelfNestedFrame(stack);
    if (!repeated.empty()) {
      return Fail(path, line_no, "self-nested frame '" + repeated + "' in stack '" + stack + "'");
    }
    ++stacks;
  }
  if (stacks == 0) {
    return Fail(path, 0, "no stacks in profile");
  }
  std::printf("vc_obs_lint: %s: %zu stack(s) OK\n", path.c_str(), stacks);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const char* kUsage =
      "usage: vc_obs_lint <events|prom|folded|perf> FILE [--require-cache] [--require-serve]\n";
  if (argc < 3) {
    std::fprintf(stderr, "%s", kUsage);
    return 2;
  }
  const std::string mode = argv[1];
  const std::string path = argv[2];
  bool require_cache = false;
  bool require_serve = false;
  for (int i = 3; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--require-cache") {
      require_cache = true;
    } else if (flag == "--require-serve") {
      require_serve = true;
    } else {
      std::fprintf(stderr, "%s", kUsage);
      return 2;
    }
  }
  if ((require_cache || require_serve) && mode != "prom") {
    std::fprintf(stderr, "vc_obs_lint: --require-cache/--require-serve only apply to prom mode\n");
    return 2;
  }
  if (mode == "events") {
    return LintEvents(path);
  }
  if (mode == "prom") {
    return LintProm(path, require_cache, require_serve);
  }
  if (mode == "folded") {
    return LintFolded(path);
  }
  if (mode == "perf") {
    return LintPerf(path);
  }
  std::fprintf(stderr, "vc_obs_lint: unknown mode '%s' (expected events, prom, folded, perf)\n",
               mode.c_str());
  return 2;
}
