// The incremental engine's analysis cache (DESIGN.md §18).
//
// Two tiers share one invariant: a file's cached detect results are valid
// exactly when (file content, analysis configuration) both match.
//
//  * The memory tier is the per-path FileCacheEntry map: the engine's
//    persistent Project already holds the parsed TU and lowered IR, so the
//    entry only stores the content hash (parse-skip decision) and the file's
//    finished candidate slice (carry-over decision), which the reports that
//    carry the file share. Candidate pointers stay valid because a slot's
//    AST/IR is only replaced when its content changes — which also
//    invalidates the entry.
//  * The disk tier (--cache-dir) serializes entries as one JSON file per
//    source path, keyed by content hash AND a config key folding in the
//    preprocessor macros, the enabled checker list, project traits, budget
//    and fault settings, and the cache schema version. Loaded candidates are
//    value-only (callee_name, slot ids, line/column locations); the load
//    checks the stored function list against the freshly compiled module and
//    rebinds AST/IR pointers against it.
//
// A corrupt or truncated disk entry is never fatal: it degrades to a cache
// miss and surfaces through the quarantine channel ("cache" stage), matching
// the fault-isolation contract of every other pipeline stage.

#ifndef VALUECHECK_SRC_CORE_ANALYSIS_CACHE_H_
#define VALUECHECK_SRC_CORE_ANALYSIS_CACHE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/checkers/driver.h"
#include "src/support/fault.h"

namespace vc {

// Bumped whenever the serialized entry shape or the meaning of any cached
// field changes; old entries then read as stale (miss), never as garbage.
inline constexpr int kCacheSchemaVersion = 2;

// FNV-1a 64-bit. Stable across runs and platforms; collisions would carry a
// stale result, so the 64-bit width matters.
uint64_t HashContent(std::string_view text);

// Cumulative engine telemetry; published as cache.* metrics and reported in
// IncrementalResult.
struct CacheStats {
  uint64_t parse_hits = 0;         // files whose content hash matched (no re-parse)
  uint64_t parse_misses = 0;       // files (re)compiled
  uint64_t detect_carried = 0;     // functions served from cache
  uint64_t detect_recomputed = 0;  // functions re-run (files that changed)
  uint64_t disk_loads = 0;         // file entries restored from --cache-dir
  uint64_t disk_stores = 0;        // file entries written to --cache-dir
  uint64_t disk_corrupt = 0;       // unreadable entries degraded to misses

  double DetectHitRate() const {
    const uint64_t total = detect_carried + detect_recomputed;
    return total == 0 ? 0.0 : static_cast<double>(detect_carried) / static_cast<double>(total);
  }
};

// One file's cached state.
struct FileCacheEntry {
  uint64_t content_hash = 0;
  // The file's slice as the last analysis finished it: the detect results of
  // every function of the file's module, in module order, and the verdicts
  // they were given. Identical content lowers to the same functions in the
  // same order, so the file carries exactly when the slice covers one
  // function per function of the module; anything else means every
  // function of the file must be (re)detected. Null until a detect result
  // is stored; a file without functions needs none.
  std::shared_ptr<const CandidateSlice> slice;

  size_t functions() const { return slice != nullptr ? slice->functions.size() : 0; }
};

class AnalysisCache {
 public:
  // `cache_dir` empty = memory tier only. `config_key` is the canonical
  // configuration string (see MakeConfigKey in incremental.cc).
  AnalysisCache(std::string cache_dir, std::string config_key);

  // Memory tier: get-or-create / look up / drop the entry for a path.
  FileCacheEntry& File(const std::string& path) { return files_[path]; }
  const FileCacheEntry* Find(const std::string& path) const {
    auto it = files_.find(path);
    return it != files_.end() ? &it->second : nullptr;
  }
  void Remove(const std::string& path) { files_.erase(path); }

  // Disk tier. Load validates the header (schema version, config key,
  // content hash) and the function list against `module`, the file's freshly
  // compiled IR; on a hit it returns the detect results as a slice rebound to
  // `module`, whose candidates' checker indexes are still to be set. A stale
  // or absent entry is a plain miss (null); a corrupt one (unparsable, or a
  // function count or name that disagrees with `module`) also appends a
  // "cache"-stage quarantine record. Store writes a slice's detect results
  // atomically (tmp + rename), skips slices rebinding could not reproduce,
  // and is a no-op without a cache dir.
  std::shared_ptr<CandidateSlice> LoadFromDisk(const std::string& path, uint64_t content_hash,
                                               const IrModule& module,
                                               std::vector<QuarantinedUnit>& quarantine);
  void StoreToDisk(const std::string& path, uint64_t content_hash, const CandidateSlice& slice,
                   const IrModule& module);

  CacheStats& stats() { return stats_; }
  const CacheStats& stats() const { return stats_; }

  // Mirrors the cumulative stats into the global MetricsRegistry:
  // cache.parse.hits/misses, cache.detect.carried/recomputed,
  // cache.disk.loads/stores/corrupt (counters track deltas since the last
  // publish; cache.files / cache.functions gauges report occupancy).
  void PublishMetrics();

 private:
  std::string DiskPath(const std::string& path) const;

  std::string cache_dir_;
  std::string config_key_;
  std::map<std::string, FileCacheEntry> files_;
  CacheStats stats_;
  CacheStats published_;  // counter values already pushed to the registry
};

}  // namespace vc

#endif  // VALUECHECK_SRC_CORE_ANALYSIS_CACHE_H_
