// Memory accounting for the analysis pipeline: exact, deterministic byte and
// object counts per allocation category (AST nodes, IR instructions,
// interned identifier strings), plus process peak-RSS sampling.
//
// Design constraints (see DESIGN.md §"Resource observability"):
//   * Add() is a pair of relaxed atomic fetch_adds per category — safe from
//     any worker thread, no locks. Addition commutes, so the totals are exact
//     and byte-identical at any --jobs value; only the RSS samples (a
//     property of the OS process, not of the analysis) vary between runs.
//   * Tracking is gated by an enabled flag mirroring MetricsRegistry:
//     producers compute footprints only when somebody is collecting, so the
//     disabled pipeline pays two relaxed loads and nothing else.
//   * The global tracker accumulates across runs in one process (like every
//     registry counter); per-run attribution lives in AnalysisReport's
//     MemoryStats, assembled from slot-indexed per-file/per-function sums.
//   * Counted bytes are sizeof-based footprints of what the pipeline
//     materializes (not allocator-level truth): stable within a build, which
//     is what cross-jobs and cross-flag byte-identity requires.

#ifndef VALUECHECK_SRC_SUPPORT_MEMSTATS_H_
#define VALUECHECK_SRC_SUPPORT_MEMSTATS_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace vc {

enum class MemCategory {
  kAstNodes = 0,
  kIrInstructions,
  kInternedStrings,
};
inline constexpr int kMemCategoryCount = 3;

// Stable snake_case label ("ast_nodes", "ir_instructions", "interned_strings")
// used in JSON, ledger, and metric names.
const char* MemCategoryName(MemCategory category);

// One category's running tally. Addition commutes: merging per-slot counts in
// any order yields identical totals.
struct MemCount {
  uint64_t bytes = 0;
  uint64_t objects = 0;

  MemCount& operator+=(const MemCount& other) {
    bytes += other.bytes;
    objects += other.objects;
    return *this;
  }
};

class MemoryTracker {
 public:
  static MemoryTracker& Global();

  void Enable() { enabled_.store(true, std::memory_order_relaxed); }
  void Disable() { enabled_.store(false, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  // Adds bytes/objects to a category. Hot-path safe: two relaxed fetch_adds.
  void Add(MemCategory category, uint64_t bytes, uint64_t objects);
  void Add(MemCategory category, const MemCount& count) {
    Add(category, count.bytes, count.objects);
  }

  MemCount Get(MemCategory category) const;
  uint64_t TotalTrackedBytes() const;

  // Samples the process peak RSS and keeps the high-water mark.
  void SampleRss();
  uint64_t peak_rss_bytes() const { return peak_rss_.load(std::memory_order_relaxed); }

  // Publishes current totals into the MetricsRegistry as mem.* gauges
  // (mem.<category>.bytes / mem.<category>.objects, mem.tracked_bytes,
  // mem.peak_rss_bytes) for the Prometheus dump.
  void PublishRegistryGauges() const;

  void ResetAll();

 private:
  MemoryTracker() = default;

  struct Slot {
    std::atomic<uint64_t> bytes{0};
    std::atomic<uint64_t> objects{0};
  };
  Slot slots_[kMemCategoryCount];
  std::atomic<uint64_t> peak_rss_{0};
  std::atomic<bool> enabled_{false};
};

// Shorthand for MemoryTracker::Global().enabled().
inline bool MemoryTrackingEnabled() { return MemoryTracker::Global().enabled(); }

// Process peak resident set size in bytes: /proc/self/status VmHWM when
// available, getrusage(ru_maxrss) otherwise, 0 if neither works.
uint64_t ProcessPeakRssBytes();

// One pipeline stage's memory attribution within a run. tracked_bytes_peak is
// the deterministic running total of tracked bytes at the end of the stage;
// rss_bytes is the (nondeterministic) process peak-RSS sample taken there.
struct StageMemory {
  std::string stage;
  uint64_t tracked_bytes_delta = 0;
  uint64_t tracked_bytes_peak = 0;
  uint64_t rss_bytes = 0;
};

// Per-run memory accounting surfaced on AnalysisReport. Everything except
// peak_rss_bytes and StageMemory::rss_bytes is exact and byte-identical
// across --jobs values.
struct MemoryStats {
  bool collected = false;
  MemCount categories[kMemCategoryCount];
  uint64_t peak_rss_bytes = 0;
  std::vector<StageMemory> stages;

  uint64_t TrackedBytes() const {
    uint64_t total = 0;
    for (const MemCount& count : categories) {
      total += count.bytes;
    }
    return total;
  }
  uint64_t TrackedObjects() const {
    uint64_t total = 0;
    for (const MemCount& count : categories) {
      total += count.objects;
    }
    return total;
  }
};

}  // namespace vc

#endif  // VALUECHECK_SRC_SUPPORT_MEMSTATS_H_
