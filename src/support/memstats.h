// Memory accounting for the analysis pipeline: exact, deterministic byte and
// object counts per allocation category (AST nodes, IR instructions,
// interned identifier strings), plus process peak-RSS sampling.
//
// Design constraints (see DESIGN.md §"Resource observability"):
//   * The counts live in one place: each Project file record holds its own
//     footprint, and a run's MemoryStats sums the live files. Recompiling a
//     file replaces its footprint and removing it drops it, so a report
//     counts what is resident, never what was ever allocated.
//   * MemoryTracker holds only the process-wide on/off switch and the RSS
//     high-water mark. Producers compute footprints only while the switch is
//     on, so the disabled pipeline pays one relaxed load per file.
//   * Counted bytes are sizeof-based footprints of what the pipeline
//     materializes (not allocator-level truth): stable within a build, which
//     is what cross-jobs and cross-flag byte-identity requires. Only the RSS
//     samples (a property of the OS process, not of the analysis) vary
//     between runs.

#ifndef VALUECHECK_SRC_SUPPORT_MEMSTATS_H_
#define VALUECHECK_SRC_SUPPORT_MEMSTATS_H_

#include <atomic>
#include <cstdint>

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

  // Samples the process peak RSS and keeps the high-water mark.
  void SampleRss();
  uint64_t peak_rss_bytes() const { return peak_rss_.load(std::memory_order_relaxed); }

 private:
  MemoryTracker() = default;

  std::atomic<uint64_t> peak_rss_{0};
  std::atomic<bool> enabled_{false};
};

// Shorthand for MemoryTracker::Global().enabled().
inline bool MemoryTrackingEnabled() { return MemoryTracker::Global().enabled(); }

// Process peak resident set size in bytes: /proc/self/status VmHWM when
// available, getrusage(ru_maxrss) otherwise, 0 if neither works.
uint64_t ProcessPeakRssBytes();

// Per-run memory accounting surfaced on AnalysisReport. Everything except
// peak_rss_bytes is exact and byte-identical across --jobs values.
struct MemoryStats {
  bool collected = false;
  MemCount categories[kMemCategoryCount];
  uint64_t peak_rss_bytes = 0;

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
