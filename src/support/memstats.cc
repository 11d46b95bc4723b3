#include "src/support/memstats.h"

#include <sys/resource.h>

#include <cstdlib>
#include <fstream>
#include <string>

namespace vc {

const char* MemCategoryName(MemCategory category) {
  switch (category) {
    case MemCategory::kAstNodes:
      return "ast_nodes";
    case MemCategory::kIrInstructions:
      return "ir_instructions";
    case MemCategory::kInternedStrings:
      return "interned_strings";
  }
  return "unknown";
}

MemoryTracker& MemoryTracker::Global() {
  static MemoryTracker* tracker = new MemoryTracker();  // never destroyed
  return *tracker;
}

void MemoryTracker::SampleRss() {
  uint64_t rss = ProcessPeakRssBytes();
  uint64_t seen = peak_rss_.load(std::memory_order_relaxed);
  while (rss > seen &&
         !peak_rss_.compare_exchange_weak(seen, rss, std::memory_order_relaxed)) {
  }
}

uint64_t ProcessPeakRssBytes() {
  // Preferred: VmHWM from /proc/self/status (peak resident set, in kB).
  std::ifstream status("/proc/self/status");
  if (status) {
    std::string line;
    while (std::getline(status, line)) {
      if (line.compare(0, 6, "VmHWM:") == 0) {
        uint64_t kb = std::strtoull(line.c_str() + 6, nullptr, 10);
        if (kb > 0) {
          return kb * 1024;
        }
        break;
      }
    }
  }
  // Fallback: getrusage reports ru_maxrss in kB on Linux.
  struct rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) == 0 && usage.ru_maxrss > 0) {
    return static_cast<uint64_t>(usage.ru_maxrss) * 1024;
  }
  return 0;
}

}  // namespace vc
