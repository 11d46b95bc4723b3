#include "src/support/memstats.h"

#include <sys/resource.h>

#include <cstdlib>
#include <fstream>

#include "src/support/metrics.h"

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

void MemoryTracker::Add(MemCategory category, uint64_t bytes, uint64_t objects) {
  Slot& slot = slots_[static_cast<int>(category)];
  slot.bytes.fetch_add(bytes, std::memory_order_relaxed);
  slot.objects.fetch_add(objects, std::memory_order_relaxed);
}

MemCount MemoryTracker::Get(MemCategory category) const {
  const Slot& slot = slots_[static_cast<int>(category)];
  MemCount count;
  count.bytes = slot.bytes.load(std::memory_order_relaxed);
  count.objects = slot.objects.load(std::memory_order_relaxed);
  return count;
}

uint64_t MemoryTracker::TotalTrackedBytes() const {
  uint64_t total = 0;
  for (const Slot& slot : slots_) {
    total += slot.bytes.load(std::memory_order_relaxed);
  }
  return total;
}

void MemoryTracker::SampleRss() {
  uint64_t rss = ProcessPeakRssBytes();
  uint64_t seen = peak_rss_.load(std::memory_order_relaxed);
  while (rss > seen &&
         !peak_rss_.compare_exchange_weak(seen, rss, std::memory_order_relaxed)) {
  }
}

void MemoryTracker::PublishRegistryGauges() const {
  MetricsRegistry& registry = MetricsRegistry::Global();
  for (int c = 0; c < kMemCategoryCount; ++c) {
    MemCount count = Get(static_cast<MemCategory>(c));
    std::string base = std::string("mem.") + MemCategoryName(static_cast<MemCategory>(c));
    registry.GetGauge(base + ".bytes").Set(static_cast<int64_t>(count.bytes));
    registry.GetGauge(base + ".objects").Set(static_cast<int64_t>(count.objects));
  }
  registry.GetGauge("mem.tracked_bytes").Set(static_cast<int64_t>(TotalTrackedBytes()));
  registry.GetGauge("mem.peak_rss_bytes").Set(static_cast<int64_t>(peak_rss_bytes()));
}

void MemoryTracker::ResetAll() {
  for (Slot& slot : slots_) {
    slot.bytes.store(0, std::memory_order_relaxed);
    slot.objects.store(0, std::memory_order_relaxed);
  }
  peak_rss_.store(0, std::memory_order_relaxed);
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
