// Work-stealing thread pool backing the parallel analysis pipeline.
//
// The pipeline's unit of parallelism is the data-parallel loop: per-file
// parse/lower in Project construction and per-function detection in the
// detector. ParallelFor covers both: the iteration space is split into
// contiguous chunks dealt round-robin onto per-lane deques; each lane pops
// from the front of its own deque and, when empty, steals from the back of
// the busiest other lane. The calling thread always runs lane 0 itself, so a
// ParallelFor makes progress even when every pool worker is busy elsewhere.
//
// Guarantees:
//   * body(i) is invoked exactly once for every i in [0, n) (or until the
//     first exception aborts the loop);
//   * the first exception thrown by any lane is rethrown on the caller;
//   * nested ParallelFor calls (from inside a body) execute inline on the
//     calling lane — correct, never deadlocks, no thread oversubscription;
//   * result ordering is the caller's responsibility: workers should write
//     into pre-sized slots indexed by i, which makes any downstream merge
//     deterministic regardless of execution order.
//
// Instrumentation: the pool keeps relaxed-atomic counters (tasks executed,
// chunks claimed, steals, submit-queue high-water mark) that cost one RMW
// each on paths that already take a lock, plus worker idle time and the
// latency of each successful steal (own-deque miss to chunk acquired), both
// clocked only while MetricsEnabled(). stats() snapshots them; callers
// wanting per-phase numbers diff two snapshots. The pool keeps no per-worker
// books: per-worker busy time, idle time and utilization come from trace
// spans (AnalyzeSpans, src/support/span_analysis.h).
//
// Tracing: a pooled ParallelFor opens one `parallel_for` span and hands it to
// every lane. Each lane opens a `lane` span under it on the thread that runs
// the lane, so spans the body opens record their lane as their parent, and
// the lane names the loop, on any thread.

#ifndef VALUECHECK_SRC_SUPPORT_THREAD_POOL_H_
#define VALUECHECK_SRC_SUPPORT_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace vc {

// Resolves a --jobs style request: values <= 0 mean "all hardware threads";
// anything else is taken as-is.
int ResolveJobs(int jobs);

// Detected hardware parallelism. std::thread::hardware_concurrency() may
// legally return 0 ("unknown"); this helper documents the fallback in one
// place: an unknown count is reported as 1 so callers treat the machine as
// serial rather than dividing by zero or inventing cores.
int HardwareThreads();

// Cumulative pool activity since construction (Global(): since process
// start). Subtract two snapshots for a per-phase view.
struct ThreadPoolStats {
  // Steal latencies are bucketed by log2(nanoseconds): bucket b holds steals
  // whose own-deque-miss-to-chunk-acquired latency was in [2^(b-1), 2^b) ns
  // (bucket 0: < 1ns). 48 buckets cover ~78 hours; the last bucket absorbs
  // any overflow.
  static constexpr int kStealLatencyBuckets = 48;

  uint64_t parallel_fors = 0;    // pooled loops run (inline loops not counted)
  uint64_t tasks_executed = 0;   // lane tasks drained from the submit queue
  uint64_t chunks_executed = 0;  // iteration chunks claimed across all lanes
  uint64_t steals = 0;           // chunks claimed from another lane's deque
  uint64_t queue_depth_hwm = 0;  // max pending tasks observed in the queue
  double worker_idle_seconds = 0.0;  // summed cv-wait time (metrics-enabled only)
  int workers = 0;
  std::vector<uint64_t> steal_latency_ns;  // kStealLatencyBuckets log2 buckets
                                           // (populated while MetricsEnabled())

  ThreadPoolStats Delta(const ThreadPoolStats& since) const {
    ThreadPoolStats d = *this;
    d.parallel_fors -= since.parallel_fors;
    d.tasks_executed -= since.tasks_executed;
    d.chunks_executed -= since.chunks_executed;
    d.steals -= since.steals;
    d.worker_idle_seconds -= since.worker_idle_seconds;
    for (size_t b = 0; b < d.steal_latency_ns.size(); ++b) {
      if (b >= since.steal_latency_ns.size()) break;
      d.steal_latency_ns[b] -= since.steal_latency_ns[b];
    }
    // queue_depth_hwm and workers stay absolute: they are level, not flow.
    return d;
  }
};

class ThreadPool {
 public:
  // Starts `threads` persistent workers (clamped to at least 1).
  explicit ThreadPool(int threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int thread_count() const { return static_cast<int>(workers_.size()); }

  // Process-wide pool sized to the hardware, started on first use. All
  // ParallelFor lanes beyond the caller run here, so the total is bounded by
  // hardware_concurrency regardless of how many loops run concurrently.
  static ThreadPool& Global();

  // Runs body(i) for every i in [0, n) across up to `jobs` lanes (the caller
  // plus pool workers). Blocks until every iteration has finished; rethrows
  // the first exception raised by any lane. jobs <= 1 runs inline.
  void ParallelFor(int jobs, size_t n, const std::function<void(size_t)>& body);

  ThreadPoolStats stats() const;

  // Steal-latency hook used by the ParallelFor lane runner.
  void RecordStealLatency(uint64_t nanos);

 private:
  void WorkerLoop();
  void Submit(std::function<void()> task);

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;

  // Observability counters (see header comment).
  std::atomic<uint64_t> parallel_fors_{0};
  std::atomic<uint64_t> tasks_executed_{0};
  std::atomic<uint64_t> chunks_executed_{0};
  std::atomic<uint64_t> steals_{0};
  std::atomic<uint64_t> queue_depth_hwm_{0};
  std::atomic<uint64_t> idle_nanos_{0};
  std::atomic<uint64_t>
      steal_latency_ns_[ThreadPoolStats::kStealLatencyBuckets] = {};
};

// Convenience wrapper over ThreadPool::Global().
void ParallelFor(int jobs, size_t n, const std::function<void(size_t)>& body);

}  // namespace vc

#endif  // VALUECHECK_SRC_SUPPORT_THREAD_POOL_H_
