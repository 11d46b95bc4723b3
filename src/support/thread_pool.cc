#include "src/support/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <utility>

#include "src/support/metrics.h"
#include "src/support/trace.h"

namespace vc {

namespace {

// Set while a thread is executing ParallelFor lanes; nested loops run inline.
thread_local bool tls_in_parallel_region = false;

uint64_t NowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// One chunk of the iteration space: [begin, end).
using Chunk = std::pair<size_t, size_t>;

// Shared state of one ParallelFor. Kept alive by shared_ptr captures so lane
// tasks that start after the loop already completed find an empty (but valid)
// state and return immediately.
struct ForState {
  struct Lane {
    std::mutex mutex;
    std::deque<Chunk> chunks;
  };

  explicit ForState(ThreadPool* owner, size_t lane_count, size_t total,
                    const std::function<void(size_t)>& body_fn, uint64_t fork)
      : pool(owner), body(body_fn), fork_span(fork), remaining(total) {
    lanes.reserve(lane_count);
    for (size_t i = 0; i < lane_count; ++i) {
      lanes.push_back(std::make_unique<Lane>());
    }
  }

  // Pops from the lane's own deque front; on miss, steals from the back of
  // the lane currently holding the most chunks. Returns false only when every
  // deque is empty (all work claimed).
  bool PopOrSteal(size_t self, Chunk& out) {
    {
      Lane& lane = *lanes[self];
      std::lock_guard<std::mutex> lock(lane.mutex);
      if (!lane.chunks.empty()) {
        out = lane.chunks.front();
        lane.chunks.pop_front();
        chunks_claimed.fetch_add(1, std::memory_order_relaxed);
        return true;
      }
    }
    // Own deque missed: everything from here on is steal hunting. The
    // miss-to-acquired latency feeds the steal-latency histogram, clocked
    // only while metrics are on.
    bool timed = MetricsEnabled();
    uint64_t hunt_start = timed ? NowNanos() : 0;
    while (true) {
      size_t victim = lanes.size();
      size_t victim_load = 0;
      for (size_t i = 0; i < lanes.size(); ++i) {
        if (i == self) {
          continue;
        }
        std::lock_guard<std::mutex> lock(lanes[i]->mutex);
        if (lanes[i]->chunks.size() > victim_load) {
          victim_load = lanes[i]->chunks.size();
          victim = i;
        }
      }
      if (victim == lanes.size()) {
        return false;
      }
      std::lock_guard<std::mutex> lock(lanes[victim]->mutex);
      if (lanes[victim]->chunks.empty()) {
        continue;  // raced with another thief; rescan
      }
      out = lanes[victim]->chunks.back();
      lanes[victim]->chunks.pop_back();
      chunks_claimed.fetch_add(1, std::memory_order_relaxed);
      steals.fetch_add(1, std::memory_order_relaxed);
      if (timed) {
        pool->RecordStealLatency(NowNanos() - hunt_start);
      }
      return true;
    }
  }

  // Runs one lane on the calling thread under the loop's parallel_for span.
  void RunLane(size_t self) {
    bool was_in_region = tls_in_parallel_region;
    tls_in_parallel_region = true;
    uint64_t outer_span = SetCurrentTraceSpan(fork_span);
    RunChunks(self);
    SetCurrentTraceSpan(outer_span);
    tls_in_parallel_region = was_in_region;
  }

  // Claims chunks until none remain anywhere, running the body over each,
  // inside one `lane` span: spans the body opens record the lane as their
  // parent, and its busy time counts for the thread that ran it. Every
  // popped chunk is credited to `remaining` whether it ran fully or was
  // skipped after an abort, so completion is always reached.
  void RunChunks(size_t self) {
    TraceSpan lane_span("lane", "threadpool");
    Chunk chunk;
    while (PopOrSteal(self, chunk)) {
      size_t len = chunk.second - chunk.first;
      if (!abort.load(std::memory_order_relaxed)) {
        try {
          for (size_t i = chunk.first; i < chunk.second; ++i) {
            if (abort.load(std::memory_order_relaxed)) {
              break;
            }
            body(i);
          }
        } catch (...) {
          {
            std::lock_guard<std::mutex> lock(error_mutex);
            if (!error) {
              error = std::current_exception();
            }
          }
          abort.store(true, std::memory_order_relaxed);
        }
      }
      if (remaining.fetch_sub(len) == len) {
        std::lock_guard<std::mutex> lock(done_mutex);
        done_cv.notify_all();
      }
    }
  }

  // Waits until every chunk is credited AND every submitted lane task has
  // dropped its state reference. The second condition pins the final
  // shared_ptr (and with it any captured exception_ptr) release to the
  // waiting thread: a straggler worker must never be the one to free state
  // the waiter just read, since that last-release edge runs through
  // library-internal refcounting no race detector can observe.
  void WaitDone() {
    std::unique_lock<std::mutex> lock(done_mutex);
    done_cv.wait(lock, [this] {
      return remaining.load() == 0 && holders.load(std::memory_order_acquire) == 0;
    });
  }

  // Called by a lane task's destructor after it released its reference; the
  // caller (ParallelFor) still holds one, so `this` is alive until WaitDone
  // observes the count at zero.
  void RetireHolder() {
    std::lock_guard<std::mutex> lock(done_mutex);
    holders.fetch_sub(1, std::memory_order_release);
    done_cv.notify_all();
  }

  ThreadPool* pool;
  const std::function<void(size_t)>& body;
  const uint64_t fork_span;  // the loop's parallel_for span id; 0 when untraced
  std::vector<std::unique_ptr<Lane>> lanes;
  std::atomic<size_t> remaining;
  std::atomic<uint64_t> chunks_claimed{0};
  std::atomic<uint64_t> steals{0};
  std::atomic<bool> abort{false};
  std::mutex error_mutex;
  std::exception_ptr error;
  std::mutex done_mutex;
  std::condition_variable done_cv;
  std::atomic<size_t> holders{0};
};

// A worker lane's share of a ParallelFor. The destructor drops the shared_ptr
// BEFORE signalling retirement, so the last ForState reference (and any
// exception captured inside it) is always released by the ParallelFor caller,
// never by a pool worker racing past the caller's wait.
struct LaneTask {
  LaneTask(std::shared_ptr<ForState> s, size_t lane_index)
      : state(std::move(s)), lane(lane_index) {
    state->holders.fetch_add(1, std::memory_order_relaxed);
  }
  LaneTask(const LaneTask& other) : state(other.state), lane(other.lane) {
    if (state) {
      state->holders.fetch_add(1, std::memory_order_relaxed);
    }
  }
  LaneTask(LaneTask&& other) noexcept
      : state(std::move(other.state)), lane(other.lane) {}
  LaneTask& operator=(const LaneTask&) = delete;
  LaneTask& operator=(LaneTask&&) = delete;
  ~LaneTask() {
    if (!state) {
      return;
    }
    ForState* raw = state.get();
    state.reset();
    raw->RetireHolder();
  }

  void operator()() { state->RunLane(lane); }

  std::shared_ptr<ForState> state;
  size_t lane;
};

}  // namespace

int ResolveJobs(int jobs) {
  if (jobs > 0) {
    return jobs;
  }
  return HardwareThreads();
}

int HardwareThreads() {
  unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

ThreadPool::ThreadPool(int threads) {
  int count = std::max(1, threads);
  workers_.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& worker : workers_) {
    worker.join();
  }
}

ThreadPool& ThreadPool::Global() {
  // Workers in addition to the calling thread (which runs lane 0 itself), so
  // a fully parallel loop occupies exactly the hardware.
  static ThreadPool pool(std::max(1, ResolveJobs(0) - 1));
  return pool;
}

void ThreadPool::WorkerLoop() {
  while (true) {
    std::function<void()> task;
    {
      // Idle time (the cv wait) is only clocked while metrics collection is
      // on: two steady_clock reads per wake are the one cost worth gating.
      bool timed = MetricsEnabled();
      auto idle_start =
          timed ? std::chrono::steady_clock::now() : std::chrono::steady_clock::time_point();
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (timed) {
        idle_nanos_.fetch_add(
            static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                      std::chrono::steady_clock::now() - idle_start)
                                      .count()),
            std::memory_order_relaxed);
      }
      if (stop_ && queue_.empty()) {
        return;
      }
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    tasks_executed_.fetch_add(1, std::memory_order_relaxed);
    task();
  }
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    queue_.push_back(std::move(task));
    uint64_t depth = queue_.size();
    if (depth > queue_depth_hwm_.load(std::memory_order_relaxed)) {
      queue_depth_hwm_.store(depth, std::memory_order_relaxed);
    }
  }
  cv_.notify_one();
}

void ThreadPool::ParallelFor(int jobs, size_t n,
                             const std::function<void(size_t)>& body) {
  jobs = ResolveJobs(jobs);
  if (n == 0) {
    return;
  }
  if (jobs <= 1 || n == 1 || tls_in_parallel_region) {
    // Serial request, trivial loop, or a nested loop: run inline.
    bool was_in_region = tls_in_parallel_region;
    tls_in_parallel_region = true;
    try {
      for (size_t i = 0; i < n; ++i) {
        body(i);
      }
    } catch (...) {
      tls_in_parallel_region = was_in_region;
      throw;
    }
    tls_in_parallel_region = was_in_region;
    return;
  }

  size_t lane_count = std::min(static_cast<size_t>(jobs), n);
  parallel_fors_.fetch_add(1, std::memory_order_relaxed);
  TraceSpan span("parallel_for", "threadpool");
  span.Arg("n", static_cast<int64_t>(n));
  span.Arg("lanes", static_cast<int64_t>(lane_count));
  auto state = std::make_shared<ForState>(this, lane_count, n, body, span.id());

  // Chunks several times smaller than a lane's fair share keep the stealing
  // granular without swamping the deques for huge n.
  size_t chunk_size = std::max<size_t>(1, n / (lane_count * 8));
  size_t lane = 0;
  for (size_t begin = 0; begin < n; begin += chunk_size) {
    size_t end = std::min(n, begin + chunk_size);
    state->lanes[lane]->chunks.push_back({begin, end});
    lane = (lane + 1) % lane_count;
  }

  for (size_t i = 1; i < lane_count; ++i) {
    Submit(LaneTask(state, i));
  }
  state->RunLane(0);
  state->WaitDone();
  // All chunks are claimed and credited once WaitDone returns, so the loop's
  // counters are final; fold them into the pool-lifetime totals.
  chunks_executed_.fetch_add(state->chunks_claimed.load(std::memory_order_relaxed),
                             std::memory_order_relaxed);
  steals_.fetch_add(state->steals.load(std::memory_order_relaxed), std::memory_order_relaxed);
  if (state->error) {
    std::rethrow_exception(state->error);
  }
}

void ThreadPool::RecordStealLatency(uint64_t nanos) {
  int bucket = 0;
  while (bucket + 1 < ThreadPoolStats::kStealLatencyBuckets &&
         nanos >= (uint64_t{1} << bucket)) {
    ++bucket;
  }
  steal_latency_ns_[bucket].fetch_add(1, std::memory_order_relaxed);
}

ThreadPoolStats ThreadPool::stats() const {
  ThreadPoolStats stats;
  stats.parallel_fors = parallel_fors_.load(std::memory_order_relaxed);
  stats.tasks_executed = tasks_executed_.load(std::memory_order_relaxed);
  stats.chunks_executed = chunks_executed_.load(std::memory_order_relaxed);
  stats.steals = steals_.load(std::memory_order_relaxed);
  stats.queue_depth_hwm = queue_depth_hwm_.load(std::memory_order_relaxed);
  stats.worker_idle_seconds =
      static_cast<double>(idle_nanos_.load(std::memory_order_relaxed)) / 1e9;
  stats.workers = thread_count();
  stats.steal_latency_ns.resize(ThreadPoolStats::kStealLatencyBuckets);
  for (int b = 0; b < ThreadPoolStats::kStealLatencyBuckets; ++b) {
    stats.steal_latency_ns[b] = steal_latency_ns_[b].load(std::memory_order_relaxed);
  }
  return stats;
}

void ParallelFor(int jobs, size_t n, const std::function<void(size_t)>& body) {
  ThreadPool::Global().ParallelFor(jobs, n, body);
}

}  // namespace vc
