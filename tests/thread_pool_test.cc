// Unit tests for the work-stealing ThreadPool / ParallelFor in src/support.

#include "src/support/thread_pool.h"

#include <gtest/gtest.h>

#include "src/support/metrics.h"
#include "src/support/trace.h"

#include <atomic>
#include <chrono>
#include <map>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

namespace vc {
namespace {

TEST(ThreadPool, EmptyRangeRunsNothing) {
  std::atomic<int> calls{0};
  ParallelFor(8, 0, [&](size_t) { ++calls; });
  EXPECT_EQ(calls.load(), 0);

  ThreadPool pool(2);
  pool.ParallelFor(4, 0, [&](size_t) { ++calls; });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ThreadPool, EveryIndexRunsExactlyOnce) {
  constexpr size_t kN = 10000;
  std::vector<std::atomic<int>> counts(kN);
  ParallelFor(8, kN, [&](size_t i) { counts[i].fetch_add(1); });
  for (size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(counts[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, SerialJobsRunInline) {
  std::thread::id caller = std::this_thread::get_id();
  std::vector<std::thread::id> seen(16);
  ParallelFor(1, seen.size(), [&](size_t i) { seen[i] = std::this_thread::get_id(); });
  for (std::thread::id id : seen) {
    EXPECT_EQ(id, caller);
  }
}

TEST(ThreadPool, ZeroJobsMeansHardwareThreads) {
  EXPECT_GE(ResolveJobs(0), 1);
  EXPECT_EQ(ResolveJobs(3), 3);
  std::atomic<int> calls{0};
  ParallelFor(0, 64, [&](size_t) { ++calls; });
  EXPECT_EQ(calls.load(), 64);
}

TEST(ThreadPool, ExceptionsPropagateToCaller) {
  EXPECT_THROW(
      ParallelFor(4, 100,
                  [](size_t i) {
                    if (i == 37) {
                      throw std::runtime_error("boom");
                    }
                  }),
      std::runtime_error);

  // The pool stays usable after an aborted loop.
  std::atomic<int> calls{0};
  ParallelFor(4, 100, [&](size_t) { ++calls; });
  EXPECT_EQ(calls.load(), 100);
}

TEST(ThreadPool, ExceptionMessageSurvives) {
  try {
    ParallelFor(4, 8, [](size_t) { throw std::runtime_error("specific message"); });
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "specific message");
  }
}

TEST(ThreadPool, NestedParallelForIsCorrect) {
  constexpr size_t kOuter = 8;
  constexpr size_t kInner = 16;
  std::atomic<int> total{0};
  ParallelFor(4, kOuter, [&](size_t) {
    // Nested loops execute inline on the owning lane; results must still be
    // complete and exceptions must still propagate.
    ParallelFor(4, kInner, [&](size_t) { ++total; });
  });
  EXPECT_EQ(total.load(), static_cast<int>(kOuter * kInner));
}

TEST(ThreadPool, NestedExceptionPropagatesThroughBothLoops) {
  EXPECT_THROW(ParallelFor(4, 4,
                           [](size_t) {
                             ParallelFor(4, 4, [](size_t j) {
                               if (j == 2) {
                                 throw std::logic_error("inner");
                               }
                             });
                           }),
               std::logic_error);
}

TEST(ThreadPool, WorkRunsOnPoolThreads) {
  // Sleep-bound lanes overlap even on a single hardware core: 8 lanes of
  // 20 ms finish far sooner than the 160 ms a serial loop needs.
  ThreadPool pool(8);
  std::mutex mutex;
  std::set<std::thread::id> ids;
  auto start = std::chrono::steady_clock::now();
  pool.ParallelFor(8, 8, [&](size_t) {
    {
      std::lock_guard<std::mutex> lock(mutex);
      ids.insert(std::this_thread::get_id());
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  });
  double elapsed_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_GT(ids.size(), 1u);
  EXPECT_LT(elapsed_ms, 120.0);
}

TEST(ThreadPoolStress, ManyTinyTasksBackToBack) {
  // Thousands of near-empty loops in a row stress the submit/wake path more
  // than the chunk math; under TSan this is the test that catches queue
  // bookkeeping races.
  ThreadPool pool(4);
  std::atomic<long> total{0};
  for (int round = 0; round < 2000; ++round) {
    pool.ParallelFor(4, 4, [&](size_t) { total.fetch_add(1, std::memory_order_relaxed); });
  }
  EXPECT_EQ(total.load(), 8000);
}

TEST(ThreadPoolStress, ConcurrentParallelForsShareOnePool) {
  // Several caller threads drive loops through the same pool at once; every
  // index of every loop must still run exactly once.
  ThreadPool pool(4);
  constexpr int kCallers = 6;
  constexpr size_t kN = 500;
  std::vector<std::vector<std::atomic<int>>> counts(kCallers);
  for (auto& c : counts) {
    c = std::vector<std::atomic<int>>(kN);
  }
  std::vector<std::thread> callers;
  for (int t = 0; t < kCallers; ++t) {
    callers.emplace_back([&, t] {
      pool.ParallelFor(4, kN, [&, t](size_t i) { counts[t][i].fetch_add(1); });
    });
  }
  for (std::thread& caller : callers) {
    caller.join();
  }
  for (int t = 0; t < kCallers; ++t) {
    for (size_t i = 0; i < kN; ++i) {
      ASSERT_EQ(counts[t][i].load(), 1) << "caller " << t << " index " << i;
    }
  }
}

TEST(ThreadPoolStress, DeeplyNestedParallelFor) {
  // Three levels deep: inner loops run inline on their lane, so this must
  // neither deadlock nor lose iterations no matter how the pool schedules.
  std::atomic<int> total{0};
  ParallelFor(4, 4, [&](size_t) {
    ParallelFor(4, 4, [&](size_t) {
      ParallelFor(4, 4, [&](size_t) { total.fetch_add(1); });
    });
  });
  EXPECT_EQ(total.load(), 64);
}

TEST(ThreadPoolStress, TeardownWhileWorkersIdle) {
  // Construct, idle briefly (workers parked in cv wait), destroy. The join
  // path must wake every worker exactly once; repeated to shake out lost
  // notifications that only a rare interleaving shows.
  for (int round = 0; round < 50; ++round) {
    ThreadPool pool(4);
    if (round % 2 == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
}

TEST(ThreadPoolStress, TeardownRightAfterWork) {
  // Destroy immediately after the last loop returns, while workers may still
  // be between finishing a task and re-parking.
  for (int round = 0; round < 100; ++round) {
    ThreadPool pool(3);
    std::atomic<int> calls{0};
    pool.ParallelFor(3, 32, [&](size_t) { calls.fetch_add(1); });
    EXPECT_EQ(calls.load(), 32);
  }
}

TEST(ThreadPoolStress, StatsStayConsistentUnderLoad) {
  ThreadPool pool(4);
  ThreadPoolStats before = pool.stats();
  for (int round = 0; round < 100; ++round) {
    pool.ParallelFor(4, 64, [](size_t) {});
  }
  ThreadPoolStats delta = pool.stats().Delta(before);
  EXPECT_EQ(delta.parallel_fors, 100u);
  EXPECT_GT(delta.chunks_executed, 0u);
  EXPECT_EQ(delta.workers, 4);
}

TEST(ThreadPool, StealLatencyBucketsSumToStealsWhenMetricsOn) {
  bool was_enabled = MetricsEnabled();
  MetricsRegistry::Global().Enable();
  ThreadPool pool(4);
  ThreadPoolStats before = pool.stats();
  for (int round = 0; round < 50; ++round) {
    // Uneven costs force cross-lane steals often enough to populate buckets.
    pool.ParallelFor(4, 128, [](size_t i) {
      if (i % 31 == 0) {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
    });
  }
  ThreadPoolStats delta = pool.stats().Delta(before);
  if (!was_enabled) {
    MetricsRegistry::Global().Disable();
  }

  ASSERT_EQ(delta.steal_latency_ns.size(),
            static_cast<size_t>(ThreadPoolStats::kStealLatencyBuckets));
  uint64_t bucketed = 0;
  for (uint64_t bucket : delta.steal_latency_ns) {
    bucketed += bucket;
  }
  // Every steal clocked while metrics were on lands in exactly one bucket.
  EXPECT_EQ(bucketed, delta.steals);
}

TEST(ThreadPool, ManyMoreChunksThanLanesBalances) {
  // Uneven iteration cost exercises stealing: lane 0's deque drains first and
  // it must steal the heavy tail chunks parked on other lanes.
  constexpr size_t kN = 256;
  std::vector<std::atomic<int>> counts(kN);
  ThreadPool pool(4);
  pool.ParallelFor(4, kN, [&](size_t i) {
    if (i % 17 == 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    counts[i].fetch_add(1);
  });
  for (size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(counts[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, LanesAdoptTheParallelForSpan) {
  // Sleep-bound iterations put lanes on several threads; every lane opens a
  // `lane` span under the loop's parallel_for span, on any thread, every
  // span the body opens records its lane as its parent, and a later span on
  // the caller is a root again.
  TraceCollector& collector = TraceCollector::Global();
  collector.Enable();
  ThreadPool pool(4);
  pool.ParallelFor(4, 8, [](size_t) {
    TraceSpan span("lane_body", "test");
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  });
  { TraceSpan after("after_loop", "test"); }
  collector.Disable();
  std::vector<TraceEvent> events = collector.SnapshotEvents();
  collector.Clear();

  const TraceEvent* fork = nullptr;
  std::map<uint64_t, int> lanes;  // lane span id -> tid
  for (const TraceEvent& event : events) {
    if (event.name == "parallel_for") {
      fork = &event;
    } else if (event.name == "lane") {
      lanes[event.span] = event.tid;
    }
  }
  ASSERT_NE(fork, nullptr);
  EXPECT_EQ(lanes.size(), 4u);  // one per lane
  std::set<int> lane_tids;
  for (const TraceEvent& event : events) {
    if (event.name == "lane") {
      EXPECT_EQ(event.parent, fork->span);
    } else if (event.name == "lane_body") {
      ASSERT_EQ(lanes.count(event.parent), 1u);
      EXPECT_EQ(lanes[event.parent], event.tid);
      lane_tids.insert(event.tid);
    } else if (event.name == "after_loop") {
      EXPECT_EQ(event.parent, 0u);
    }
  }
  EXPECT_GT(lane_tids.size(), 1u);
}

}  // namespace
}  // namespace vc
