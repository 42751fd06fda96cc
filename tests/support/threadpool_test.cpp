#include "support/threadpool.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <gtest/gtest.h>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "support/sim_clock.h"
#include "support/memory_meter.h"

namespace s4tf {
namespace {

TEST(DispatchQueueTest, RunsTasksInSubmissionOrder) {
  DispatchQueue queue;
  std::vector<int> order;
  for (int i = 0; i < 50; ++i) {
    queue.Submit([i, &order] { order.push_back(i); });
  }
  queue.Drain();
  ASSERT_EQ(order.size(), 50u);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(DispatchQueueTest, DrainBlocksUntilAllComplete) {
  DispatchQueue queue;
  std::atomic<int> done{0};
  for (int i = 0; i < 20; ++i) {
    queue.Submit([&done] { ++done; });
  }
  queue.Drain();
  EXPECT_EQ(done.load(), 20);
  EXPECT_EQ(queue.pending(), 0u);
}

TEST(DispatchQueueTest, SubmitReturnsBeforeTaskRuns) {
  DispatchQueue queue;
  std::atomic<bool> release{false};
  std::atomic<bool> ran{false};
  queue.Submit([&] {
    while (!release.load()) {
    }
    ran = true;
  });
  // The worker is blocked in the first task; host thread runs ahead.
  EXPECT_FALSE(ran.load());
  release = true;
  queue.Drain();
  EXPECT_TRUE(ran.load());
}

// Regression: the resolver used atoi(), which silently read "4x" as 4 and
// "x4"/garbage as 0 (falling through to a bogus pool size). The strict
// parser accepts only a complete integer in [1, 4096].
TEST(ParseThreadCountTest, AcceptsCompletePositiveIntegers) {
  int count = 0;
  EXPECT_TRUE(internal::ParseThreadCount("1", &count));
  EXPECT_EQ(count, 1);
  EXPECT_TRUE(internal::ParseThreadCount("8", &count));
  EXPECT_EQ(count, 8);
  EXPECT_TRUE(internal::ParseThreadCount("4096", &count));
  EXPECT_EQ(count, 4096);
  // strtol semantics: leading whitespace is tolerated.
  EXPECT_TRUE(internal::ParseThreadCount("  16", &count));
  EXPECT_EQ(count, 16);
}

TEST(ParseThreadCountTest, RejectsTrailingGarbage) {
  int count = -1;
  EXPECT_FALSE(internal::ParseThreadCount("4x", &count));
  EXPECT_FALSE(internal::ParseThreadCount("4 ", &count));
  EXPECT_FALSE(internal::ParseThreadCount("4.5", &count));
  EXPECT_FALSE(internal::ParseThreadCount("0x4", &count));
}

TEST(ParseThreadCountTest, RejectsNonNumbersAndEmpty) {
  int count = -1;
  EXPECT_FALSE(internal::ParseThreadCount("", &count));
  EXPECT_FALSE(internal::ParseThreadCount("x4", &count));
  EXPECT_FALSE(internal::ParseThreadCount("threads", &count));
  EXPECT_FALSE(internal::ParseThreadCount("   ", &count));
}

TEST(ParseThreadCountTest, RejectsNonPositiveAndOutOfRange) {
  int count = -1;
  EXPECT_FALSE(internal::ParseThreadCount("0", &count));
  EXPECT_FALSE(internal::ParseThreadCount("-2", &count));
  EXPECT_FALSE(internal::ParseThreadCount("4097", &count));
  EXPECT_FALSE(internal::ParseThreadCount("99999999999999999999", &count));
}

TEST(ThreadPoolTest, ParallelForCoversAllIndices) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(100);
  pool.ParallelFor(100, [&](std::int64_t i) {
    ++hits[static_cast<std::size_t>(i)];
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ParallelForHandlesZeroAndOne) {
  ThreadPool pool(2);
  int count = 0;
  pool.ParallelFor(0, [&](std::int64_t) { ++count; });
  EXPECT_EQ(count, 0);
  pool.ParallelFor(1, [&](std::int64_t) { ++count; });
  EXPECT_EQ(count, 1);
}

TEST(DispatchQueueTest, DestructorDrainsQueuedTasks) {
  std::atomic<int> ran{0};
  std::atomic<bool> release{false};
  {
    DispatchQueue queue;
    // The first task blocks the worker so the rest are still queued when
    // the destructor runs; shutdown must execute them anyway.
    queue.Submit([&] {
      while (!release.load()) {
      }
      ++ran;
    });
    for (int i = 0; i < 20; ++i) {
      queue.Submit([&ran] { ++ran; });
    }
    release = true;
  }
  EXPECT_EQ(ran.load(), 21);
}

TEST(ThreadPoolTest, ParallelForRethrowsBodyException) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.ParallelFor(100,
                                [](std::int64_t i) {
                                  if (i == 37) throw std::runtime_error("boom");
                                }),
               std::runtime_error);
  // The pool must survive a throwing body and stay usable.
  std::atomic<int> count{0};
  pool.ParallelFor(50, [&](std::int64_t) { ++count; });
  EXPECT_EQ(count.load(), 50);
}

TEST(ThreadPoolTest, NestedParallelForFromWorkerDoesNotDeadlock) {
  ThreadPool pool(2);
  std::atomic<int> total{0};
  // With 2 workers and 4 outer shards, inner ParallelFor calls run while
  // every worker is busy; the calling thread must make progress alone.
  pool.ParallelFor(4, [&](std::int64_t) {
    pool.ParallelFor(8, [&](std::int64_t) { ++total; });
  });
  EXPECT_EQ(total.load(), 32);
}

TEST(ThreadPoolTest, ParallelForRangeCoversEveryIndexOnce) {
  ThreadPool pool(4);
  // 100 not divisible by 7: the last block must be the 2-wide remainder.
  std::vector<std::atomic<int>> hits(100);
  pool.ParallelForRange(100, 7, [&](std::int64_t begin, std::int64_t end) {
    ASSERT_LT(begin, end);
    ASSERT_LE(end - begin, 7);
    for (std::int64_t i = begin; i < end; ++i) {
      ++hits[static_cast<std::size_t>(i)];
    }
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ParallelForRangeSmallerThanGrainRunsInline) {
  ThreadPool pool(4);
  std::atomic<int> calls{0};
  std::atomic<std::int64_t> covered{0};
  pool.ParallelForRange(5, 100, [&](std::int64_t begin, std::int64_t end) {
    ++calls;
    covered += end - begin;
    EXPECT_EQ(begin, 0);
    EXPECT_EQ(end, 5);
  });
  EXPECT_EQ(calls.load(), 1);
  EXPECT_EQ(covered.load(), 5);
}

TEST(ThreadPoolTest, ParallelForRangeClampsBadGrainAndEmptyRange) {
  ThreadPool pool(2);
  std::vector<std::atomic<int>> hits(10);
  pool.ParallelForRange(10, 0, [&](std::int64_t begin, std::int64_t end) {
    for (std::int64_t i = begin; i < end; ++i) {
      ++hits[static_cast<std::size_t>(i)];
    }
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
  int calls = 0;
  pool.ParallelForRange(0, 4, [&](std::int64_t, std::int64_t) { ++calls; });
  pool.ParallelForRange(-3, 4, [&](std::int64_t, std::int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(GlobalPoolTest, SetterOverridesThreadCount) {
  SetIntraOpThreads(3);
  EXPECT_EQ(IntraOpThreads(), 3);
  SetIntraOpThreads(0);  // back to env/hardware default
  EXPECT_GE(IntraOpThreads(), 1);
}

TEST(GlobalPoolTest, FreeParallelForRangeCoversRange) {
  SetIntraOpThreads(4);
  std::vector<std::atomic<int>> hits(64);
  ParallelForRange(64, 5, [&](std::int64_t begin, std::int64_t end) {
    for (std::int64_t i = begin; i < end; ++i) {
      ++hits[static_cast<std::size_t>(i)];
    }
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);

  // Single-threaded mode runs inline as one block.
  SetIntraOpThreads(1);
  int calls = 0;
  ParallelForRange(64, 5, [&](std::int64_t begin, std::int64_t end) {
    ++calls;
    EXPECT_EQ(begin, 0);
    EXPECT_EQ(end, 64);
  });
  EXPECT_EQ(calls, 1);
  SetIntraOpThreads(0);
}

// Several threads open regions on one pool at once, as serving workers and
// replica threads do. Every region must cover its range exactly once and
// return: a lost wake-up or a region that never leaves the open list
// hangs here.
TEST(ThreadPoolTest, ConcurrentCallersEachCoverTheirRange) {
  ThreadPool pool(4);
  constexpr int kCallers = 4;
  constexpr int kRegions = 500;
  constexpr std::int64_t kN = 256;
  std::vector<int> bad(kCallers, 0);
  std::vector<std::thread> callers;
  for (int t = 0; t < kCallers; ++t) {
    callers.emplace_back([&pool, &bad, t] {
      std::vector<int> hits(kN);
      for (int r = 0; r < kRegions; ++r) {
        std::fill(hits.begin(), hits.end(), 0);
        pool.ParallelForRange(kN, 1 + (r + t) % 64,
                              [&](std::int64_t begin, std::int64_t end) {
                                for (std::int64_t i = begin; i < end; ++i) {
                                  ++hits[static_cast<std::size_t>(i)];
                                }
                              });
        for (int h : hits) bad[static_cast<std::size_t>(t)] += h != 1;
      }
    });
  }
  for (auto& c : callers) c.join();
  for (int t = 0; t < kCallers; ++t) {
    EXPECT_EQ(bad[static_cast<std::size_t>(t)], 0) << "caller " << t;
  }
}

// SetIntraOpThreads swaps the global pool while other threads run regions
// on it: a region that started on the old pool finishes there, and every
// region covers its range exactly once.
TEST(GlobalPoolTest, ResizingDuringRegionsKeepsEveryRegionWhole) {
  constexpr int kRegions = 300;
  constexpr std::int64_t kN = 1000;
  std::atomic<int> running{2};
  std::vector<int> bad(2, 0);
  std::vector<std::thread> runners;
  for (int t = 0; t < 2; ++t) {
    runners.emplace_back([&, t] {
      std::vector<int> hits(kN);
      for (int r = 0; r < kRegions; ++r) {
        std::fill(hits.begin(), hits.end(), 0);
        ParallelForRange(kN, 16, [&](std::int64_t begin, std::int64_t end) {
          for (std::int64_t i = begin; i < end; ++i) {
            ++hits[static_cast<std::size_t>(i)];
          }
        });
        for (int h : hits) bad[static_cast<std::size_t>(t)] += h != 1;
      }
      --running;
    });
  }
  const int kSizes[] = {1, 2, 4, 0};
  for (int i = 0; running.load() > 0; ++i) {
    SetIntraOpThreads(kSizes[i % 4]);
    std::this_thread::yield();
  }
  for (auto& r : runners) r.join();
  SetIntraOpThreads(0);
  EXPECT_EQ(bad[0], 0);
  EXPECT_EQ(bad[1], 0);
}

// A pool of n threads runs a region on at most n threads, one of which is
// the caller.
TEST(ThreadPoolTest, RegionRunsOnAtMostNumThreadsIncludingTheCaller) {
  ThreadPool pool(4);
  constexpr std::int64_t kBlocks = 64;
  std::vector<std::thread::id> ran_on(kBlocks);
  pool.ParallelForRange(kBlocks, 1, [&](std::int64_t begin, std::int64_t end) {
    for (std::int64_t i = begin; i < end; ++i) {
      ran_on[static_cast<std::size_t>(i)] = std::this_thread::get_id();
      // Long enough that the helpers get to claim blocks.
      const auto until =
          std::chrono::steady_clock::now() + std::chrono::microseconds(50);
      while (std::chrono::steady_clock::now() < until) {
      }
    }
  });
  const std::set<std::thread::id> threads(ran_on.begin(), ran_on.end());
  EXPECT_LE(threads.size(), static_cast<std::size_t>(pool.num_threads()));
  EXPECT_EQ(threads.count(std::this_thread::get_id()), 1u);
}

// A body throws on one block while helpers are inside the region. The
// caller gets that exception only after every helper has left (a helper
// still touching the caller's stack would show up under TSAN or ASan), and
// the next region on the same pool still covers its range.
TEST(ThreadPoolTest, ThrowWhileHelpersAreInsideReachesTheCaller) {
  ThreadPool pool(4);
  for (int round = 0; round < 200; ++round) {
    std::atomic<int> started{0};
    std::vector<int> hits(16, 0);
    try {
      pool.ParallelForRange(16, 1, [&](std::int64_t begin, std::int64_t end) {
        ++started;
        if (begin == 5) {
          // Wait (bounded) until some other block is running too.
          const auto until =
              std::chrono::steady_clock::now() + std::chrono::milliseconds(20);
          while (started.load() < 2 &&
                 std::chrono::steady_clock::now() < until) {
          }
          throw std::runtime_error("block 5");
        }
        for (std::int64_t i = begin; i < end; ++i) {
          ++hits[static_cast<std::size_t>(i)];
        }
      });
      ADD_FAILURE() << "round " << round << ": no exception";
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()), "block 5") << "round " << round;
    }
    EXPECT_EQ(hits[5], 0);
    std::vector<int> after(100, 0);
    pool.ParallelForRange(100, 3, [&](std::int64_t begin, std::int64_t end) {
      for (std::int64_t i = begin; i < end; ++i) {
        ++after[static_cast<std::size_t>(i)];
      }
    });
    for (int h : after) ASSERT_EQ(h, 1) << "round " << round;
  }
}

TEST(SimClockTest, AdvancesMonotonically) {
  SimClock clock;
  EXPECT_EQ(clock.now_ns(), 0);
  clock.Advance(1500);
  EXPECT_EQ(clock.now_ns(), 1500);
  clock.AdvanceSeconds(1e-6);
  EXPECT_EQ(clock.now_ns(), 2500);
  clock.AdvanceTo(2000);  // in the past: no-op
  EXPECT_EQ(clock.now_ns(), 2500);
  clock.AdvanceTo(10000);
  EXPECT_EQ(clock.now_ns(), 10000);
  clock.Reset();
  EXPECT_EQ(clock.now_ns(), 0);
}

TEST(MemoryMeterTest, TracksCurrentAndPeak) {
  MemoryMeter meter;
  meter.Allocate(100);
  meter.Allocate(50);
  EXPECT_EQ(meter.current_bytes(), 150);
  EXPECT_EQ(meter.peak_bytes(), 150);
  meter.Free(120);
  EXPECT_EQ(meter.current_bytes(), 30);
  EXPECT_EQ(meter.peak_bytes(), 150);
  meter.ResetPeak();
  EXPECT_EQ(meter.peak_bytes(), 30);
  meter.Allocate(10);
  EXPECT_EQ(meter.peak_bytes(), 40);
  EXPECT_EQ(meter.allocation_count(), 3);
}

TEST(MemoryMeterTest, HumanBytesFormats) {
  EXPECT_EQ(HumanBytes(512), "512 B");
  EXPECT_EQ(HumanBytes(2048), "2.0 KB");
  EXPECT_EQ(HumanBytes(3 << 20), "3.0 MB");
}

}  // namespace
}  // namespace s4tf
