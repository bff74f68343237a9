#include "parallel/thread_pool.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "common/error.hpp"

namespace eth {
namespace {

TEST(ThreadPool, ExecutesAllSubmittedTasks) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) pool.submit([&] { ++count; });
  pool.wait_idle();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, WaitIdleOnFreshPoolReturns) {
  ThreadPool pool(1);
  pool.wait_idle(); // must not hang
}

TEST(ThreadPool, SizeMatchesRequest) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.size(), 3u);
  ThreadPool def;
  EXPECT_GE(def.size(), 1u);
}

TEST(ThreadPool, DestructorDrainsOutstandingWork) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) pool.submit([&] { ++count; });
    pool.wait_idle();
  }
  EXPECT_EQ(count.load(), 50);
}

class ParallelForTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(ParallelForTest, CoversRangeExactlyOnce) {
  ThreadPool pool(GetParam());
  std::vector<std::atomic<int>> touched(1000);
  parallel_for(pool, 0, 1000, 16, [&](Index b, Index e) {
    for (Index i = b; i < e; ++i) ++touched[static_cast<std::size_t>(i)];
  });
  for (const auto& t : touched) EXPECT_EQ(t.load(), 1);
}

TEST_P(ParallelForTest, SumMatchesSequential) {
  ThreadPool pool(GetParam());
  std::atomic<long long> sum{0};
  parallel_for(pool, 5, 500, 7, [&](Index b, Index e) {
    long long local = 0;
    for (Index i = b; i < e; ++i) local += i;
    sum += local;
  });
  long long expected = 0;
  for (Index i = 5; i < 500; ++i) expected += i;
  EXPECT_EQ(sum.load(), expected);
}

TEST_P(ParallelForTest, EmptyRangeDoesNothing) {
  ThreadPool pool(GetParam());
  int calls = 0;
  parallel_for(pool, 10, 10, 1, [&](Index, Index) { ++calls; });
  parallel_for(pool, 10, 5, 1, [&](Index, Index) { ++calls; });
  EXPECT_EQ(calls, 0);
}

INSTANTIATE_TEST_SUITE_P(PoolSizes, ParallelForTest, ::testing::Values(1u, 2u, 4u));

TEST(ParallelFor, RejectsNonPositiveGrain) {
  ThreadPool pool(1);
  EXPECT_THROW(parallel_for(pool, 0, 10, 0, [](Index, Index) {}), Error);
}

TEST(ParallelFor, GlobalPoolOverloadWorks) {
  std::atomic<int> count{0};
  parallel_for(0, 100, 10, [&](Index b, Index e) { count += int(e - b); });
  EXPECT_EQ(count.load(), 100);
}

TEST(ParallelFor, PropagatesExceptionToCaller) {
  ThreadPool pool(4);
  EXPECT_THROW(parallel_for(pool, 0, 4096, 1,
                            [](Index b, Index) {
                              if (b >= 2048) throw std::runtime_error("boom");
                            }),
               std::runtime_error);
  // The pool must survive a throwing loop and stay usable.
  std::atomic<int> count{0};
  parallel_for(pool, 0, 100, 1, [&](Index b, Index e) { count += int(e - b); });
  EXPECT_EQ(count.load(), 100);
}

TEST(ParallelForChunks, LowestChunkExceptionWins) {
  ThreadPool pool(4);
  try {
    parallel_for_chunks(pool, 0, 1000, 10, [](Index c, Index, Index) {
      if (c % 2 == 1) throw std::runtime_error("chunk " + std::to_string(c));
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "chunk 1");
  }
}

TEST(ParallelFor, NestedLoopRunsInlineWithoutDeadlock) {
  ThreadPool pool(2);
  std::atomic<long long> sum{0};
  parallel_for(pool, 0, 64, 1, [&](Index b, Index e) {
    for (Index i = b; i < e; ++i)
      // Nested loop from a worker thread: must run inline, not deadlock.
      parallel_for(pool, 0, 10, 1, [&](Index ib, Index ie) {
        for (Index j = ib; j < ie; ++j) sum += i * 10 + j;
      });
  });
  long long expected = 0;
  for (Index i = 0; i < 64; ++i)
    for (Index j = 0; j < 10; ++j) expected += i * 10 + j;
  EXPECT_EQ(sum.load(), expected);
}

TEST(PlanChunks, CeilDividesAndCaps) {
  EXPECT_EQ(plan_chunks(100, 10), 10);
  EXPECT_EQ(plan_chunks(101, 10), 11);
  EXPECT_EQ(plan_chunks(5, 10), 1);
  EXPECT_EQ(plan_chunks(0, 10), 1);
  EXPECT_EQ(plan_chunks(1'000'000, 1), 64); // default cap
  EXPECT_EQ(plan_chunks(1'000'000, 1, 8), 8);
  EXPECT_THROW(plan_chunks(10, 0), Error);
  EXPECT_THROW(plan_chunks(10, 1, 0), Error);
}

TEST(ParallelForChunks, DecompositionIsThreadCountInvariant) {
  // The (chunk, begin, end) triples must be a pure function of the
  // range: this is what makes chunk-ordered merges bit-reproducible.
  const auto decompose = [](unsigned threads) {
    ThreadPool pool(threads);
    std::mutex mutex;
    std::vector<std::tuple<Index, Index, Index>> chunks;
    parallel_for_chunks(pool, 3, 250, 7, [&](Index c, Index b, Index e) {
      std::lock_guard<std::mutex> lock(mutex);
      chunks.emplace_back(c, b, e);
    });
    std::sort(chunks.begin(), chunks.end());
    return chunks;
  };
  const auto golden = decompose(1);
  ASSERT_EQ(golden.size(), 7u);
  EXPECT_EQ(std::get<1>(golden.front()), 3);
  EXPECT_EQ(std::get<2>(golden.back()), 250);
  for (std::size_t i = 1; i < golden.size(); ++i)
    EXPECT_EQ(std::get<1>(golden[i]), std::get<2>(golden[i - 1])); // contiguous
  EXPECT_EQ(decompose(2), golden);
  EXPECT_EQ(decompose(8), golden);
}

TEST(ParallelForChunks, SkipsEmptyChunksWhenRangeIsSmall) {
  ThreadPool pool(2);
  std::mutex mutex;
  std::vector<Index> seen;
  parallel_for_chunks(pool, 0, 3, 8, [&](Index c, Index b, Index e) {
    EXPECT_LT(b, e);
    std::lock_guard<std::mutex> lock(mutex);
    seen.push_back(c);
  });
  EXPECT_EQ(seen.size(), 3u); // only the 3 non-empty chunks ran
}

TEST(BorrowedCpu, WorkerChunksAreCreditedToTheCaller) {
  ThreadPool pool(4);
  const double before = borrowed_cpu_seconds();
  const KernelTimer timer;
  parallel_for(pool, 0, 400'000, 1000, [&](Index b, Index e) {
    double local = 0;
    for (Index i = b; i < e; ++i) local += double(i) * 1e-9;
    // Keep the loop without a shared write (that would race).
    asm volatile("" : : "g"(&local) : "memory");
  });
  // Monotone accumulator; with >1 worker the loop fans out, so the
  // worker-executed chunks' CPU must land here rather than vanish.
  EXPECT_GT(borrowed_cpu_seconds(), before);
  EXPECT_GE(timer.elapsed(), borrowed_cpu_seconds() - before);
}

// TaskGroup is the per-issuer join primitive: wait() must return once
// the group's OWN tasks finish, even while unrelated tasks (another
// concurrent harness run's work) still occupy the pool — the exact
// hang ThreadPool::wait_idle() exhibits when pools are shared.
TEST(TaskGroup, WaitJoinsOwnTasksWhileUnrelatedTaskStillRuns) {
  ThreadPool pool(2);
  std::mutex gate_mutex;
  std::condition_variable gate_cv;
  bool release_blocker = false;

  // An unrelated long-running task parks on one worker.
  pool.submit([&] {
    std::unique_lock<std::mutex> lock(gate_mutex);
    gate_cv.wait(lock, [&] { return release_blocker; });
  });

  std::atomic<int> completed{0};
  TaskGroup group;
  for (int i = 0; i < 8; ++i)
    group.launch(pool, [&] { completed.fetch_add(1); });
  group.wait(); // must NOT wait for the blocker
  EXPECT_EQ(completed.load(), 8);

  {
    std::lock_guard<std::mutex> lock(gate_mutex);
    release_blocker = true;
  }
  gate_cv.notify_all();
  pool.wait_idle();
}

TEST(TaskGroup, GroupsOnOnePoolJoinIndependently) {
  ThreadPool pool(2);
  std::atomic<int> fast_done{0};
  std::atomic<int> slow_done{0};
  TaskGroup fast;
  TaskGroup slow;
  for (int i = 0; i < 4; ++i)
    slow.launch(pool, [&] {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      slow_done.fetch_add(1);
    });
  for (int i = 0; i < 4; ++i)
    fast.launch(pool, [&] { fast_done.fetch_add(1); });
  fast.wait();
  EXPECT_EQ(fast_done.load(), 4);
  slow.wait();
  EXPECT_EQ(slow_done.load(), 4);
}

TEST(TaskGroup, WaitOnEmptyGroupReturnsAndIsRepeatable) {
  ThreadPool pool(1);
  TaskGroup group;
  group.wait();
  group.launch(pool, [] {});
  group.wait();
  group.wait();
}

TEST(TaskGroup, WaitRethrowsATaskExceptionAfterEveryTaskFinished) {
  ThreadPool pool(2);
  std::atomic<int> completed{0};
  TaskGroup group;
  group.launch(pool, [] { throw Error("write failed"); });
  for (int i = 0; i < 4; ++i) group.launch(pool, [&] { completed.fetch_add(1); });
  EXPECT_THROW(group.wait(), Error);
  EXPECT_EQ(completed.load(), 4);
  // The exception is rethrown once; the group stays usable.
  group.launch(pool, [&] { completed.fetch_add(1); });
  group.wait();
  EXPECT_EQ(completed.load(), 5);
}

TEST(DefaultThreadCount, HonorsEthThreadsEnv) {
  setenv("ETH_THREADS", "3", 1);
  EXPECT_EQ(default_thread_count(), 3u);
  setenv("ETH_THREADS", "not-a-number", 1);
  EXPECT_GE(default_thread_count(), 1u); // falls back to hardware
  setenv("ETH_THREADS", "0", 1);
  EXPECT_GE(default_thread_count(), 1u);
  unsetenv("ETH_THREADS");
  EXPECT_GE(default_thread_count(), 1u);
}

} // namespace
} // namespace eth
