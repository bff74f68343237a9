#pragma once
// Fixed-size worker pool and blocked-range parallel loops, standing in
// for the Intel TBB layer the paper's software stack uses for
// intra-node threading. Rank kernels call parallel_for for their pixel
// and cell loops; on a 1-core container this degrades to serial
// execution with identical semantics.
//
// Determinism contract (DESIGN.md "Threading model"): every kernel on
// the per-timestep hot path must produce bit-identical output at any
// thread count. parallel_for_chunks supports that by deriving its chunk
// decomposition from the range alone — never from the pool size — so a
// 1-thread run executes the exact same chunks (and the caller's merge
// runs in the exact same order) as an N-thread run.

#include <condition_variable>
#include <exception>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

#include "common/types.hpp"

namespace eth {

class ThreadPool {
public:
  /// `threads` == 0 selects default_thread_count().
  explicit ThreadPool(unsigned threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  unsigned size() const { return static_cast<unsigned>(workers_.size()); }

  /// Enqueue a task; tasks must not throw (a measurement harness cannot
  /// sensibly continue past a failed kernel chunk — violations
  /// terminate via the noexcept boundary in the worker loop).
  /// parallel_for / parallel_for_chunks wrap user functions in a
  /// capture-and-rethrow shim, so THEIR bodies may throw.
  void submit(std::function<void()> task);

  /// Block until every submitted task has finished.
  void wait_idle();

  /// True when the calling thread is one of this pool's workers.
  /// parallel loops use this to run inline instead of deadlocking on a
  /// nested submit-and-wait from inside a worker.
  bool on_worker_thread() const;

private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mutex_;
  std::condition_variable task_available_;
  std::condition_variable all_done_;
  Index in_flight_ = 0;
  bool shutting_down_ = false;
};

/// Tracks the tasks one issuer submitted so it can join exactly its own
/// work. ThreadPool::wait_idle() drains the WHOLE pool — under
/// concurrent harness runs that means waiting on (and potentially
/// stalling forever behind) other runs' tasks, which is how the global
/// read-ahead barrier bug of DESIGN.md §12 happened. A TaskGroup
/// instead counts only the tasks launched through it and wait() blocks
/// until those — and nothing else — have finished.
///
/// launch() wraps the task so the pending count drops on completion
/// and an exception the task throws is kept instead of reaching the
/// worker's noexcept boundary. wait() may be called repeatedly and from
/// any thread; it rethrows the first exception a task threw since the
/// last wait(). The destructor joins outstanding tasks so a group can
/// never dangle out from under them, and drops any kept exception.
class TaskGroup {
public:
  TaskGroup() = default;
  ~TaskGroup() { join(); }

  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  /// Submit `task` to `pool`, tracked by this group.
  void launch(ThreadPool& pool, std::function<void()> task);

  /// Block until every task launched through this group has finished,
  /// then rethrow the first exception one of them threw.
  void wait();

private:
  /// Block until no launched task is pending; returns the first kept
  /// exception and clears it.
  std::exception_ptr join();

  std::mutex mutex_;
  std::condition_variable done_;
  Index pending_ = 0;
  std::exception_ptr error_;
};

/// Worker count for default-constructed pools: ETH_THREADS when set to a
/// positive integer, else std::thread::hardware_concurrency().
unsigned default_thread_count();

/// The malloc policy this process runs under, applied once during
/// static initialization (DESIGN.md "Threading model", "Process
/// memory"): "glibc-1arena" (one arena, heap-served blocks up to
/// 32 MiB, no trimming), "sanitizer" (ASan/TSan own malloc; the
/// policy is inert) or "default" (not glibc, or glibc refused it).
const char* allocator_policy_label();

/// CPU seconds executed on pool workers ON BEHALF OF the calling thread,
/// accumulated monotonically since thread start. The parallel loops add
/// every worker-executed chunk's thread-CPU seconds here at the join
/// (inline-executed chunks are already on the caller's own clock).
/// Measurement scopes that wrap parallel kernels with a ThreadCpuTimer
/// (the per-rank phase timers of DESIGN.md §4.1) read the delta across
/// the scope and add it, so a rank is charged for all cycles its loops
/// consumed regardless of which thread ran them.
double borrowed_cpu_seconds();

/// ThreadCpuTimer + borrowed_cpu_seconds() in one scope: elapsed() is
/// caller CPU plus worker CPU lent to the caller since construction.
class KernelTimer {
public:
  KernelTimer();
  double elapsed() const;

private:
  double cpu_start_ = 0;
  double borrowed_start_ = 0;
};

/// Process-wide pool shared by kernels that don't carry their own.
ThreadPool& global_pool();

/// Replace the pool returned by global_pool() (tests and thread-count
/// sweeps; bench_parallel_render uses it to compare 1 vs N workers).
/// Pass nullptr to restore the default pool. Must not be called while
/// any parallel loop is in flight.
void set_global_pool(ThreadPool* pool);

/// Chunked parallel loop over [begin, end). `fn(chunk_begin, chunk_end)`
/// is invoked on pool workers; `grain` bounds the minimum chunk size.
/// Blocks until the whole range is processed. Runs inline when the range
/// is small or the pool has a single worker (avoids queueing overhead
/// that would distort per-thread CPU timing). An exception thrown by
/// `fn` is rethrown on the calling thread after all chunks finish; when
/// several chunks throw, the lowest chunk's exception wins.
void parallel_for(ThreadPool& pool, Index begin, Index end, Index grain,
                  const std::function<void(Index, Index)>& fn);

inline void parallel_for(Index begin, Index end, Index grain,
                         const std::function<void(Index, Index)>& fn) {
  parallel_for(global_pool(), begin, end, grain, fn);
}

/// Number of chunks parallel_for_chunks splits an n-element range into:
/// ceil(n / grain) capped at `max_chunks`, at least 1. Depends only on
/// the range — never on the pool — so any thread count (including 1)
/// yields the same decomposition, which is what makes chunk-ordered
/// merges bit-reproducible.
Index plan_chunks(Index n, Index grain, Index max_chunks = 64);

/// Deterministic chunked parallel loop: splits [begin, end) into exactly
/// `n_chunks` near-equal contiguous chunks and invokes
/// `fn(chunk_index, chunk_begin, chunk_end)` for each (empty chunks are
/// skipped). The decomposition is a pure function of (begin, end,
/// n_chunks); kernels give each chunk a private output slot and merge
/// the slots in ascending chunk order after the call returns, which
/// makes the result independent of worker scheduling. Exceptions
/// propagate as in parallel_for (lowest chunk wins).
void parallel_for_chunks(ThreadPool& pool, Index begin, Index end, Index n_chunks,
                         const std::function<void(Index, Index, Index)>& fn);

inline void parallel_for_chunks(Index begin, Index end, Index n_chunks,
                                const std::function<void(Index, Index, Index)>& fn) {
  parallel_for_chunks(global_pool(), begin, end, n_chunks, fn);
}

} // namespace eth
