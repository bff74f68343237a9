#include "parallel/thread_pool.hpp"

#ifdef __GLIBC__
#include <malloc.h>
#endif

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <utility>

#include "common/error.hpp"
#include "common/run_counters.hpp"
#include "common/timer.hpp"
#include "common/trace.hpp"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define ETH_SANITIZER_OWNS_MALLOC 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define ETH_SANITIZER_OWNS_MALLOC 1
#endif
#endif

namespace eth {

namespace {

// Process allocator policy (DESIGN.md "Threading model", "Process
// memory"). Every rank allocates and frees 0.3-1.3 MB per image (rank
// 0's merge frames, packed partials, raster scratch), often on another
// thread than the one that allocated it. glibc's defaults gave that
// memory back to the kernel after each image, faulted it in again for
// the next, and kept one high-water mark per thread arena. These
// values keep freed blocks in one heap for the next image on any
// thread. perfbench on a 4-vCPU host, alternating parent/change
// pairs: xrage-proxy peak_rss_mb 75.4 -> 61.0 MB (10/10 pairs),
// hacc-explore sweep_s 0.218 -> 0.178 s (8/8).
#ifdef __GLIBC__
// One arena for every thread: each per-thread arena kept its own
// high-water mark. A steady 4-rank HACC run (the AllocatorPolicy test's
// spec) took 3.6-7.2k minor faults with this cap alone, against
// 8.7-11.8k with glibc's defaults; without it the thresholds below let
// that run's peak RSS reach 41.7 MB against 33-35 MB.
constexpr int kMallocArenas = 1;
// Blocks up to 32 MiB come from the heap, not from a fresh mmap each;
// 32 MiB is the largest value every 64-bit glibc accepts. With all
// three values the run above took 0-389 faults. Without this one it
// took 25-27k: setting the trim threshold turns off glibc's adaptive
// mmap threshold, so every block over 128 KiB was a fresh mmap.
constexpr int kMmapThresholdBytes = 32 << 20;
// The heap's free top is not given back to the kernel below 1 GiB, so
// the next image reuses it. Without this one the run took 3.8-10k
// faults.
constexpr int kTrimThresholdBytes = 1 << 30;
#endif

/// Applies the policy and returns its label. mallopt's result is
/// reported, never required: under ASan and TSan the sanitizer owns
/// malloc (ASan's mallopt returns 0), so the policy is inert there.
const char* apply_allocator_policy() {
  const char* label = "default";
#ifdef __GLIBC__
  const int arenas = mallopt(M_ARENA_MAX, kMallocArenas);
  const int mmap_threshold = mallopt(M_MMAP_THRESHOLD, kMmapThresholdBytes);
  const int trim_threshold = mallopt(M_TRIM_THRESHOLD, kTrimThresholdBytes);
  if (arenas == 1 && mmap_threshold == 1 && trim_threshold == 1) label = "glibc-1arena";
#endif
#ifdef ETH_SANITIZER_OWNS_MALLOC
  label = "sanitizer";
#endif
  trace::set_allocator_label(label);
  return label;
}

// Namespace scope, so the policy is in force during static
// initialization: before main, and so before global_pool() or any
// pipeline stage starts a second thread.
const char* const g_allocator_label = apply_allocator_policy();

// Identifies the pool (if any) whose worker is running the current
// thread, so nested parallel loops degrade to inline execution instead
// of deadlocking on submit-and-wait from inside a worker.
thread_local const ThreadPool* t_worker_pool = nullptr;

// CPU seconds workers executed on behalf of this thread (see
// borrowed_cpu_seconds() in the header). Written only by the owning
// thread, after its loops join.
thread_local double t_borrowed_cpu = 0;

} // namespace

ThreadPool::ThreadPool(unsigned threads) {
  if (threads == 0) threads = default_thread_count();
  workers_.reserve(threads);
  for (unsigned i = 0; i < threads; ++i)
    workers_.emplace_back([this] {
      t_worker_pool = this;
      worker_loop();
    });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutting_down_ = true;
  }
  task_available_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    require(!shutting_down_, "ThreadPool::submit after shutdown");
    tasks_.push(std::move(task));
    ++in_flight_;
  }
  task_available_.notify_one();
}

void ThreadPool::wait_idle() {
  std::unique_lock<std::mutex> lock(mutex_);
  all_done_.wait(lock, [this] { return in_flight_ == 0; });
}

bool ThreadPool::on_worker_thread() const { return t_worker_pool == this; }

void TaskGroup::launch(ThreadPool& pool, std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++pending_;
  }
  pool.submit([this, task = std::move(task)] {
    std::exception_ptr error;
    try {
      task();
    } catch (...) {
      error = std::current_exception();
    }
    std::lock_guard<std::mutex> lock(mutex_);
    if (error && !error_) error_ = error;
    if (--pending_ == 0) done_.notify_all();
  });
}

std::exception_ptr TaskGroup::join() {
  std::unique_lock<std::mutex> lock(mutex_);
  done_.wait(lock, [this] { return pending_ == 0; });
  return std::exchange(error_, nullptr);
}

void TaskGroup::wait() {
  if (const std::exception_ptr error = join()) std::rethrow_exception(error);
}

void ThreadPool::worker_loop() {
  while (true) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      task_available_.wait(lock, [this] { return shutting_down_ || !tasks_.empty(); });
      if (tasks_.empty()) return; // shutting down
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task(); // noexcept boundary: a throwing task terminates
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (--in_flight_ == 0) all_done_.notify_all();
    }
  }
}

const char* allocator_policy_label() { return g_allocator_label; }

unsigned default_thread_count() {
  if (const char* env = std::getenv("ETH_THREADS")) {
    char* end = nullptr;
    const long n = std::strtol(env, &end, 10);
    if (end != env && *end == '\0' && n > 0 && n <= 4096)
      return static_cast<unsigned>(n);
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

namespace {
std::atomic<ThreadPool*> g_pool_override{nullptr};
} // namespace

ThreadPool& global_pool() {
  if (ThreadPool* override_pool = g_pool_override.load(std::memory_order_acquire))
    return *override_pool;
  static ThreadPool pool;
  return pool;
}

void set_global_pool(ThreadPool* pool) {
  g_pool_override.store(pool, std::memory_order_release);
}

double borrowed_cpu_seconds() { return t_borrowed_cpu; }

KernelTimer::KernelTimer()
    : cpu_start_(ThreadCpuTimer::now()), borrowed_start_(t_borrowed_cpu) {}

double KernelTimer::elapsed() const {
  return (ThreadCpuTimer::now() - cpu_start_) + (t_borrowed_cpu - borrowed_start_);
}

namespace {

/// Shared fan-out/join for both loop flavors: runs `chunks` tasks on the
/// pool, collects the lowest-index exception and the tasks' summed
/// thread-CPU seconds, blocks until all finish, and credits the CPU
/// seconds to the caller's borrowed-CPU accumulator. `run(c)` executes
/// chunk c's body.
void run_chunks_on_pool(ThreadPool& pool, Index chunks,
                        const std::function<void(Index)>& run) {
  std::mutex done_mutex;
  std::condition_variable done_cv;
  Index remaining = chunks;
  double cpu_total = 0;
  std::exception_ptr first_error;
  Index first_error_chunk = -1;
  // Worker-executed chunks attribute to the ISSUING thread's trace
  // track, exactly as their CPU time credits its borrowed-CPU
  // accumulator: a chunk rendered by a pool worker belongs on the
  // issuing rank's timeline. The issuing run's counter sink propagates
  // the same way, so data-plane bytes moved inside a worker chunk are
  // charged to the run that issued the loop, not to whichever run's
  // rank happens to share the pool.
  const std::int32_t issuing_track = trace::current_track();
  RunCounterSink* issuing_sink = current_run_sink();
  for (Index c = 0; c < chunks; ++c) {
    pool.submit([&, c] {
      const trace::TrackScope track_scope(issuing_track);
      const RunSinkScope sink_scope(issuing_sink);
      const ThreadCpuTimer chunk_timer;
      std::exception_ptr error;
      try {
        run(c);
      } catch (...) {
        error = std::current_exception();
      }
      const double chunk_cpu = chunk_timer.elapsed();
      std::lock_guard<std::mutex> lock(done_mutex);
      cpu_total += chunk_cpu;
      if (error && (first_error_chunk < 0 || c < first_error_chunk)) {
        first_error = error;
        first_error_chunk = c;
      }
      if (--remaining == 0) done_cv.notify_one();
    });
  }
  {
    std::unique_lock<std::mutex> lock(done_mutex);
    done_cv.wait(lock, [&] { return remaining == 0; });
  }
  t_borrowed_cpu += cpu_total;
  if (first_error) std::rethrow_exception(first_error);
}

} // namespace

void parallel_for(ThreadPool& pool, Index begin, Index end, Index grain,
                  const std::function<void(Index, Index)>& fn) {
  require(grain > 0, "parallel_for: grain must be positive");
  if (begin >= end) return;

  const Index n = end - begin;
  const Index workers = static_cast<Index>(pool.size());
  // Inline when chunking cannot help (tiny range, single worker) or
  // must not happen (already on a worker of this pool: a nested
  // submit-and-wait could deadlock with every worker blocked waiting).
  if (workers <= 1 || n <= grain || pool.on_worker_thread()) {
    fn(begin, end);
    return;
  }

  const Index chunks = std::min(workers * 4, (n + grain - 1) / grain);
  const Index chunk_size = (n + chunks - 1) / chunks;
  const Index live_chunks = (n + chunk_size - 1) / chunk_size;

  run_chunks_on_pool(pool, live_chunks, [&](Index c) {
    const Index b = begin + c * chunk_size;
    const Index e = std::min(b + chunk_size, end);
    fn(b, e);
  });
}

Index plan_chunks(Index n, Index grain, Index max_chunks) {
  require(grain > 0, "plan_chunks: grain must be positive");
  require(max_chunks > 0, "plan_chunks: max_chunks must be positive");
  if (n <= 0) return 1;
  return std::min(max_chunks, (n + grain - 1) / grain);
}

void parallel_for_chunks(ThreadPool& pool, Index begin, Index end, Index n_chunks,
                         const std::function<void(Index, Index, Index)>& fn) {
  require(n_chunks > 0, "parallel_for_chunks: n_chunks must be positive");
  if (begin >= end) return;
  const Index n = end - begin;

  // Chunk c covers [begin + n*c/n_chunks, begin + n*(c+1)/n_chunks) — a
  // pure function of the range, identical at every thread count.
  const auto chunk_begin = [&](Index c) { return begin + n * c / n_chunks; };

  // The "chunk" span is emitted here and NOT in parallel_for: this
  // decomposition is thread-count-invariant, so the per-phase span
  // counts stay deterministic across pool sizes (the trace-determinism
  // test depends on it). plain parallel_for sizes its chunking off the
  // pool and would break that contract.
  if (pool.size() <= 1 || pool.on_worker_thread()) {
    for (Index c = 0; c < n_chunks; ++c) {
      const Index b = chunk_begin(c), e = chunk_begin(c + 1);
      if (b < e) {
        const trace::Span span("chunk");
        fn(c, b, e);
      }
    }
    return;
  }

  run_chunks_on_pool(pool, n_chunks, [&](Index c) {
    const Index b = chunk_begin(c), e = chunk_begin(c + 1);
    if (b < e) {
      const trace::Span span("chunk");
      fn(c, b, e);
    }
  });
}

} // namespace eth
