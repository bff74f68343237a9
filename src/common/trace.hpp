#pragma once
// Per-rank structured tracing (DESIGN.md §11 "Observability").
//
// The paper's whole contribution is attribution — which PHASE of the
// in-situ pipeline a rank's time went to — and the aggregate tables
// cannot show WHEN a rank was packing, transferring, filtering,
// rendering, or stalled in a backoff wait. This module records such
// phases as timestamped spans on per-rank tracks and exports them as
// Chrome trace-event JSON (chrome://tracing, Perfetto) plus a compact
// per-span-name summary.
//
// Cost contract: tracing is OFF unless the ETH_TRACE environment
// variable is set (or a test enables it), and every instrumentation
// point compiles to one branch on a cached relaxed atomic load when
// disabled — no allocation, no clock read, no event. The overhead test
// (tests/core/test_trace_determinism.cpp) pins this down: a fully
// instrumented run with tracing off emits zero events and produces
// byte-identical deterministic metrics.
//
// Thread model: each thread appends to its own lock-free buffer (a
// linked list of fixed-size blocks; the owner is the only writer and
// publishes events with one release store of the count, readers
// acquire-load the count and never touch unpublished slots). Buffers
// are registered once per thread under a mutex and live until process
// exit, so flushing after worker threads die is safe. Merging happens
// only at flush/snapshot time.
//
// Track mapping: spans carry the TRACK of the measurement rank that
// issued the work, not the OS thread that happened to execute it. The
// harness opens a TrackScope(rank) around each rank body, and the
// thread pool's fan-out captures the issuing thread's track into every
// worker-executed chunk — mirroring the borrowed-CPU accounting, so a
// chunk rendered by a pool worker still lands on the issuing rank's
// timeline. Modelled BusySpans are emitted on separate kModelTrackBase
// tracks so simulated and measured spans can be cross-checked in one
// view.

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace eth::trace {

// ------------------------------------------------------------- enable

namespace detail {
extern std::atomic<bool> g_enabled;
} // namespace detail

/// True when tracing is active. One relaxed atomic load — this is the
/// branch every disabled instrumentation point costs.
inline bool enabled() {
  return detail::g_enabled.load(std::memory_order_relaxed);
}

/// Turn tracing on/off (tests, eth_explore). The initial value is
/// "ETH_TRACE is set and non-empty".
void set_enabled(bool on);

/// Value of ETH_TRACE (the trace output path), or "" when unset.
std::string env_trace_path();

/// Name the process's allocator policy on the host track, beside the
/// SIMD ISA ("host [simd=avx2 alloc=glibc-1arena]"). The thread pool
/// calls it when it applies the policy during static initialization
/// (parallel/thread_pool.cpp, allocator_policy_label); until then the
/// label reads "default". `label` must outlive the process.
void set_allocator_label(const char* label);

// ------------------------------------------------------------- events

enum class EventType : std::uint8_t {
  kSpan,    ///< ph "X": name + ts + dur
  kCounter, ///< ph "C": name + value sampled at ts
  kInstant, ///< ph "i": point event at ts
};

/// Track constants. Ranks use their rank id (>= 0); kHostTrack is
/// process-level work outside any rank; kModelTrackBase + node is the
/// modelled cluster timeline of that node.
inline constexpr std::int32_t kHostTrack = 1'000'000;
inline constexpr std::int32_t kModelTrackBase = 2'000'000;

/// Sweep-point track namespacing (DESIGN.md §12): when several harness
/// runs execute concurrently their rank ids collide, so the sweep
/// scheduler offsets every track of point `i` by i * kSweepTrackStride
/// — rank r of point i lands on track i * stride + r, and the point's
/// modelled nodes on kModelTrackBase + i * stride + node. The offset
/// is a pure function of the SUBMISSION index, never of the worker
/// that ran the point, which keeps the (name, track) -> count
/// histogram of a sweep identical at every ETH_SWEEP_WORKERS value.
/// The stride bounds ranks-per-run; kHostTrack / stride bounds the
/// distinguishable points per sweep (976 — beyond that, rank tracks of
/// distinct points may alias, which garbles attribution but nothing
/// else).
inline constexpr std::int32_t kSweepTrackStride = 1024;

struct TraceEvent {
  const char* name = nullptr; ///< static string (literal) — never freed
  EventType type = EventType::kSpan;
  std::int32_t track = kHostTrack; ///< pid in the chrome trace
  std::uint32_t tid = 0;           ///< per-thread ordinal within the process
  std::int64_t ts_ns = 0;          ///< start, ns since process trace epoch
  std::int64_t dur_ns = 0;         ///< spans only
  double value = 0;                ///< counters only
};

/// Monotonic nanoseconds since the process trace epoch.
std::int64_t now_ns();

// -------------------------------------------------------- track scope

/// The calling thread's current track (thread-local; kHostTrack until a
/// TrackScope sets it).
std::int32_t current_track();

/// RAII: set the calling thread's track, restore on destruction. Used
/// by the harness (rank bodies) and the thread pool (worker chunks
/// inherit the ISSUING thread's track). Cheap enough to run
/// unconditionally: two thread-local stores, no events.
class TrackScope {
public:
  explicit TrackScope(std::int32_t track);
  ~TrackScope();
  TrackScope(const TrackScope&) = delete;
  TrackScope& operator=(const TrackScope&) = delete;

private:
  std::int32_t saved_;
};

// ----------------------------------------------------------- emission

namespace detail {
void emit(const TraceEvent& event);
} // namespace detail

/// RAII span: records [construction, destruction) as one complete
/// event on the current track. `name` must be a string literal (or
/// otherwise outlive the session). Zero-cost when disabled.
class Span {
public:
  explicit Span(const char* name) {
    if (enabled()) {
      name_ = name;
      start_ = now_ns();
    }
  }
  ~Span() {
    if (name_ != nullptr) {
      TraceEvent e;
      e.name = name_;
      e.type = EventType::kSpan;
      e.ts_ns = start_;
      e.dur_ns = now_ns() - start_;
      detail::emit(e);
    }
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

private:
  const char* name_ = nullptr;
  std::int64_t start_ = 0;
};

/// Sample a named counter (chrome ph "C") on the current track.
inline void counter(const char* name, double value) {
  if (!enabled()) return;
  TraceEvent e;
  e.name = name;
  e.type = EventType::kCounter;
  e.ts_ns = now_ns();
  e.value = value;
  detail::emit(e);
}

/// Point event (chrome ph "i") on the current track.
inline void instant(const char* name) {
  if (!enabled()) return;
  TraceEvent e;
  e.name = name;
  e.type = EventType::kInstant;
  e.ts_ns = now_ns();
  detail::emit(e);
}

/// Emit a span with explicit coordinates — the modelled-timeline
/// mapping uses this to place simulated BusySpans on kModelTrackBase
/// tracks (timestamps in modelled seconds scaled to ns, not wall time).
void emit_span_at(const char* name, std::int32_t track, std::int64_t ts_ns,
                  std::int64_t dur_ns);

// ----------------------------------------------------- flush / export

/// All events published since the last reset(), merged across threads
/// and sorted by (ts, dur desc) so enclosing spans precede nested ones.
std::vector<TraceEvent> snapshot();

/// Forget all published events (buffers stay registered; storage is
/// retained for the owning threads). Tests use this between runs.
void reset();

/// Serialize snapshot() as Chrome trace-event JSON ("traceEvents"
/// array: ph/ts/dur/pid/tid/name fields, microsecond timestamps, plus
/// process_name metadata per track). Returns the JSON text.
std::string chrome_trace_json();

/// chrome_trace_json() written to `path`; throws eth::Error on I/O
/// failure.
void write_chrome_trace(const std::string& path);

/// Per-name aggregation of the current snapshot, sorted by name:
/// span count and total/self duration, counter last-values.
struct SummaryRow {
  std::string name;
  std::int64_t count = 0;
  std::int64_t total_ns = 0; ///< spans: summed duration; counters: 0
  EventType type = EventType::kSpan;
};
std::vector<SummaryRow> summary();

} // namespace eth::trace
