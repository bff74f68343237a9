#include "core/sweep.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <optional>
#include <thread>

#include "common/trace.hpp"

namespace eth {

namespace {

std::atomic<int> g_sweep_worker_override{0};

/// Per-point RunContext: the trace track base is a pure function of
/// the SUBMISSION index, so the trace histogram of a sweep does not
/// depend on how many workers ran it (or which worker ran which point).
RunContext context_for(std::size_t point_index) {
  RunContext ctx;
  ctx.trace_track_base =
      static_cast<std::int32_t>(point_index) * trace::kSweepTrackStride;
  return ctx;
}

} // namespace

int sweep_worker_count() {
  const int override_workers =
      g_sweep_worker_override.load(std::memory_order_relaxed);
  if (override_workers > 0) return override_workers;
  if (const char* env = std::getenv("ETH_SWEEP_WORKERS")) {
    char* end = nullptr;
    const long n = std::strtol(env, &end, 10);
    if (end != env && *end == '\0' && n > 0 && n <= 256)
      return static_cast<int>(n);
  }
  return 1;
}

void set_sweep_worker_override(int workers) {
  g_sweep_worker_override.store(workers > 0 ? workers : 0,
                                std::memory_order_relaxed);
}

std::vector<SweepOutcome> run_sweep(
    const Harness& harness, const std::vector<SweepPoint>& points,
    const std::function<void(const SweepOutcome&)>& on_result) {
  const std::size_t n = points.size();
  const int workers =
      std::min<int>(sweep_worker_count(), static_cast<int>(std::max<std::size_t>(n, 1)));

  if (workers <= 1) {
    // Historical serial sweep. Points still run under their per-index
    // RunContext so the trace layout matches the concurrent scheduler
    // bit for bit.
    std::vector<SweepOutcome> outcomes;
    outcomes.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      SweepOutcome outcome{points[i].label,
                           harness.run(points[i].spec, context_for(i))};
      if (on_result) on_result(outcome);
      outcomes.push_back(std::move(outcome));
    }
    return outcomes;
  }

  // Concurrent scheduler: dedicated sweep-worker threads claim points
  // by atomic submission index (harness runs are fully re-entrant —
  // see Harness::run). Each point's OUTPUT is a pure function of its
  // spec and submission index, so concurrency only reorders wall-clock
  // execution, never results. Completed points publish through an
  // ordered gate: on_result fires serially, in submission order, from
  // whichever worker completes the next gap — exactly the serial
  // sweep's observable callback sequence.
  struct Slot {
    std::optional<SweepOutcome> outcome;
    std::exception_ptr error;
    bool done = false; // guarded by publish_mutex
  };
  std::vector<Slot> slots(n);
  std::atomic<std::size_t> next_claim{0};
  std::atomic<bool> failed{false};
  std::mutex publish_mutex;
  std::size_t next_report = 0; // guarded by publish_mutex

  const auto worker_body = [&] {
    for (;;) {
      // A recorded failure stops NEW points from starting; in-flight
      // points on other workers run to completion before the join.
      if (failed.load(std::memory_order_relaxed)) return;
      const std::size_t i = next_claim.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      Slot& slot = slots[i];
      try {
        slot.outcome.emplace(
            SweepOutcome{points[i].label,
                         harness.run(points[i].spec, context_for(i))});
      } catch (...) {
        slot.error = std::current_exception();
        failed.store(true, std::memory_order_relaxed);
      }
      std::lock_guard<std::mutex> lock(publish_mutex);
      slot.done = true;
      while (next_report < n && slots[next_report].done) {
        Slot& head = slots[next_report];
        if (head.error) break; // nothing past the first failure reports
        if (on_result) {
          try {
            on_result(*head.outcome);
          } catch (...) {
            head.error = std::current_exception();
            failed.store(true, std::memory_order_relaxed);
            break;
          }
        }
        ++next_report;
      }
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(workers));
  for (int w = 0; w < workers; ++w) threads.emplace_back(worker_body);
  for (std::thread& t : threads) t.join();

  // The serial sweep surfaces the FIRST failing point's exception;
  // match it by rethrowing the lowest submission index that failed.
  for (const Slot& slot : slots)
    if (slot.error) std::rethrow_exception(slot.error);

  std::vector<SweepOutcome> outcomes;
  outcomes.reserve(n);
  for (Slot& slot : slots) outcomes.push_back(std::move(*slot.outcome));
  return outcomes;
}

ResultTable metrics_table(const std::string& label_column,
                          const std::vector<SweepOutcome>& outcomes) {
  ResultTable table({label_column, "time_s", "power_kW", "dyn_power_kW",
                     "energy_kJ", "cache_hits", "cache_misses", "cache_bytes",
                     "prefetch_hits", "bytes_on_wire"});
  for (const SweepOutcome& o : outcomes) {
    table.begin_row();
    table.add_cell(o.label);
    table.add_cell(o.result.exec_seconds, "%.2f");
    table.add_cell(o.result.average_power / 1e3, "%.2f");
    table.add_cell(o.result.average_dynamic_power / 1e3, "%.2f");
    table.add_cell(o.result.energy / 1e3, "%.3f");
    table.add_cell(o.result.counters.cache_hits);
    table.add_cell(o.result.counters.cache_misses);
    table.add_cell(Index(o.result.counters.cache_bytes));
    table.add_cell(o.result.counters.prefetch_hits);
    table.add_cell(Index(o.result.counters.bytes_on_wire));
  }
  return table;
}

ResultTable robustness_table(const std::string& label_column,
                             const std::vector<SweepOutcome>& outcomes) {
  ResultTable table({label_column, "frames_sent", "frames_delivered",
                     "frames_retried", "frames_dropped", "frames_corrupt",
                     "frames_timed_out", "timesteps_dropped", "bytes_copied",
                     "bytes_borrowed", "bytes_on_wire", "cache_hits",
                     "cache_misses", "cache_bytes", "prefetch_hits"});
  for (const SweepOutcome& o : outcomes) {
    table.begin_row();
    table.add_cell(o.label);
    table.add_cell(o.result.robustness.frames_sent);
    table.add_cell(o.result.robustness.frames_delivered);
    table.add_cell(o.result.robustness.frames_retried);
    table.add_cell(o.result.robustness.frames_dropped);
    table.add_cell(o.result.robustness.frames_corrupt);
    table.add_cell(o.result.robustness.frames_timed_out);
    table.add_cell(o.result.timesteps_dropped);
    table.add_cell(Index(o.result.counters.bytes_copied));
    table.add_cell(Index(o.result.counters.bytes_borrowed));
    table.add_cell(Index(o.result.counters.bytes_on_wire));
    table.add_cell(o.result.counters.cache_hits);
    table.add_cell(o.result.counters.cache_misses);
    table.add_cell(Index(o.result.counters.cache_bytes));
    table.add_cell(o.result.counters.prefetch_hits);
  }
  return table;
}

bool should_print_robustness(const std::vector<SweepPoint>& points,
                             const std::vector<SweepOutcome>& outcomes,
                             bool trace_active) {
  // A faulted run that silently dropped frames must not look like a
  // clean one; and a traced run must pair its trace with the counters.
  if (trace_active) return true;
  for (std::size_t i = 0; i < points.size() && i < outcomes.size(); ++i) {
    const auto& r = outcomes[i].result.robustness;
    if (points[i].spec.fault.any() || r.frames_retried > 0 ||
        r.frames_dropped > 0 || r.frames_corrupt > 0 || r.frames_timed_out > 0)
      return true;
  }
  return false;
}

ResultTable trace_summary_table() {
  ResultTable table({"span", "kind", "count", "total_ms"});
  for (const trace::SummaryRow& row : trace::summary()) {
    table.begin_row();
    table.add_cell(row.name);
    table.add_cell(row.type == trace::EventType::kSpan      ? "span"
                   : row.type == trace::EventType::kCounter ? "counter"
                                                            : "instant");
    table.add_cell(row.count);
    table.add_cell(double(row.total_ns) / 1e6, "%.3f");
  }
  return table;
}

} // namespace eth
