// eth_explore: the design-space exploration CLI.
//
// Reads an experiment configuration file (see
// core/spec_config.hpp), expands its sweep dimensions, runs every point
// through the harness, and prints the metrics table — the paper's
// "light-weight mechanism to quickly explore large parameter spaces"
// as a single command:
//
//   eth_explore sweep.cfg [--csv out.csv] [--best energy|time]
//               [--workers N] [--dry-run]

//   --dry-run expands the sweep and prints each point's fully resolved
//   spec (every effective value, including defaults and values pulled
//   from the environment such as ETH_PIPELINE_DEPTH) without running
//   anything — the way to audit what a config will actually execute.

//   --workers N (or ETH_SWEEP_WORKERS=N) runs N sweep points
//   concurrently; all output stays bit-identical to the serial sweep
//   (DESIGN.md §12).

//   ETH_TRACE=out.json eth_explore sweep.cfg   additionally records a
//   per-rank Chrome trace (load it in Perfetto / chrome://tracing) and
//   prints the per-phase span summary.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/error.hpp"
#include "common/simd.hpp"
#include "common/trace.hpp"
#include "core/spec_config.hpp"
#include "insitu/transport.hpp"
#include "parallel/thread_pool.hpp"

namespace {

int usage() {
  std::printf("usage: eth_explore <config-file> [--csv <out.csv>] "
              "[--best energy|time] [--workers <n>] [--dry-run]\n\n%s",
              eth::experiment_config_reference().c_str());
  return 2;
}

} // namespace

int main(int argc, char** argv) {
  using namespace eth;
  if (argc < 2) return usage();

  std::string config_path;
  std::string csv_path;
  std::string best_metric;
  bool dry_run = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--dry-run") == 0) {
      dry_run = true;
    } else if (std::strcmp(argv[i], "--csv") == 0 && i + 1 < argc) {
      csv_path = argv[++i];
    } else if (std::strcmp(argv[i], "--best") == 0 && i + 1 < argc) {
      best_metric = argv[++i];
    } else if (std::strcmp(argv[i], "--workers") == 0 && i + 1 < argc) {
      char* end = nullptr;
      const long n = std::strtol(argv[++i], &end, 10);
      if (end == argv[i] || *end != '\0' || n < 1 || n > 256) return usage();
      set_sweep_worker_override(static_cast<int>(n));
    } else if (std::strcmp(argv[i], "--help") == 0) {
      return usage();
    } else if (config_path.empty()) {
      config_path = argv[i];
    } else {
      return usage();
    }
  }
  if (config_path.empty()) return usage();
  if (!best_metric.empty() && best_metric != "energy" && best_metric != "time")
    return usage();

  try {
    const auto points = load_experiment_config(config_path);
    if (dry_run) {
      std::printf("%s: %zu experiment%s (dry run, simd=%s, alloc=%s, codec=%s)\n",
                  config_path.c_str(), points.size(),
                  points.size() == 1 ? "" : "s", simd::isa_label().c_str(),
                  allocator_policy_label(), insitu::wire_codec_label());
      for (const auto& point : points)
        std::printf("\n[%s]\n%s", point.label.c_str(),
                    spec_summary(point.spec).c_str());
      return 0;
    }
    const int workers = sweep_worker_count();
    std::printf("%s: %zu experiment%s", config_path.c_str(), points.size(),
                points.size() == 1 ? "" : "s");
    if (workers > 1) std::printf(" (%d sweep workers)", workers);
    std::printf("\n");

    // run_sweep invokes on_result serially in submission order at any
    // worker count, so the progress counter needs no synchronization.
    std::size_t completed = 0;
    const Harness harness;
    const auto outcomes =
        run_sweep(harness, points, [&](const SweepOutcome& o) {
          ++completed;
          std::printf("  done [%zu/%zu] %-40s %8.3f s  %7.2f kW  %9.3f kJ\n",
                      completed, points.size(), o.label.c_str(),
                      o.result.exec_seconds, o.result.average_power / 1e3,
                      o.result.energy / 1e3);
        });

    const ResultTable table = metrics_table("configuration", outcomes);
    std::printf("\n%s", table.to_text().c_str());

    // Robustness counters print for faulted/retried runs — and for
    // every traced run, so the trace and the counters land together.
    const std::string trace_path = trace::env_trace_path();
    if (should_print_robustness(points, outcomes, !trace_path.empty()))
      std::printf("\n%s", robustness_table("configuration", outcomes).to_text().c_str());

    if (!trace_path.empty()) {
      std::printf("\n%s", trace_summary_table().to_text().c_str());
      trace::write_chrome_trace(trace_path);
      std::printf("(trace written to %s)\n", trace_path.c_str());
    }
    if (!csv_path.empty()) {
      table.save_csv(csv_path);
      std::printf("(csv written to %s)\n", csv_path.c_str());
    }

    if (!best_metric.empty() && !outcomes.empty()) {
      std::size_t best = 0;
      for (std::size_t i = 1; i < outcomes.size(); ++i) {
        const double a = best_metric == "energy" ? outcomes[i].result.energy
                                                 : outcomes[i].result.exec_seconds;
        const double b = best_metric == "energy" ? outcomes[best].result.energy
                                                 : outcomes[best].result.exec_seconds;
        if (a < b) best = i;
      }
      std::printf("\nbest (%s): %s\n", best_metric.c_str(),
                  outcomes[best].label.c_str());
    }
    return 0;
  } catch (const Error& e) {
    std::fprintf(stderr, "eth_explore: %s\n", e.what());
    return 1;
  }
}
