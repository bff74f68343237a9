// eth_perfbench: one benchmark process. perfbench/run.py starts a fresh
// process per measurement and reads the JSON object it prints last.
//
//   eth_perfbench --mode timed --workload W --seed N --work DIR
//                 --sweeps K --reference FILE
//       one untimed warm-up sweep (setup_s), then K timed sweeps, each
//       from a cleared artifact cache; every point is checked against
//       the reference digests.
//   eth_perfbench --mode trace ... (same flags)
//       the timed sweeps, one untraced and one traced sweep (tracing
//       overhead), then the per-layer replay of every point, checked
//       against Harness::run with the cache off. Spans go to --trace-out.
//   eth_perfbench --mode reference --workload W --seed N --work DIR --out FILE
//       writes the reference digests from one sweep at one pool thread,
//       scalar SIMD and the cache off.

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>

#include "common/error.hpp"
#include "common/simd.hpp"
#include "common/timer.hpp"
#include "common/trace.hpp"
#include "core/artifact_cache.hpp"
#include "insitu/transport.hpp"
#include "parallel/thread_pool.hpp"
#include "replay.hpp"
#include "workloads.hpp"

extern char** environ;

namespace perfbench {
namespace {

struct Options {
  std::string mode;
  std::string workload;
  std::uint64_t seed = 1;
  std::string work_dir;
  int sweeps = 3;
  std::string reference;
  std::string out;
  std::string trace_out;
};

Options parse_args(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    eth::require(i + 1 < argc, "flag " + flag + " needs a value");
    const std::string value = argv[++i];
    if (flag == "--mode") o.mode = value;
    else if (flag == "--workload") o.workload = value;
    else if (flag == "--seed") o.seed = std::stoull(value);
    else if (flag == "--work") o.work_dir = value;
    else if (flag == "--sweeps") o.sweeps = std::stoi(value);
    else if (flag == "--reference") o.reference = value;
    else if (flag == "--out") o.out = value;
    else if (flag == "--trace-out") o.trace_out = value;
    else eth::fail("unknown flag " + flag);
  }
  eth::require(o.mode == "timed" || o.mode == "trace" || o.mode == "reference",
               "--mode must be timed, trace or reference");
  eth::require(!o.workload.empty() && !o.work_dir.empty(),
               "--workload and --work are required");
  eth::require(o.sweeps >= 1, "--sweeps must be at least 1");
  return o;
}

/// Minimal JSON object writer: numbers at full precision, flat values.
class Json {
public:
  Json& num(const std::string& key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return raw(key, buf);
  }
  Json& str(const std::string& key, const std::string& v) {
    std::string quoted = "\"";
    for (const char c : v) {
      if (c == '"' || c == '\\') quoted += '\\';
      if (static_cast<unsigned char>(c) >= 0x20) quoted += c;
    }
    return raw(key, quoted + "\"");
  }
  Json& list(const std::string& key, const std::vector<double>& values) {
    std::string s = "[";
    for (std::size_t i = 0; i < values.size(); ++i) {
      char buf[64];
      std::snprintf(buf, sizeof buf, "%s%.17g", i ? ", " : "", values[i]);
      s += buf;
    }
    return raw(key, s + "]");
  }
  Json& raw(const std::string& key, const std::string& json) {
    body_ += (body_.empty() ? "\"" : ", \"") + key + "\": " + json;
    return *this;
  }
  std::string text() const { return "{" + body_ + "}"; }

private:
  std::string body_;
};

double process_cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return double(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         double(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) * 1e-6;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return double(usage.ru_maxrss) * 1024.0 / 1e6; // ru_maxrss is in KiB
}

std::string provenance() {
  Json env;
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string kv = *e;
    const auto eq = kv.find('=');
    if (kv.rfind("ETH_", 0) == 0 && eq != std::string::npos)
      env.str(kv.substr(0, eq), kv.substr(eq + 1));
  }
  return Json()
      .num("nproc", double(std::thread::hardware_concurrency()))
      .num("pool_threads", double(eth::global_pool().size()))
      .str("isa", eth::simd::isa_label())
      .str("wire_codec", eth::insitu::wire_codec_label())
      .str("build_type", ETH_PERFBENCH_BUILD_TYPE)
      .raw("eth_env", env.text())
      .text();
}

/// Outcome of one sweep from a cleared cache, checked point by point.
struct SweepRun {
  double wall = 0;
  double first_point = 0;
  eth::Index attempted = 0;
  eth::Index failed = 0;
  eth::Index cache_hits = 0;
  eth::Index cache_misses = 0;
  eth::Index prefetch_hits = 0;
  double cache_peak_bytes = 0;

  /// Fold another sweep's counts in (its times stay with the caller).
  void add(const SweepRun& other) {
    attempted += other.attempted;
    failed += other.failed;
    cache_hits += other.cache_hits;
    cache_misses += other.cache_misses;
    prefetch_hits += other.prefetch_hits;
    cache_peak_bytes = std::max(cache_peak_bytes, other.cache_peak_bytes);
  }
};

SweepRun checked_sweep(const eth::Harness& harness, const Workload& workload,
                       const std::vector<std::string>& reference) {
  eth::global_artifact_cache().clear();
  // PPMs are hashed after the sweep; start every sweep without old ones.
  const std::string& artifacts = workload.points.front().spec.artifact_dir;
  if (!artifacts.empty()) std::filesystem::remove_all(artifacts);

  SweepRun run;
  run.attempted = eth::Index(workload.points.size());
  double first_point = -1;
  std::vector<eth::SweepOutcome> outcomes;
  const eth::WallTimer timer;
  try {
    outcomes = eth::run_sweep(harness, workload.points, [&](const eth::SweepOutcome&) {
      if (first_point < 0) first_point = timer.elapsed();
    });
  } catch (const std::exception& e) {
    run.wall = timer.elapsed();
    run.failed = run.attempted;
    std::fprintf(stderr, "eth_perfbench: sweep failed: %s\n", e.what());
    return run;
  }
  run.wall = timer.elapsed();
  run.first_point = first_point;
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const eth::RunResult& result = outcomes[i].result;
    const std::string digest = point_digest(workload.points[i], result);
    if (i >= reference.size() || digest != reference[i]) {
      ++run.failed;
      std::fprintf(stderr,
                   "eth_perfbench: point %zu differs from the reference\n"
                   "  got  %s\n  want %s\n",
                   i, digest.c_str(), i < reference.size() ? reference[i].c_str() : "-");
    }
    run.cache_hits += result.counters.cache_hits;
    run.cache_misses += result.counters.cache_misses;
    run.prefetch_hits += result.counters.prefetch_hits;
    run.cache_peak_bytes = std::max(run.cache_peak_bytes, double(result.counters.cache_bytes));
  }
  return run;
}

int run_reference(const Options& o, const Workload& workload) {
  // The slowest, most conservative configuration: one pool thread,
  // scalar kernels, no cache.
  eth::ThreadPool single(1);
  eth::set_global_pool(&single);
  eth::simd::set_isa_override("scalar");
  eth::global_artifact_cache().set_enabled(false);
  const std::string& artifacts = workload.points.front().spec.artifact_dir;
  if (!artifacts.empty()) std::filesystem::remove_all(artifacts);

  const std::vector<eth::SweepOutcome> outcomes =
      eth::run_sweep(eth::Harness(), workload.points);
  std::vector<std::string> lines;
  for (std::size_t i = 0; i < outcomes.size(); ++i)
    lines.push_back(point_digest(workload.points[i], outcomes[i].result));
  write_reference(o.out, lines);
  eth::set_global_pool(nullptr);
  std::printf("%s\n", Json().num("points", double(lines.size())).text().c_str());
  return 0;
}

/// Trace mode's replay: every point through Harness::run (cache off) and
/// through the traced replay; the two final images must match.
Json run_replay(const Options& o, const eth::Harness& harness, const Workload& workload,
                eth::Index& mismatches) {
  eth::ArtifactCache& cache = eth::global_artifact_cache();
  cache.set_enabled(false);
  Replayer replayer(o.work_dir + "/replay_artifacts");
  eth::trace::reset();
  for (std::size_t i = 0; i < workload.points.size(); ++i) {
    const eth::ExperimentSpec& spec = workload.points[i].spec;
    const eth::RunResult truth = harness.run(spec);
    eth::trace::set_enabled(true);
    const std::optional<eth::ImageBuffer> replayed =
        replayer.replay_point(spec, static_cast<int>(i));
    eth::trace::set_enabled(false);
    const std::uint64_t want = image_hash(truth.final_image ? &*truth.final_image : nullptr);
    const std::uint64_t got = image_hash(replayed ? &*replayed : nullptr);
    if (want != got) {
      ++mismatches;
      std::fprintf(stderr,
                   "eth_perfbench: replay of point %zu (%s) does not match Harness::run: "
                   "%016llx vs %016llx\n",
                   i, spec.name.c_str(), static_cast<unsigned long long>(got),
                   static_cast<unsigned long long>(want));
    }
  }
  Json layers;
  for (const auto& [name, value] : replayer.metrics()) layers.num(name, value);
  if (!o.trace_out.empty()) eth::trace::write_chrome_trace(o.trace_out);
  eth::trace::reset();
  cache.set_enabled(true);
  return layers;
}

int run_measured(const Options& o, const Workload& workload) {
  eth::require(std::string(ETH_PERFBENCH_BUILD_TYPE) == "Release",
               std::string("refusing to time a ") + ETH_PERFBENCH_BUILD_TYPE +
                   " build; configure with -DCMAKE_BUILD_TYPE=Release");
  eth::require(std::getenv("ETH_TRACE") == nullptr,
               "refusing to time a run with ETH_TRACE set");
  eth::require(!o.reference.empty(), "--reference is required");
  const std::vector<std::string> reference = read_reference(o.reference);
  eth::require(reference.size() == workload.points.size(),
               "reference has the wrong number of points");
  const eth::Harness harness;

  // Set-up: the first sweep of a fresh process (pool start, SIMD
  // dispatch, proxy directories, page cache). Checked, not timed.
  SweepRun total = checked_sweep(harness, workload, reference);
  const double setup_s = total.wall;

  SweepRun timed;
  std::vector<double> sweep_s;
  std::vector<double> first_point_s;
  const double cpu0 = process_cpu_seconds();
  const eth::WallTimer wall;
  for (int k = 0; k < o.sweeps; ++k) {
    const SweepRun run = checked_sweep(harness, workload, reference);
    sweep_s.push_back(run.wall);
    first_point_s.push_back(run.first_point);
    timed.add(run);
  }
  total.add(timed);
  const double cpu_per_wall = (process_cpu_seconds() - cpu0) / wall.elapsed();
  const double rss = peak_rss_mb();

  Json out;
  if (o.mode == "trace") {
    // Tracing overhead: one untraced and one traced sweep, back to back.
    const SweepRun untraced = checked_sweep(harness, workload, reference);
    eth::trace::reset();
    eth::trace::set_enabled(true);
    const SweepRun traced = checked_sweep(harness, workload, reference);
    eth::trace::set_enabled(false);
    total.add(untraced);
    total.add(traced);
    eth::Index mismatches = 0;
    const Json layers = run_replay(o, harness, workload, mismatches);
    const double lookups = double(timed.cache_hits + timed.cache_misses);
    out.raw("layers", layers.text())
        .raw("layers_e2e",
             Json()
                 .num("parallel.cpu_per_wall", cpu_per_wall)
                 .num("core.cache_hit_ratio",
                      lookups > 0 ? double(timed.cache_hits) / lookups : 0.0)
                 .num("core.cache_peak_mb", timed.cache_peak_bytes / 1e6)
                 .num("core.prefetch_hits", double(timed.prefetch_hits) / double(o.sweeps))
                 .num("core.trace_overhead", traced.wall / untraced.wall)
                 .text())
        .num("replayed", double(workload.points.size()))
        .num("replay_mismatches", double(mismatches));
  }
  out.num("setup_s", setup_s)
      .list("sweep_s", sweep_s)
      .list("first_point_s", first_point_s)
      .num("peak_rss_mb", rss)
      .num("attempted", double(total.attempted))
      .num("failed", double(total.failed));
  out.raw("provenance", provenance());
  std::printf("%s\n", out.text().c_str());
  return 0;
}

} // namespace
} // namespace perfbench

int main(int argc, char** argv) {
  try {
    const perfbench::Options o = perfbench::parse_args(argc, argv);
    const perfbench::Workload workload =
        perfbench::make_workload(o.workload, o.seed, o.work_dir);
    if (o.mode == "reference") return perfbench::run_reference(o, workload);
    return perfbench::run_measured(o, workload);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "eth_perfbench: %s\n", e.what());
    return 1;
  }
}
