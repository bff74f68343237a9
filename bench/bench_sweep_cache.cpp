// Sweep-wide memoization bench (DESIGN.md §10).
//
// Reruns the Figure-9 HACC sampling sweep three times against the
// process-wide artifact cache: once disabled (every proxy load, sampled
// subset and BVH is recomputed; the first point writes the preliminary
// dumps and later points reuse them through the dump registry, which
// works with the cache off too), once cold (cache on, empty — pays the
// misses and fills it), and once warm (every proxy load, sampled subset
// and BVH is a hit). The cached producers are pure, so all three passes
// must render bit-identical images; the wall-clock ratio off/warm is
// the memoization payoff.
//
// Acceptance shape: warm sweep at least 2x faster than cache-off.

#include <chrono>
#include <cstring>
#include <vector>

#include "bench_common.hpp"
#include "core/artifact_cache.hpp"
#include "render/compositor.hpp"

using namespace eth;
using namespace eth::bench;

namespace {

double wall_seconds(const std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

struct ModePass {
  std::vector<double> seconds;                      // per sweep point
  std::vector<std::vector<std::uint8_t>> images;    // packed final image
  std::vector<RunResult> results;
};

ModePass run_points(const Harness& harness, const std::vector<SweepPoint>& points) {
  ModePass pass;
  for (const SweepPoint& point : points) {
    const auto start = std::chrono::steady_clock::now();
    RunResult result = harness.run(point.spec);
    pass.seconds.push_back(wall_seconds(start));
    pass.images.push_back(result.final_image ? pack_image(*result.final_image)
                                             : std::vector<std::uint8_t>{});
    pass.results.push_back(std::move(result));
  }
  return pass;
}

bool images_match(const ModePass& a, const ModePass& b) {
  if (a.images.size() != b.images.size()) return false;
  for (std::size_t i = 0; i < a.images.size(); ++i) {
    if (a.images[i].size() != b.images[i].size()) return false;
    if (a.images[i].empty()) return false;
    if (std::memcmp(a.images[i].data(), b.images[i].data(), a.images[i].size()) != 0)
      return false;
  }
  return true;
}

double total(const std::vector<double>& v) {
  double sum = 0;
  for (const double x : v) sum += x;
  return sum;
}

} // namespace

int main() {
  print_header("Sweep cache", "Fig. 9 sweep, memoized",
               "HACC sampling sweep cold vs warm against the artifact cache");

  // Bench scale: big enough that generation, proxy I/O and BVH builds
  // dominate, small enough to finish in seconds. Rendering stays in the
  // timed region in every mode — only the memoized producers differ.
  ExperimentSpec base = hacc_base_spec(500'000);
  base.name = "sweep-cache";
  base.hacc.num_halos = 24;
  base.timesteps = 2;
  base.viz.image_width = 64;
  base.viz.image_height = 64;
  base.viz.images_per_timestep = 2;
  base.layout.ranks = 4;
  base.proxy_dir = "bench_proxy_cache";
  std::filesystem::remove_all(base.proxy_dir);

  const std::vector<double> ratios{1.0, 0.75, 0.5, 0.25};
  const auto points = sweep_over<double>(
      base, ratios, [](const double& r) { return strprintf("%.0f%%", r * 100); },
      [](const double& r, ExperimentSpec& spec) { spec.viz.sampling_ratio = r; });

  const Harness harness;
  ArtifactCache& cache = global_artifact_cache();

  cache.set_enabled(false);
  const ModePass off = run_points(harness, points);

  cache.set_enabled(true);
  cache.clear();
  const ModePass cold = run_points(harness, points);
  const ModePass warm = run_points(harness, points);

  ResultTable table({"ratio", "off_s", "cold_s", "warm_s", "speedup",
                     "cache_hits", "cache_misses", "prefetch_hits",
                     "cache_bytes"});
  for (std::size_t i = 0; i < points.size(); ++i) {
    const cluster::PerfCounters& c = warm.results[i].counters;
    table.begin_row();
    table.add_cell(points[i].label);
    table.add_cell(off.seconds[i], "%.3f");
    table.add_cell(cold.seconds[i], "%.3f");
    table.add_cell(warm.seconds[i], "%.3f");
    table.add_cell(off.seconds[i] / warm.seconds[i], "%.2f");
    table.add_cell(c.cache_hits);
    table.add_cell(c.cache_misses);
    table.add_cell(c.prefetch_hits);
    table.add_cell(Index(c.cache_bytes));
  }
  std::printf("%s\n", table.to_text().c_str());
  save_table(table, "sweep_cache");

  const double off_total = total(off.seconds);
  const double warm_total = total(warm.seconds);
  std::printf("sweep wall: off %.3fs  cold %.3fs  warm %.3fs  (off/warm %.2fx)\n",
              off_total, total(cold.seconds), warm_total,
              off_total / warm_total);

  check_shape(images_match(off, cold) && images_match(off, warm),
              "images bit-identical with cache off, cold and warm");
  check_shape(warm_total * 2.0 <= off_total,
              "warm sweep at least 2x faster than cache-off");
  bool warm_all_hit = true;
  for (const RunResult& r : warm.results)
    warm_all_hit = warm_all_hit && r.counters.cache_hits > 0;
  check_shape(warm_all_hit, "every warm sweep point records cache hits");

  std::filesystem::remove_all(base.proxy_dir);
  return 0;
}
