// Cache-equivalence gate (ISSUE 4 acceptance): every cached producer is
// pure, so a sweep must render BIT-IDENTICAL images with the artifact
// cache off, cold, or warm — and every robustness/metrics counter except
// the observational cache_* columns must agree as well.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "cache_state_guard.hpp"
#include "common/string_util.hpp"
#include "common/trace.hpp"
#include "core/artifact_cache.hpp"
#include "core/harness.hpp"
#include "core/sweep.hpp"
#include "data/image.hpp"
#include "render/compositor.hpp"

namespace eth {
namespace {

ExperimentSpec hacc_base() {
  ExperimentSpec spec;
  spec.name = "cache-eq-hacc";
  spec.application = Application::kHacc;
  spec.hacc.num_particles = 2500;
  spec.hacc.num_halos = 6;
  spec.viz.algorithm = insitu::VizAlgorithm::kRaycastSpheres;
  spec.viz.image_width = 32;
  spec.viz.image_height = 32;
  spec.viz.images_per_timestep = 2;
  spec.timesteps = 2;
  spec.layout.nodes = 2;
  spec.layout.ranks = 2;
  return spec;
}

ExperimentSpec xrage_base(insitu::VizAlgorithm algorithm) {
  ExperimentSpec spec;
  spec.name = "cache-eq-xrage";
  spec.application = Application::kXrage;
  spec.xrage.dims = {18, 14, 12};
  spec.viz.algorithm = algorithm;
  spec.viz.image_width = 24;
  spec.viz.image_height = 24;
  spec.viz.images_per_timestep = 1;
  spec.timesteps = 2;
  spec.layout.nodes = 2;
  spec.layout.ranks = 2;
  return spec;
}

/// `spec` redistributed between partitions: internode coupling with
/// fewer viz nodes than sim nodes, so the couple stage materializes a
/// second share per rank (and, through the disk proxy, a second dump).
ExperimentSpec redistributed(ExperimentSpec spec) {
  spec.name += "-internode";
  spec.layout.coupling = cluster::Coupling::kInternode;
  spec.layout.nodes = 6;
  spec.layout.viz_nodes = 2;
  return spec;
}

/// The xrage-proxy workload at mini scale: disk proxy, internode
/// redistribution, the lz4 codec and seeded transport faults with
/// retries. Its points differ only in the algorithm, so every hand-off
/// of the second and third point repeats one of the first's.
ExperimentSpec xrage_proxy_mini() {
  ExperimentSpec spec = redistributed(xrage_base(insitu::VizAlgorithm::kVtkGeometry));
  spec.name = "cache-eq-xrage-proxy";
  spec.timesteps = 3;
  spec.transport_codec = "lz4";
  spec.fault.seed = 1;
  spec.fault.p_bit_flip = 0.3;
  spec.fault.p_truncate = 0.1;
  spec.transfer_retry.max_attempts = 4;
  return spec;
}

std::vector<SweepPoint> sampling_sweep(const ExperimentSpec& base) {
  return sweep_over<double>(
      base, {1.0, 0.5},
      [](const double& r) { return strprintf("s%.2f", r); },
      [](const double& r, ExperimentSpec& spec) { spec.viz.sampling_ratio = r; });
}

/// xrage-proxy's three algorithms.
std::vector<SweepPoint> algorithm_sweep(const ExperimentSpec& base) {
  return sweep_over<insitu::VizAlgorithm>(
      base,
      {insitu::VizAlgorithm::kVtkGeometry, insitu::VizAlgorithm::kRaycastVolume,
       insitu::VizAlgorithm::kRaycastDvr},
      [](const insitu::VizAlgorithm& a) { return std::string(insitu::to_string(a)); },
      [](const insitu::VizAlgorithm& a, ExperimentSpec& spec) { spec.viz.algorithm = a; });
}

/// Sweep `points` with tracing on; also returns how many hand-offs ran
/// (`transfer` spans, one per couple-stage execution).
std::pair<std::vector<SweepOutcome>, Index> traced_sweep(
    const Harness& harness, const std::vector<SweepPoint>& points) {
  trace::reset();
  trace::set_enabled(true);
  std::vector<SweepOutcome> outcomes = run_sweep(harness, points);
  trace::set_enabled(false);
  Index transfers = 0;
  for (const trace::TraceEvent& e : trace::snapshot())
    transfers += std::string(e.name) == "transfer" ? 1 : 0;
  trace::reset();
  return {std::move(outcomes), transfers};
}

std::vector<std::vector<std::uint8_t>> packed_images(
    const std::vector<SweepOutcome>& outcomes) {
  std::vector<std::vector<std::uint8_t>> packed;
  for (const SweepOutcome& o : outcomes) {
    EXPECT_TRUE(o.result.final_image.has_value()) << o.label;
    packed.push_back(o.result.final_image ? pack_image(*o.result.final_image)
                                          : std::vector<std::uint8_t>{});
  }
  return packed;
}

bool is_cache_column(const std::string& name) {
  return name == "cache_hits" || name == "cache_misses" ||
         name == "cache_bytes" || name == "prefetch_hits";
}

/// Compare two robustness tables cell by cell, skipping the
/// observational cache_* columns (the only ones allowed to differ).
void expect_tables_match_modulo_cache(const ResultTable& a, const ResultTable& b) {
  ASSERT_EQ(a.columns(), b.columns());
  ASSERT_EQ(a.num_rows(), b.num_rows());
  for (std::size_t row = 0; row < a.num_rows(); ++row)
    for (std::size_t col = 0; col < a.num_columns(); ++col) {
      if (is_cache_column(a.columns()[col])) continue;
      EXPECT_EQ(a.cell(row, col), b.cell(row, col))
          << "row=" << row << " col=" << a.columns()[col];
    }
}

void expect_equivalence(
    const ExperimentSpec& base, bool with_disk_proxy,
    std::vector<SweepPoint> (*make_sweep)(const ExperimentSpec&) = sampling_sweep) {
  CacheStateGuard guard;
  ArtifactCache& cache = global_artifact_cache();
  ExperimentSpec spec = base;
  if (with_disk_proxy) {
    spec.use_disk_proxy = true;
    spec.proxy_dir =
        (std::filesystem::temp_directory_path() / ("eth_cache_eq_" + base.name))
            .string();
    std::filesystem::remove_all(spec.proxy_dir);
  }
  const std::vector<SweepPoint> points = make_sweep(spec);
  const Harness harness;

  cache.set_enabled(false);
  const auto [off, off_transfers] = traced_sweep(harness, points);

  cache.set_enabled(true);
  cache.clear();
  const auto [cold, cold_transfers] = traced_sweep(harness, points);

  // cache still populated
  const auto [warm, warm_transfers] = traced_sweep(harness, points);

  // The couple stage runs once per (rank, timestep) and sweep: every
  // point with the cache off, only the first to ask with it cold, and
  // never warm. Tight coupling has no hand-off.
  const Index handoffs = spec.layout.coupling == cluster::Coupling::kTight
                             ? 0
                             : Index(spec.layout.ranks) * spec.timesteps;
  EXPECT_EQ(off_transfers, Index(points.size()) * handoffs);
  EXPECT_EQ(cold_transfers, handoffs);
  EXPECT_EQ(warm_transfers, 0);

  // Images: bitwise identical across all three modes, per sweep point.
  const auto off_imgs = packed_images(off);
  const auto cold_imgs = packed_images(cold);
  const auto warm_imgs = packed_images(warm);
  for (std::size_t i = 0; i < off_imgs.size(); ++i) {
    ASSERT_EQ(off_imgs[i].size(), cold_imgs[i].size());
    EXPECT_EQ(std::memcmp(off_imgs[i].data(), cold_imgs[i].data(),
                          off_imgs[i].size()),
              0)
        << "cold image differs at point " << i;
    ASSERT_EQ(off_imgs[i].size(), warm_imgs[i].size());
    EXPECT_EQ(std::memcmp(off_imgs[i].data(), warm_imgs[i].data(),
                          off_imgs[i].size()),
              0)
        << "warm image differs at point " << i;
  }

  // Counter tables: identical except the observational cache columns.
  expect_tables_match_modulo_cache(robustness_table("point", off),
                                   robustness_table("point", cold));
  expect_tables_match_modulo_cache(robustness_table("point", off),
                                   robustness_table("point", warm));

  // The warm pass must actually have hit the cache.
  Index warm_hits = 0;
  for (const SweepOutcome& o : warm) warm_hits += o.result.counters.cache_hits;
  EXPECT_GT(warm_hits, 0);
  // And the cache-off pass must not have recorded any cache traffic.
  for (const SweepOutcome& o : off) {
    EXPECT_EQ(o.result.counters.cache_hits, 0);
    EXPECT_EQ(o.result.counters.cache_misses, 0);
  }

  if (with_disk_proxy) std::filesystem::remove_all(spec.proxy_dir);
}

TEST(CacheEquivalence, HaccParticleSweepInMemory) {
  expect_equivalence(hacc_base(), /*with_disk_proxy=*/false);
}

TEST(CacheEquivalence, HaccParticleSweepWithDiskProxy) {
  expect_equivalence(hacc_base(), /*with_disk_proxy=*/true);
}

TEST(CacheEquivalence, XrageGeometrySweep) {
  expect_equivalence(xrage_base(insitu::VizAlgorithm::kVtkGeometry),
                     /*with_disk_proxy=*/false);
}

TEST(CacheEquivalence, XrageRaycastVolumeSweepWithDiskProxy) {
  expect_equivalence(xrage_base(insitu::VizAlgorithm::kRaycastVolume),
                     /*with_disk_proxy=*/true);
}

TEST(CacheEquivalence, HaccInternodeSweepInMemory) {
  expect_equivalence(redistributed(hacc_base()), /*with_disk_proxy=*/false);
}

TEST(CacheEquivalence, XrageInternodeSweepWithDiskProxy) {
  expect_equivalence(redistributed(xrage_base(insitu::VizAlgorithm::kRaycastVolume)),
                     /*with_disk_proxy=*/true);
}

// xrage-proxy's shape: the faulted lz4 hand-off replays its robustness
// counts, wire bytes and data-plane split from the couple memo, and a
// lossless hit hands the viz the consumed share itself.
TEST(CacheEquivalence, XrageProxyAlgorithmSweepFaultedLz4) {
  expect_equivalence(xrage_proxy_mini(), /*with_disk_proxy=*/true, algorithm_sweep);
}

// The quantized hand-off: the couple memo holds the decoded share.
TEST(CacheEquivalence, XrageProxyAlgorithmSweepQuantized) {
  ExperimentSpec spec = xrage_proxy_mini();
  spec.name += "-q8";
  spec.transport_quantization_bits = 8;
  expect_equivalence(spec, /*with_disk_proxy=*/true, algorithm_sweep);
}

TEST(CacheEquivalence, WarmDiskProxyRunRecordsPrefetchHits) {
  CacheStateGuard guard;
  ArtifactCache& cache = global_artifact_cache();
  cache.set_enabled(true);
  cache.clear();

  ExperimentSpec spec = hacc_base();
  spec.timesteps = 3; // t+1 read-ahead has room to land
  spec.use_disk_proxy = true;
  spec.proxy_dir =
      (std::filesystem::temp_directory_path() / "eth_cache_eq_prefetch").string();
  std::filesystem::remove_all(spec.proxy_dir);

  const Harness harness;
  const RunResult result = harness.run(spec);
  // Loads beyond timestep 0 are prefetchable; at least one normally
  // lands before the demand lookup. Only assert non-negative here —
  // prefetch_hits is timing-dependent by design — but the demand
  // counters must balance: every lookup is a hit or a miss.
  EXPECT_GE(result.counters.prefetch_hits, 0);
  EXPECT_GT(result.counters.cache_misses, 0);
  EXPECT_GE(result.counters.cache_hits + result.counters.cache_misses,
            Index(spec.timesteps) * spec.layout.ranks);
  std::filesystem::remove_all(spec.proxy_dir);
}

} // namespace
} // namespace eth
