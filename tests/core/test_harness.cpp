#include "core/harness.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>

#include "cache_state_guard.hpp"
#include "core/artifact_cache.hpp"
#include "data/point_set.hpp"
#include "data/structured_grid.hpp"

namespace eth {
namespace {

ExperimentSpec small_hacc(cluster::Coupling coupling = cluster::Coupling::kTight) {
  ExperimentSpec spec;
  spec.name = "harness-test";
  spec.application = Application::kHacc;
  spec.hacc.num_particles = 3000;
  spec.hacc.num_halos = 8;
  spec.viz.algorithm = insitu::VizAlgorithm::kGaussianSplat;
  spec.viz.image_width = 32;
  spec.viz.image_height = 32;
  spec.viz.images_per_timestep = 2;
  spec.layout.coupling = coupling;
  spec.layout.nodes = 4;
  spec.layout.ranks = 4;
  return spec;
}

TEST(Harness, GlobalBoundsAndCameraAreDataIndependent) {
  const ExperimentSpec spec = small_hacc();
  const AABB bounds = Harness::global_bounds(spec);
  EXPECT_EQ(bounds.lo, (Vec3f{0, 0, 0}));
  EXPECT_EQ(bounds.hi.x, spec.hacc.box_size);
  const Camera cam = Harness::global_camera(spec);
  EXPECT_GT(cam.eye_depth(bounds.center()), 0);

  ExperimentSpec xrage = spec;
  xrage.application = Application::kXrage;
  xrage.viz.algorithm = insitu::VizAlgorithm::kRaycastVolume;
  const AABB xb = Harness::global_bounds(xrage);
  EXPECT_FLOAT_EQ(xb.hi.x, xrage.xrage.domain_size);
}

TEST(Harness, ProduceShareMatchesGeneratorPartitioning) {
  const ExperimentSpec spec = small_hacc();
  Index total = 0;
  for (int share = 0; share < 4; ++share) {
    const auto data = Harness::produce_share(spec, share, 4, 0);
    total += data->num_points();
  }
  const auto full = Harness::produce_share(spec, 0, 1, 0);
  EXPECT_EQ(total, full->num_points());
}

/// Modelled generate CPU summed over the run's ranks.
double summed_generate(const RunResult& result) {
  double sum = 0;
  for (const auto& phases : result.rank_phase_cpu) sum += phases.at("generate");
  return sum;
}

TEST(Harness, InMemoryHaccGenerateScalesAsOneOverNodes) {
  // Modelled generate must not depend on the produce mode: an in-memory
  // HACC share is charged 1/P of its timestep's pass, as a disk-proxy
  // load reads 1/P of the data. Charging each rank its whole pass (the
  // stream is drawn in full for any slab) made the sum nearly flat in P.
  const auto generate_at = [](int nodes) {
    ExperimentSpec spec = small_hacc();
    spec.hacc.num_particles = 40000;
    spec.layout.nodes = nodes;
    return summed_generate(Harness().run(spec));
  };
  CacheStateGuard guard;
  ArtifactCache& cache = global_artifact_cache();
  for (const bool cache_on : {true, false}) {
    cache.set_enabled(cache_on);
    cache.clear();
    const double at_4 = generate_at(4);
    const double at_64 = generate_at(64);
    EXPECT_GT(at_64, 0.0) << "cache " << cache_on;
    EXPECT_LT(at_64, at_4 / 4) << "cache " << cache_on;
  }
}

TEST(Harness, CacheOffChargesGenerateLikeCacheOn) {
  // The cache is a wall-clock optimization of the exploration loop, not
  // a change to the modelled machine: with it off, each share runs the
  // factory a cold cache runs and is charged the same. That covers the
  // in-memory HACC pass, which makes every rank's slab, and the viz
  // share the internode redistribution materializes.
  ExperimentSpec hacc = small_hacc(cluster::Coupling::kIntercore);
  hacc.name = "harness-generate-hacc";
  hacc.hacc.num_particles = 40000;
  hacc.timesteps = 2;

  ExperimentSpec xrage;
  xrage.name = "harness-generate-xrage";
  xrage.application = Application::kXrage;
  xrage.xrage.dims = {48, 40, 32};
  xrage.viz.algorithm = insitu::VizAlgorithm::kRaycastVolume;
  xrage.viz.image_width = 16;
  xrage.viz.image_height = 16;
  xrage.viz.images_per_timestep = 1;
  xrage.timesteps = 2;
  xrage.layout.coupling = cluster::Coupling::kInternode;
  xrage.layout.nodes = 64;
  xrage.layout.viz_nodes = 16;
  xrage.layout.ranks = 4;

  CacheStateGuard guard;
  ArtifactCache& cache = global_artifact_cache();
  const Harness harness;
  for (const ExperimentSpec& spec : {hacc, xrage}) {
    (void)harness.run(spec); // warm-up: first-touch costs land in neither sum
    // Alternate the settings so host noise lands on both sums alike.
    double off = 0;
    double on = 0;
    for (int round = 0; round < 3; ++round) {
      cache.set_enabled(false);
      off += summed_generate(harness.run(spec));
      cache.set_enabled(true);
      cache.clear();
      on += summed_generate(harness.run(spec));
    }
    ASSERT_GT(on, 0.0) << spec.name;
    EXPECT_GE(off / on, 0.8) << spec.name;
    EXPECT_LE(off / on, 1.25) << spec.name;
  }
}

TEST(Harness, CacheOffRewritesNoDump) {
  // One dump rule whatever the cache setting: files are named by their
  // content, and a file the registry proves on disk is not rewritten, so
  // a later run never writes a file another run may be reading.
  CacheStateGuard guard;
  global_artifact_cache().set_enabled(false);
  global_artifact_cache().clear();
  ExperimentSpec spec = small_hacc(cluster::Coupling::kInternode);
  spec.layout.viz_nodes = 1; // 3 sim nodes -> 1 viz node: both dump cases
  spec.timesteps = 2;
  spec.use_disk_proxy = true;
  spec.proxy_dir =
      (std::filesystem::temp_directory_path() / "eth_harness_dump_once").string();
  std::filesystem::remove_all(spec.proxy_dir);

  const Harness harness;
  (void)harness.run(spec);
  // Backdate every file, so a rewrite shows at any clock granularity.
  const auto backdated =
      std::filesystem::file_time_type::clock::now() - std::chrono::hours(1);
  std::size_t written = 0;
  for (const auto& entry : std::filesystem::directory_iterator(spec.proxy_dir)) {
    std::filesystem::last_write_time(entry.path(), backdated);
    ++written;
  }
  EXPECT_EQ(written, std::size_t(2 * spec.timesteps * spec.layout.ranks));

  (void)harness.run(spec);
  std::size_t found = 0;
  for (const auto& entry : std::filesystem::directory_iterator(spec.proxy_dir)) {
    ++found;
    EXPECT_EQ(entry.path().filename().string().rfind("cas", 0), 0u) << entry.path();
    EXPECT_EQ(std::filesystem::last_write_time(entry.path()), backdated) << entry.path();
  }
  EXPECT_EQ(found, written);
  std::filesystem::remove_all(spec.proxy_dir);
}

class HarnessCouplingTest : public ::testing::TestWithParam<cluster::Coupling> {};

TEST_P(HarnessCouplingTest, ProducesAllMetrics) {
  ExperimentSpec spec = small_hacc(GetParam());
  if (GetParam() == cluster::Coupling::kInternode) spec.timesteps = 2;
  const Harness harness;
  const RunResult result = harness.run(spec);

  EXPECT_GT(result.exec_seconds, 0);
  EXPECT_GT(result.average_power, 0);
  EXPECT_GT(result.energy, 0);
  EXPECT_GE(result.average_dynamic_power, 0);
  EXPECT_GT(result.measured_cpu_seconds, 0);
  EXPECT_FALSE(result.power_trace.empty());
  ASSERT_TRUE(result.final_image.has_value());
  EXPECT_EQ(result.final_image->width(), 32);
  // Energy identity: energy = average power * makespan.
  EXPECT_NEAR(result.energy, result.average_power * result.exec_seconds,
              result.energy * 1e-6);
}

TEST_P(HarnessCouplingTest, TransferBytesOnlyForDecoupledModes) {
  const ExperimentSpec spec = small_hacc(GetParam());
  const Harness harness;
  const RunResult result = harness.run(spec);
  if (GetParam() == cluster::Coupling::kTight) {
    EXPECT_EQ(result.bytes_transferred, 0u);
  } else {
    EXPECT_GT(result.bytes_transferred, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Couplings, HarnessCouplingTest,
                         ::testing::Values(cluster::Coupling::kTight,
                                           cluster::Coupling::kIntercore,
                                           cluster::Coupling::kInternode));

TEST(Harness, DeterministicFinalImage) {
  const ExperimentSpec spec = small_hacc();
  const Harness harness;
  const RunResult a = harness.run(spec);
  const RunResult b = harness.run(spec);
  ASSERT_TRUE(a.final_image && b.final_image);
  EXPECT_DOUBLE_EQ(image_rmse(*a.final_image, *b.final_image), 0.0);
}

TEST(Harness, MoreModelledNodesDrawMorePower) {
  ExperimentSpec spec = small_hacc();
  spec.layout.nodes = 4;
  const Harness harness;
  const RunResult small = harness.run(spec);
  spec.layout.nodes = 16;
  const RunResult big = harness.run(spec);
  EXPECT_NEAR(big.average_power / small.average_power, 4.0, 0.8);
}

TEST(Harness, DiskProxyPathProducesSameImage) {
  ExperimentSpec direct = small_hacc();
  ExperimentSpec proxied = small_hacc();
  proxied.use_disk_proxy = true;
  proxied.proxy_dir =
      (std::filesystem::temp_directory_path() / "eth_harness_proxy").string();
  std::filesystem::remove_all(proxied.proxy_dir);

  const Harness harness;
  const RunResult a = harness.run(direct);
  const RunResult b = harness.run(proxied);
  ASSERT_TRUE(a.final_image && b.final_image);
  EXPECT_DOUBLE_EQ(image_rmse(*a.final_image, *b.final_image), 0.0);
  std::filesystem::remove_all(proxied.proxy_dir);
}

TEST(Harness, ArtifactsWrittenWhenRequested) {
  ExperimentSpec spec = small_hacc();
  spec.artifact_dir =
      (std::filesystem::temp_directory_path() / "eth_harness_artifacts").string();
  std::filesystem::remove_all(spec.artifact_dir);
  const Harness harness;
  harness.run(spec);
  Index ppm_count = 0;
  for (const auto& entry : std::filesystem::directory_iterator(spec.artifact_dir))
    if (entry.path().extension() == ".ppm") ++ppm_count;
  // timesteps * images_per_timestep artifacts.
  EXPECT_EQ(ppm_count, spec.timesteps * spec.viz.images_per_timestep);
  std::filesystem::remove_all(spec.artifact_dir);
}

TEST(Harness, RenderReferenceGivesFullDataImage) {
  const ExperimentSpec spec = small_hacc();
  const ImageBuffer ref = Harness::render_reference(spec);
  EXPECT_EQ(ref.width(), 32);
  Index covered = 0;
  for (Index y = 0; y < ref.height(); ++y)
    for (Index x = 0; x < ref.width(); ++x)
      if (std::isfinite(ref.depth(x, y))) ++covered;
  EXPECT_GT(covered, 10);
}

TEST(Harness, XrageRunWorks) {
  ExperimentSpec spec;
  spec.name = "harness-xrage";
  spec.application = Application::kXrage;
  spec.xrage.dims = {20, 16, 14};
  spec.viz.algorithm = insitu::VizAlgorithm::kRaycastVolume;
  spec.viz.image_width = 24;
  spec.viz.image_height = 24;
  spec.viz.images_per_timestep = 1;
  spec.layout.nodes = 4;
  spec.layout.ranks = 2;
  const Harness harness;
  const RunResult result = harness.run(spec);
  EXPECT_GT(result.exec_seconds, 0);
  EXPECT_GT(result.counters.rays_cast, 0);
}

TEST(Harness, TransportQuantizationShrinksPayload) {
  ExperimentSpec plain = small_hacc(cluster::Coupling::kIntercore);
  ExperimentSpec squeezed = plain;
  squeezed.transport_quantization_bits = 8;
  const Harness harness;
  const RunResult a = harness.run(plain);
  const RunResult b = harness.run(squeezed);
  EXPECT_LT(double(b.bytes_transferred), 0.5 * double(a.bytes_transferred));
  // The lossy payload still renders a recognizably similar image.
  ASSERT_TRUE(a.final_image && b.final_image);
  EXPECT_LT(image_rmse(*a.final_image, *b.final_image), 0.15);
}

TEST(Harness, InvalidSpecRejectedBeforeExecution) {
  ExperimentSpec spec = small_hacc();
  spec.viz.algorithm = insitu::VizAlgorithm::kVtkGeometry; // mismatch
  const Harness harness;
  EXPECT_THROW(harness.run(spec), Error);
}

} // namespace
} // namespace eth
