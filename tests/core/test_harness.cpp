#include "core/harness.hpp"

#include <gtest/gtest.h>

#include <filesystem>

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

TEST(Harness, InMemoryHaccGenerateScalesAsOneOverNodes) {
  // Modelled generate must not depend on the produce mode: an in-memory
  // HACC share is charged 1/P of its timestep's pass, as a disk-proxy
  // load reads 1/P of the data. Charging each rank its whole pass (the
  // stream is drawn in full for any slab) made the sum nearly flat in P.
  const auto summed_generate = [](int nodes) {
    ExperimentSpec spec = small_hacc();
    spec.hacc.num_particles = 40000;
    spec.layout.nodes = nodes;
    double sum = 0;
    for (const auto& phases : Harness().run(spec).rank_phase_cpu)
      sum += phases.at("generate");
    return sum;
  };
  ArtifactCache& cache = global_artifact_cache();
  const bool was_enabled = cache.enabled();
  for (const bool cache_on : {true, false}) {
    cache.set_enabled(cache_on);
    cache.clear();
    const double at_4 = summed_generate(4);
    const double at_64 = summed_generate(64);
    EXPECT_GT(at_64, 0.0) << "cache " << cache_on;
    EXPECT_LT(at_64, at_4 / 4) << "cache " << cache_on;
  }
  cache.set_enabled(was_enabled);
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
