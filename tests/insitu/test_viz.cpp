#include "insitu/viz.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>

#include "parallel/thread_pool.hpp"
#include "sim/hacc_generator.hpp"
#include "sim/xrage_generator.hpp"

namespace eth::insitu {
namespace {

Camera camera_for(const DataSet& ds) {
  return Camera::framing(ds.bounds(), normalize(Vec3f{-0.5f, -0.4f, -0.75f}));
}

Index covered_pixels(const ImageBuffer& img) {
  Index n = 0;
  for (Index y = 0; y < img.height(); ++y)
    for (Index x = 0; x < img.width(); ++x)
      if (std::isfinite(img.depth(x, y))) ++n;
  return n;
}

std::unique_ptr<PointSet> hacc_data(Index n = 5000) {
  sim::HaccParams p;
  p.num_particles = n;
  p.num_halos = 12;
  return sim::generate_hacc(p);
}

std::unique_ptr<StructuredGrid> xrage_data() {
  sim::XrageParams p;
  p.dims = {24, 18, 16};
  p.timestep = 4;
  return sim::generate_xrage(p);
}

class ParticleAlgoTest : public ::testing::TestWithParam<VizAlgorithm> {};

TEST_P(ParticleAlgoTest, RendersRequestedImages) {
  const auto data = hacc_data();
  VizConfig cfg;
  cfg.algorithm = GetParam();
  cfg.image_width = 64;
  cfg.image_height = 64;
  cfg.images_per_timestep = 3;
  const VizRankOutput out = run_viz_rank(*data, cfg, camera_for(*data));
  ASSERT_EQ(out.images.size(), 3u);
  for (const ImageBuffer& img : out.images) {
    EXPECT_EQ(img.width(), 64);
    EXPECT_GT(covered_pixels(img), 50); // something rendered
  }
  EXPECT_EQ(out.input_elements, data->num_points());
  EXPECT_EQ(out.working_elements, data->num_points());
  EXPECT_GT(out.counters.phases.get("render"), 0.0);
}

TEST_P(ParticleAlgoTest, SamplingReducesWorkingSet) {
  const auto data = hacc_data();
  VizConfig cfg;
  cfg.algorithm = GetParam();
  cfg.image_width = 32;
  cfg.image_height = 32;
  cfg.images_per_timestep = 1;
  cfg.sampling_ratio = 0.25;
  const VizRankOutput out = run_viz_rank(*data, cfg, camera_for(*data));
  EXPECT_NEAR(double(out.working_elements) / double(out.input_elements), 0.25, 0.05);
  EXPECT_GT(out.counters.phases.get("sample"), 0.0);
}

INSTANTIATE_TEST_SUITE_P(ParticleAlgorithms, ParticleAlgoTest,
                         ::testing::Values(VizAlgorithm::kRaycastSpheres,
                                           VizAlgorithm::kGaussianSplat,
                                           VizAlgorithm::kVtkPoints));

TEST(VizRank, RaycastBuildPhaseOnlyOncePerTimestep) {
  const auto data = hacc_data(2000);
  VizConfig cfg;
  cfg.algorithm = VizAlgorithm::kRaycastSpheres;
  cfg.image_width = 32;
  cfg.image_height = 32;
  cfg.images_per_timestep = 4;
  const VizRankOutput out = run_viz_rank(*data, cfg, camera_for(*data));
  // The acceleration structure is built once ("the points are placed
  // into a specialized acceleration structure"), rendering happens 4x.
  EXPECT_GT(out.counters.phases.get("build"), 0.0);
  EXPECT_EQ(out.counters.rays_cast, 4 * 32 * 32);
}

class VolumeAlgoTest : public ::testing::TestWithParam<VizAlgorithm> {};

TEST_P(VolumeAlgoTest, RendersIsoAndSlices) {
  const auto data = xrage_data();
  VizConfig cfg;
  cfg.algorithm = GetParam();
  cfg.image_width = 64;
  cfg.image_height = 64;
  cfg.images_per_timestep = 2;
  cfg.isovalue = 0.5f;
  cfg.num_slices = 2;
  const VizRankOutput out = run_viz_rank(*data, cfg, camera_for(*data));
  ASSERT_EQ(out.images.size(), 2u);
  for (const ImageBuffer& img : out.images) EXPECT_GT(covered_pixels(img), 200);
  EXPECT_EQ(out.input_elements, data->num_cells());
}

TEST_P(VolumeAlgoTest, ImagesVaryAcrossSequence) {
  // Sliding planes + varying isovalue + orbiting camera: successive
  // images must differ.
  const auto data = xrage_data();
  VizConfig cfg;
  cfg.algorithm = GetParam();
  cfg.image_width = 48;
  cfg.image_height = 48;
  cfg.images_per_timestep = 2;
  const VizRankOutput out = run_viz_rank(*data, cfg, camera_for(*data));
  EXPECT_GT(image_rmse(out.images[0], out.images[1]), 0.005);
}

INSTANTIATE_TEST_SUITE_P(VolumeAlgorithms, VolumeAlgoTest,
                         ::testing::Values(VizAlgorithm::kVtkGeometry,
                                           VizAlgorithm::kRaycastVolume));

TEST(VizRank, GeometryPipelineEmitsPrimitivesRaycastDoesNot) {
  const auto data = xrage_data();
  VizConfig cfg;
  cfg.image_width = 32;
  cfg.image_height = 32;
  cfg.images_per_timestep = 1;

  cfg.algorithm = VizAlgorithm::kVtkGeometry;
  const auto geo = run_viz_rank(*data, cfg, camera_for(*data));
  // Counts both extraction output and rasterized primitives.
  EXPECT_GT(geo.counters.primitives_emitted, 0);
  EXPECT_GT(geo.counters.phases.get("extract"), 0.0);

  cfg.algorithm = VizAlgorithm::kRaycastVolume;
  const auto ray = run_viz_rank(*data, cfg, camera_for(*data));
  EXPECT_EQ(ray.counters.primitives_emitted, 0);
  EXPECT_GT(ray.counters.rays_cast, 0);
  EXPECT_DOUBLE_EQ(ray.counters.phases.get("extract"), 0.0);
}

TEST(VizRank, TwoBackEndsAgreeOnCoverageApproximately) {
  // Both pipelines render the same slices + isosurface from the same
  // camera; their images should overlap substantially (quality
  // comparisons across back-ends are meaningful — Table II's premise).
  const auto data = xrage_data();
  VizConfig cfg;
  cfg.image_width = 64;
  cfg.image_height = 64;
  cfg.images_per_timestep = 1;
  cfg.algorithm = VizAlgorithm::kVtkGeometry;
  const auto geo = run_viz_rank(*data, cfg, camera_for(*data));
  cfg.algorithm = VizAlgorithm::kRaycastVolume;
  const auto ray = run_viz_rank(*data, cfg, camera_for(*data));

  const double cover_geo = double(covered_pixels(geo.images[0]));
  const double cover_ray = double(covered_pixels(ray.images[0]));
  EXPECT_NEAR(cover_geo / cover_ray, 1.0, 0.35);
}

TEST(VizRank, MismatchedAlgorithmAndDataThrow) {
  const auto points = hacc_data(100);
  VizConfig cfg;
  cfg.algorithm = VizAlgorithm::kVtkGeometry;
  EXPECT_THROW(run_viz_rank(*points, cfg, camera_for(*points)), Error);
  const auto grid = xrage_data();
  cfg.algorithm = VizAlgorithm::kVtkPoints;
  EXPECT_THROW(run_viz_rank(*grid, cfg, camera_for(*grid)), Error);
}

TEST(VizRank, ConfigValidation) {
  const auto data = hacc_data(10);
  VizConfig cfg;
  cfg.images_per_timestep = 0;
  EXPECT_THROW(run_viz_rank(*data, cfg, camera_for(*data)), Error);
  cfg = VizConfig{};
  cfg.image_width = 0;
  EXPECT_THROW(run_viz_rank(*data, cfg, camera_for(*data)), Error);
}

TEST(VizRank, CameraOrbitCoversQuarterTurn) {
  const Camera base({0, 0, 10}, {0, 0, 0}, {0, 1, 0}, 0.6f, 0.1f, 100);
  const Camera last = camera_for_image(base, 3, 4);
  // 3/4 of a quarter turn.
  const Real angle = std::acos(
      dot(normalize(base.eye() - base.center()), normalize(last.eye() - last.center())));
  EXPECT_NEAR(angle, 1.5707963f * 3 / 4, 0.01);
  // Single image: identity.
  EXPECT_EQ(camera_for_image(base, 0, 1).eye(), base.eye());
}

TEST(VizRank, TimestepVariesVolumeParameters) {
  // "Two sliding planes and a varying isovalue": different timesteps
  // must produce different geometry/images from the same data.
  const auto data = xrage_data();
  VizConfig cfg;
  cfg.algorithm = VizAlgorithm::kRaycastVolume;
  cfg.image_width = 48;
  cfg.image_height = 48;
  cfg.images_per_timestep = 1;
  cfg.timestep = 0;
  const auto t0 = run_viz_rank(*data, cfg, camera_for(*data));
  cfg.timestep = 3;
  const auto t3 = run_viz_rank(*data, cfg, camera_for(*data));
  EXPECT_GT(image_rmse(t0.images[0], t3.images[0]), 0.005);
}

TEST(VizRank, WithinTimestepExtractionIsAmortized) {
  // The geometry pipeline extracts once per timestep regardless of how
  // many images it renders.
  const auto data = xrage_data();
  VizConfig cfg;
  cfg.algorithm = VizAlgorithm::kVtkGeometry;
  cfg.image_width = 32;
  cfg.image_height = 32;
  cfg.images_per_timestep = 1;
  const auto one = run_viz_rank(*data, cfg, camera_for(*data));
  cfg.images_per_timestep = 4;
  const auto four = run_viz_rank(*data, cfg, camera_for(*data));
  // bytes_written counts extracted geometry: one extraction regardless
  // of image count.
  EXPECT_EQ(one.counters.bytes_written, four.counters.bytes_written);
  EXPECT_GT(one.counters.bytes_written, 0u);
}

class ScopedPool {
public:
  explicit ScopedPool(unsigned threads) : pool_(threads) { set_global_pool(&pool_); }
  ~ScopedPool() { set_global_pool(nullptr); }
  ScopedPool(const ScopedPool&) = delete;
  ScopedPool& operator=(const ScopedPool&) = delete;

private:
  ThreadPool pool_;
};

constexpr VizAlgorithm kAllAlgorithms[] = {
    VizAlgorithm::kRaycastSpheres, VizAlgorithm::kGaussianSplat,
    VizAlgorithm::kVtkPoints,      VizAlgorithm::kVtkGeometry,
    VizAlgorithm::kRaycastVolume,  VizAlgorithm::kRaycastDvr};

void expect_same_bytes(const ImageBuffer& a, const ImageBuffer& b) {
  ASSERT_EQ(a.width(), b.width());
  ASSERT_EQ(a.height(), b.height());
  ASSERT_EQ(a.colors().size(), b.colors().size());
  ASSERT_EQ(a.depths().size(), b.depths().size());
  EXPECT_EQ(std::memcmp(a.colors().data(), b.colors().data(),
                        a.colors().size() * sizeof(Vec4f)),
            0);
  EXPECT_EQ(std::memcmp(a.depths().data(), b.depths().data(),
                        a.depths().size() * sizeof(Real)),
            0);
}

/// Overwrite every pixel with values no render starts from: NaN colors,
/// finite and -inf depths.
void poison(ImageBuffer& image) {
  const Real nan = std::numeric_limits<Real>::quiet_NaN();
  for (Vec4f& c : image.colors()) c = {nan, nan, nan, nan};
  for (std::size_t i = 0; i < image.depths().size(); ++i)
    image.depths()[i] = i % 2 == 0 ? Real(1e-3) : -std::numeric_limits<Real>::infinity();
}

TEST(VizFrameSink, ReusedFrameMatchesCollectedImagesAfterPoisoning) {
  const auto points = hacc_data(3000);
  const auto grid = xrage_data();
  for (const unsigned threads : {1u, 4u}) {
    const ScopedPool pool(threads);
    for (const VizAlgorithm algorithm : kAllAlgorithms) {
      SCOPED_TRACE(std::string(to_string(algorithm)) + " at " +
                   std::to_string(threads) + " workers");
      const DataSet& data =
          is_particle_algorithm(algorithm) ? static_cast<const DataSet&>(*points) : *grid;
      VizConfig cfg;
      cfg.algorithm = algorithm;
      cfg.image_width = 40;
      cfg.image_height = 28;
      cfg.images_per_timestep = 3;
      const Camera camera = camera_for(data);
      const VizRankOutput reference = run_viz_rank(data, cfg, camera);

      ImageBuffer frame;
      const Vec4f* storage = nullptr;
      std::vector<ImageBuffer> seen;
      const VizRankOutput out =
          run_viz_rank(data, cfg, camera, frame, [&](ImageBuffer& image) {
            if (storage == nullptr) storage = image.colors().data();
            EXPECT_EQ(image.colors().data(), storage) << "frame was reallocated";
            seen.push_back(image);
            poison(image); // the next image must not see any of it
          });
      EXPECT_TRUE(out.images.empty());
      ASSERT_EQ(seen.size(), reference.images.size());
      for (std::size_t i = 0; i < seen.size(); ++i)
        expect_same_bytes(seen[i], reference.images[i]);
      EXPECT_EQ(out.counters.rays_cast, reference.counters.rays_cast);
      EXPECT_EQ(out.counters.ray_steps, reference.counters.ray_steps);
      EXPECT_EQ(out.counters.bvh_nodes_visited, reference.counters.bvh_nodes_visited);
      EXPECT_EQ(out.counters.primitives_emitted, reference.counters.primitives_emitted);
      EXPECT_EQ(out.input_elements, reference.input_elements);
      EXPECT_EQ(out.working_elements, reference.working_elements);
    }
  }
}

TEST(VizFrameSink, MovedOutOrMisSizedFrameIsReallocated) {
  const auto grid = xrage_data();
  for (const VizAlgorithm algorithm :
       {VizAlgorithm::kRaycastVolume, VizAlgorithm::kRaycastDvr}) {
    SCOPED_TRACE(to_string(algorithm));
    VizConfig cfg;
    cfg.algorithm = algorithm;
    cfg.image_width = 36;
    cfg.image_height = 20;
    cfg.images_per_timestep = 4;
    const Camera camera = camera_for(*grid);
    const VizRankOutput reference = run_viz_rank(*grid, cfg, camera);

    // The frame starts at the wrong size. The sink keeps and poisons
    // even images and moves odd ones out, so images alternate between
    // a newly allocated frame and a cleared one.
    ImageBuffer frame(5, 7);
    std::vector<ImageBuffer> seen;
    run_viz_rank(*grid, cfg, camera, frame, [&](ImageBuffer& image) {
      if (seen.size() % 2 == 0) {
        seen.push_back(image);
        poison(image);
      } else {
        seen.push_back(std::move(image));
      }
    });
    EXPECT_EQ(frame.num_pixels(), 0); // the last image was moved out
    ASSERT_EQ(seen.size(), reference.images.size());
    for (std::size_t i = 0; i < seen.size(); ++i)
      expect_same_bytes(seen[i], reference.images[i]);
  }
}

TEST(VizAlgorithm, NamesAndKinds) {
  EXPECT_STREQ(to_string(VizAlgorithm::kRaycastSpheres), "raycast-spheres");
  EXPECT_STREQ(to_string(VizAlgorithm::kVtkGeometry), "vtk-geometry");
  EXPECT_TRUE(is_particle_algorithm(VizAlgorithm::kGaussianSplat));
  EXPECT_FALSE(is_particle_algorithm(VizAlgorithm::kRaycastVolume));
}

} // namespace
} // namespace eth::insitu
