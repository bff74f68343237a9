// Tests for direct volume rendering and its ordered premultiplied-alpha
// compositing (the kRaycastDvr extension pipeline).

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "common/rng.hpp"
#include "insitu/viz.hpp"
#include "render/compositor.hpp"
#include "render/ray/raycaster.hpp"
#include "sim/xrage_generator.hpp"

namespace eth {
namespace {

sim::XrageParams volume_params() {
  sim::XrageParams params;
  params.dims = {24, 20, 18};
  params.timestep = 5;
  return params;
}

std::unique_ptr<StructuredGrid> volume() { return sim::generate_xrage(volume_params()); }

TEST(Dvr, AccumulatesWhereTheVolumeIsDense) {
  const auto grid = volume();
  const Camera camera = Camera::framing(grid->bounds(), {-0.5f, -0.4f, -0.75f});
  const TransferFunction tf = TransferFunction::thermal().rescaled(0, 1);
  DvrRaycastOptions options;
  options.transfer = &tf;

  RaycastRenderer renderer;
  ImageBuffer img(64, 64);
  img.clear({0, 0, 0, 0});
  cluster::PerfCounters counters;
  renderer.render_volume_dvr(*grid, "temperature", camera, img, options, counters);

  // Alpha accumulated somewhere, nowhere exceeding 1.
  Real max_alpha = 0;
  Index nonzero = 0;
  for (Index y = 0; y < 64; ++y)
    for (Index x = 0; x < 64; ++x) {
      const Real a = img.color(x, y).w;
      EXPECT_LE(a, 1.0f + 1e-4f);
      EXPECT_GE(a, 0.0f);
      max_alpha = std::max(max_alpha, a);
      if (a > 0) ++nonzero;
    }
  EXPECT_GT(max_alpha, 0.5f);
  EXPECT_GT(nonzero, 200);
  EXPECT_GT(counters.ray_steps, 0);
}

TEST(Dvr, OpacityScaleMonotonicallyIncreasesAlpha) {
  const auto grid = volume();
  const Camera camera = Camera::framing(grid->bounds(), {-0.5f, -0.4f, -0.75f});
  const TransferFunction tf = TransferFunction::thermal().rescaled(0, 1);
  cluster::PerfCounters counters;
  RaycastRenderer renderer;

  double last_mean = -1;
  for (const Real scale : {0.2f, 1.0f, 4.0f}) {
    DvrRaycastOptions options;
    options.transfer = &tf;
    options.opacity_scale = scale;
    ImageBuffer img(48, 48);
    img.clear({0, 0, 0, 0});
    renderer.render_volume_dvr(*grid, "temperature", camera, img, options, counters);
    double mean = 0;
    for (Index y = 0; y < 48; ++y)
      for (Index x = 0; x < 48; ++x) mean += img.color(x, y).w;
    mean /= 48.0 * 48.0;
    EXPECT_GT(mean, last_mean);
    last_mean = mean;
  }
}

TEST(Dvr, StepScaleChangesResolutionNotOpticalDepth) {
  // Opacity correction: halving the step should not change the image
  // much (the integral is step-compensated).
  const auto grid = volume();
  const Camera camera = Camera::framing(grid->bounds(), {-0.5f, -0.4f, -0.75f});
  const TransferFunction tf = TransferFunction::thermal().rescaled(0, 1);
  cluster::PerfCounters counters;
  RaycastRenderer renderer;

  ImageBuffer coarse(48, 48), fine(48, 48);
  coarse.clear({0, 0, 0, 0});
  fine.clear({0, 0, 0, 0});
  DvrRaycastOptions options;
  options.transfer = &tf;
  options.step_scale = 1.0f;
  renderer.render_volume_dvr(*grid, "temperature", camera, coarse, options, counters);
  options.step_scale = 0.5f;
  renderer.render_volume_dvr(*grid, "temperature", camera, fine, options, counters);
  EXPECT_LT(image_rmse(coarse, fine), 0.04);
}

TEST(Dvr, RequiresTransferFunction) {
  const auto grid = volume();
  RaycastRenderer renderer;
  ImageBuffer img(8, 8);
  cluster::PerfCounters counters;
  EXPECT_THROW(renderer.render_volume_dvr(*grid, "temperature",
                                          Camera::framing(grid->bounds(), {0, 0, -1}),
                                          img, {}, counters),
               Error);
}

TEST(Dvr, OrderedCompositeMatchesSerialRender) {
  // Cut the volume into the harness's per-rank blocks, DVR each
  // partial, alpha-composite in view order: the result must closely
  // match a serial full-volume render (sort-last DVR correctness).
  const sim::XrageParams params = volume_params();
  const auto grid = volume();
  const Camera camera = Camera::framing(grid->bounds(), {0.1f, -0.2f, -1.0f});
  const TransferFunction tf = TransferFunction::thermal().rescaled(0, 1);
  DvrRaycastOptions options;
  options.transfer = &tf;
  cluster::PerfCounters counters;
  RaycastRenderer renderer;

  ImageBuffer serial(64, 64);
  serial.clear({0, 0, 0, 0});
  renderer.render_volume_dvr(*grid, "temperature", camera, serial, options, counters);

  constexpr int kParts = 3;
  std::vector<ImageBuffer> partials;
  std::vector<double> dists;
  for (int share = 0; share < kParts; ++share) {
    const auto [lo, hi] = sim::grid_block_range(params.dims, share, kParts);
    const auto block = sim::generate_xrage_block(params, lo, hi);
    ImageBuffer img(64, 64);
    img.clear({0, 0, 0, 0});
    renderer.render_volume_dvr(*block, "temperature", camera, img, options, counters);
    partials.push_back(std::move(img));
    dists.push_back(double(length(block->bounds().center() - camera.eye())));
  }
  // Front to back by view distance, ties to the lower block (the
  // harness's blend order).
  std::vector<std::size_t> order(kParts);
  std::iota(order.begin(), order.end(), std::size_t(0));
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return dists[a] != dists[b] ? dists[a] < dists[b] : a < b;
  });
  ImageBuffer merged(64, 64);
  merged.clear({0, 0, 0, 0});
  alpha_composite_premultiplied(partials, order, merged, counters);

  // Slab-boundary resampling introduces small differences; structure
  // must survive.
  EXPECT_LT(image_rmse(merged, serial), 0.03);
  EXPECT_GT(image_ssim(merged, serial), 0.9);
}

TEST(Dvr, RunsThroughVizRank) {
  const auto grid = volume();
  insitu::VizConfig cfg;
  cfg.algorithm = insitu::VizAlgorithm::kRaycastDvr;
  cfg.image_width = 48;
  cfg.image_height = 48;
  cfg.images_per_timestep = 2;
  const Camera camera = Camera::framing(grid->bounds(), {-0.5f, -0.4f, -0.75f});
  const auto out = insitu::run_viz_rank(*grid, cfg, camera);
  ASSERT_EQ(out.images.size(), 2u);
  Real max_alpha = 0;
  for (Index y = 0; y < 48; ++y)
    for (Index x = 0; x < 48; ++x)
      max_alpha = std::max(max_alpha, out.images[0].color(x, y).w);
  EXPECT_GT(max_alpha, 0.3f);
  EXPECT_STREQ(insitu::to_string(insitu::VizAlgorithm::kRaycastDvr), "raycast-dvr");
  EXPECT_FALSE(insitu::is_particle_algorithm(insitu::VizAlgorithm::kRaycastDvr));
}

TEST(Ssim, IdenticalImagesScoreOne) {
  ImageBuffer a(32, 32);
  a.clear({0.3f, 0.5f, 0.7f, 1});
  EXPECT_NEAR(image_ssim(a, a), 1.0, 1e-9);
}

TEST(Ssim, StructuralDamageScoresBelowUniformShift) {
  // SSIM's point over RMSE: a constant brightness shift hurts less
  // than scrambling structure at equal RMSE.
  ImageBuffer base(64, 64);
  base.clear();
  for (Index y = 0; y < 64; ++y)
    for (Index x = 0; x < 64; ++x)
      base.set_color(x, y, {Real((x / 8 + y / 8) % 2), 0.5f, 0.5f, 1}); // checker

  ImageBuffer shifted = base;
  for (Index y = 0; y < 64; ++y)
    for (Index x = 0; x < 64; ++x) {
      Vec4f c = shifted.color(x, y);
      c.x = clamp(c.x + 0.15f, 0.0f, 1.0f);
      shifted.set_color(x, y, c);
    }

  ImageBuffer scrambled = base;
  Rng rng(3);
  for (Index y = 0; y < 64; ++y)
    for (Index x = 0; x < 64; ++x) {
      Vec4f c = scrambled.color(x, y);
      c.x = Real(rng.uniform());
      scrambled.set_color(x, y, c);
    }

  EXPECT_GT(image_ssim(base, shifted), image_ssim(base, scrambled));
  EXPECT_LT(image_ssim(base, scrambled), 0.6);
}

TEST(Ssim, SizeMismatchThrows) {
  ImageBuffer a(8, 8), b(8, 9);
  EXPECT_THROW(image_ssim(a, b), Error);
}

} // namespace
} // namespace eth
