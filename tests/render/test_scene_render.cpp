// Tests for the volume raycaster's single-pass scene renderer and the
// precomputed camera frame.

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "render/ray/raycaster.hpp"
#include "sim/xrage_generator.hpp"

namespace eth {
namespace {

Camera front_camera() {
  return Camera({0, 0, 10}, {0, 0, 0}, {0, 1, 0}, 0.6f, 0.1f, 100);
}

std::unique_ptr<StructuredGrid> turbulent_grid() {
  sim::XrageParams params;
  params.dims = {24, 20, 18};
  params.timestep = 5;
  auto grid = sim::generate_xrage(params);
  return grid;
}

TEST(CameraFrame, MatchesGenerateRay) {
  Rng rng(3);
  for (int trial = 0; trial < 10; ++trial) {
    const Camera cam(rng.point_in_box({-5, -5, 5}, {5, 5, 15}),
                     rng.point_in_box({-1, -1, -1}, {1, 1, 1}), {0, 1, 0}, 0.7f,
                     0.1f, 200);
    const CameraFrame frame = cam.frame(33, 21);
    for (Index py = 0; py < 21; py += 4)
      for (Index px = 0; px < 33; px += 4) {
        const Ray a = frame.ray(px, py);
        const Ray b = cam.generate_ray(px, py, 33, 21);
        EXPECT_EQ(a.origin, b.origin);
        EXPECT_EQ(a.direction, b.direction);
      }
  }
}

TEST(SceneRender, MatchesSequentialPasses) {
  // One-pass scene render == iso pass + slice passes composited by
  // depth (the multi-pass reference).
  const auto grid = turbulent_grid();
  const Camera camera = Camera::framing(grid->bounds(), {-0.5f, -0.4f, -0.75f});
  const TransferFunction map = TransferFunction::thermal().rescaled(0, 1);

  IsoRaycastOptions iso;
  iso.isovalue = 0.45f;
  std::vector<SliceRaycastOptions> slices(2);
  slices[0].plane_origin = grid->bounds().center();
  slices[0].plane_normal = {1, 0, 0};
  slices[0].colormap = &map;
  slices[1].plane_origin = grid->bounds().center();
  slices[1].plane_normal = {0, 0, 1};
  slices[1].colormap = &map;

  cluster::PerfCounters counters;
  RaycastRenderer renderer;
  ImageBuffer scene(64, 64);
  scene.clear();
  renderer.render_volume_scene(*grid, "temperature", camera, scene, iso, slices,
                               counters);

  ImageBuffer reference(64, 64);
  reference.clear();
  renderer.render_volume_iso(*grid, "temperature", camera, reference, iso, counters);
  for (const auto& slice : slices)
    renderer.render_volume_slice(*grid, "temperature", camera, reference, slice,
                                 counters);

  EXPECT_LT(image_rmse(scene, reference), 0.02);
}

TEST(SceneRender, IsoOcclusionBoundsTheMarch) {
  // A slice right at the volume's near face occludes everything; the
  // march should terminate there (few steps, slice color everywhere the
  // volume projects).
  const auto grid = turbulent_grid();
  const Camera camera = Camera::framing(grid->bounds(), {0, 0, -1});
  const TransferFunction map = TransferFunction::grayscale().rescaled(0, 1);

  IsoRaycastOptions iso;
  iso.isovalue = 0.45f;
  SliceRaycastOptions near_slice;
  const AABB box = grid->bounds();
  near_slice.plane_origin = {box.center().x, box.center().y, box.hi.z - 0.01f};
  near_slice.plane_normal = {0, 0, 1};
  near_slice.colormap = &map;

  cluster::PerfCounters with_slice, without_slice;
  RaycastRenderer renderer;
  ImageBuffer img(48, 48);
  img.clear();
  renderer.render_volume_scene(*grid, "temperature", camera, img, iso,
                               std::vector<SliceRaycastOptions>{near_slice},
                               with_slice);
  ImageBuffer img2(48, 48);
  img2.clear();
  renderer.render_volume_scene(*grid, "temperature", camera, img2, iso, {},
                               without_slice);
  EXPECT_LT(with_slice.ray_steps, without_slice.ray_steps / 2);
}

TEST(SceneRender, SliceRequiresColormap) {
  const auto grid = turbulent_grid();
  RaycastRenderer renderer;
  ImageBuffer img(8, 8);
  cluster::PerfCounters counters;
  std::vector<SliceRaycastOptions> slices(1); // no colormap
  EXPECT_THROW(renderer.render_volume_scene(*grid, "temperature", front_camera(), img,
                                            {}, slices, counters),
               Error);
}

} // namespace
} // namespace eth
