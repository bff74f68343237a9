// Serial-vs-parallel golden tests: every kernel on the per-timestep hot
// path must be bit-identical at any thread count (DESIGN.md "Threading
// model"). Each scene renders under pools of 1, 2 and 8 workers and the
// images are compared with memcmp — not a tolerance — along with the
// deterministic PerfCounters fields, which must merge to the same values
// regardless of worker scheduling.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "data/point_set.hpp"
#include "data/structured_grid.hpp"
#include "data/triangle_mesh.hpp"
#include "parallel/thread_pool.hpp"
#include "pipeline/isosurface.hpp"
#include "pipeline/slice.hpp"
#include "render/colormap.hpp"
#include "render/compositor.hpp"
#include "render/raster/rasterizer.hpp"
#include "render/ray/raycaster.hpp"

namespace eth {
namespace {

/// Swap the global pool for one with `threads` workers for this scope.
class ScopedPool {
public:
  explicit ScopedPool(unsigned threads) : pool_(threads) { set_global_pool(&pool_); }
  ~ScopedPool() { set_global_pool(nullptr); }

  ScopedPool(const ScopedPool&) = delete;
  ScopedPool& operator=(const ScopedPool&) = delete;

private:
  ThreadPool pool_;
};

constexpr unsigned kThreadCounts[] = {1, 2, 8};

bool images_bit_identical(const ImageBuffer& a, const ImageBuffer& b) {
  if (a.width() != b.width() || a.height() != b.height()) return false;
  return std::memcmp(a.colors().data(), b.colors().data(),
                     a.colors().size() * sizeof(Vec4f)) == 0 &&
         std::memcmp(a.depths().data(), b.depths().data(),
                     a.depths().size() * sizeof(Real)) == 0;
}

/// Compare every scheduling-independent counter (phase CPU seconds are
/// genuinely timing-dependent and excluded).
void expect_counters_identical(const cluster::PerfCounters& a,
                               const cluster::PerfCounters& b) {
  EXPECT_EQ(a.elements_processed, b.elements_processed);
  EXPECT_EQ(a.primitives_emitted, b.primitives_emitted);
  EXPECT_EQ(a.rays_cast, b.rays_cast);
  EXPECT_EQ(a.ray_steps, b.ray_steps);
  EXPECT_EQ(a.bvh_nodes_visited, b.bvh_nodes_visited);
  EXPECT_EQ(a.flop_estimate, b.flop_estimate); // exact: fixed merge order
  EXPECT_EQ(a.bytes_read, b.bytes_read);
  EXPECT_EQ(a.bytes_written, b.bytes_written);
  EXPECT_EQ(a.bytes_communicated, b.bytes_communicated);
  EXPECT_EQ(a.max_parallel_items, b.max_parallel_items);
}

/// Run `render` under 1, 2 and 8 worker threads; the 1-thread result is
/// the golden reference the others must match bit for bit.
void expect_render_deterministic(
    const std::function<std::pair<ImageBuffer, cluster::PerfCounters>()>& render) {
  std::unique_ptr<ImageBuffer> golden_image;
  cluster::PerfCounters golden_counters;
  for (const unsigned threads : kThreadCounts) {
    ScopedPool scoped(threads);
    auto [image, counters] = render();
    if (!golden_image) {
      golden_image = std::make_unique<ImageBuffer>(std::move(image));
      golden_counters = counters;
      continue;
    }
    EXPECT_TRUE(images_bit_identical(*golden_image, image))
        << "image differs at " << threads << " threads";
    expect_counters_identical(golden_counters, counters);
  }
}

Camera front_camera() {
  return Camera({0, 0, 10}, {0, 0, 0}, {0, 1, 0}, 0.6f, 0.1f, 100);
}

std::shared_ptr<PointSet> random_cloud(Index n, unsigned seed) {
  auto ps = std::make_shared<PointSet>(n);
  Rng rng(seed);
  Field scalar("speed", n, 1);
  for (Index i = 0; i < n; ++i) {
    ps->set_position(i, {Real(rng.uniform(-3, 3)), Real(rng.uniform(-3, 3)),
                         Real(rng.uniform(-3, 3))});
    scalar.set(i, Real(rng.uniform()));
  }
  ps->point_fields().add(std::move(scalar));
  return ps;
}

std::shared_ptr<StructuredGrid> wavy_grid(Index dim) {
  const Vec3f spacing{Real(6) / Real(dim - 1), Real(6) / Real(dim - 1),
                      Real(6) / Real(dim - 1)};
  auto grid = std::make_shared<StructuredGrid>(Vec3i{int(dim), int(dim), int(dim)},
                                               Vec3f{-3, -3, -3}, spacing);
  Field& f = grid->add_scalar_field("v");
  for (Index k = 0; k < dim; ++k)
    for (Index j = 0; j < dim; ++j)
      for (Index i = 0; i < dim; ++i) {
        const Vec3f p = grid->point_position(i, j, k);
        f.set(grid->point_index(i, j, k),
              std::sin(p.x) * std::cos(p.y) + Real(0.3) * p.z);
      }
  return grid;
}

TEST(ParallelGolden, SphereRaycastBitIdentical) {
  const auto ps = random_cloud(400, 7);
  const TransferFunction tf = TransferFunction::viridis();
  expect_render_deterministic([&] {
    RaycastRenderer renderer;
    SphereRaycastOptions options;
    options.world_radius = 0.15f;
    options.colormap = &tf;
    options.scalar_field = "speed";
    cluster::PerfCounters counters;
    renderer.build_spheres(*ps, options, counters);
    ImageBuffer image(96, 80);
    image.clear();
    renderer.render_spheres(*ps, front_camera(), image, options, counters);
    return std::make_pair(std::move(image), counters);
  });
}

TEST(ParallelGolden, VolumeSceneRaycastBitIdentical) {
  const auto grid = wavy_grid(20);
  const TransferFunction tf = TransferFunction::thermal().rescaled(-2, 2);
  expect_render_deterministic([&] {
    RaycastRenderer renderer;
    cluster::PerfCounters counters;
    IsoRaycastOptions iso;
    iso.isovalue = 0.4f;
    SliceRaycastOptions slice;
    slice.plane_origin = {0, 0, 0};
    slice.plane_normal = {1, 0, 0};
    slice.colormap = &tf;
    const std::vector<SliceRaycastOptions> slices{slice};
    ImageBuffer image(80, 80);
    image.clear();
    renderer.render_volume_scene(*grid, "v", front_camera(), image, iso, slices,
                                 counters);
    return std::make_pair(std::move(image), counters);
  });
}

TEST(ParallelGolden, DvrRaycastBitIdentical) {
  const auto grid = wavy_grid(16);
  const TransferFunction tf = TransferFunction::thermal().rescaled(-2, 2);
  expect_render_deterministic([&] {
    RaycastRenderer renderer;
    cluster::PerfCounters counters;
    DvrRaycastOptions options;
    options.transfer = &tf;
    ImageBuffer image(72, 72);
    image.clear({0, 0, 0, 0});
    renderer.render_volume_dvr(*grid, "v", front_camera(), image, options, counters);
    return std::make_pair(std::move(image), counters);
  });
}

TEST(ParallelGolden, MeshRasterizationBitIdentical) {
  // A real extract (isosurface of the wavy field) gives overlapping
  // triangles whose depth-test order the tiled rasterizer must replay
  // exactly.
  const auto grid = wavy_grid(20);
  const auto mesh = IsosurfaceExtractor("v", 0.4f).run(*grid).as<TriangleMesh>();
  expect_render_deterministic([&] {
    RasterRenderer renderer;
    cluster::PerfCounters counters;
    ImageBuffer image(90, 70);
    image.clear();
    renderer.render_mesh(*mesh, front_camera(), image, {}, counters);
    return std::make_pair(std::move(image), counters);
  });
}

TEST(ParallelGolden, PointRasterizationBitIdentical) {
  const auto ps = random_cloud(600, 11);
  const TransferFunction tf = TransferFunction::viridis();
  expect_render_deterministic([&] {
    RasterRenderer renderer;
    cluster::PerfCounters counters;
    PointRenderOptions options;
    options.point_size = 3;
    options.colormap = &tf;
    options.scalar_field = "speed";
    ImageBuffer image(64, 64);
    image.clear();
    renderer.render_points(*ps, front_camera(), image, options, counters);
    return std::make_pair(std::move(image), counters);
  });
}

TEST(ParallelGolden, SplatRasterizationBitIdentical) {
  const auto ps = random_cloud(300, 13);
  expect_render_deterministic([&] {
    RasterRenderer renderer;
    cluster::PerfCounters counters;
    SplatRenderOptions options;
    options.world_radius = 0.2f;
    ImageBuffer image(64, 64);
    image.clear();
    renderer.render_splats(*ps, front_camera(), image, options, counters);
    return std::make_pair(std::move(image), counters);
  });
}

TEST(ParallelGolden, SliceBitIdentical) {
  const auto grid = wavy_grid(24);
  std::unique_ptr<std::vector<Real>> golden_scalars;
  for (const unsigned threads : kThreadCounts) {
    ScopedPool scoped(threads);

    const auto mesh =
        SlicePlaneExtractor("v", {0, 0, 0}, {0, 0, 1}).run(*grid).as<TriangleMesh>();
    const auto scalars = mesh->point_fields().get("scalar").values();

    if (!golden_scalars) {
      golden_scalars =
          std::make_unique<std::vector<Real>>(scalars.begin(), scalars.end());
      continue;
    }
    ASSERT_EQ(golden_scalars->size(), scalars.size());
    EXPECT_EQ(std::memcmp(golden_scalars->data(), scalars.data(),
                          scalars.size() * sizeof(Real)),
              0);
  }
}

TEST(ParallelGolden, DepthCompositeTreeBitIdentical) {
  // Quantized random depths force plenty of exact ties across partials;
  // the tree must still match the 1-thread run bit for bit.
  const auto make_partials = [] {
    Rng rng(29);
    std::vector<ImageBuffer> partials;
    for (int p = 0; p < 5; ++p) {
      ImageBuffer img(48, 48);
      img.clear();
      for (Index y = 0; y < 48; ++y)
        for (Index x = 0; x < 48; ++x)
          if (rng.bernoulli(0.7))
            img.depth_test_set(x, y, {Real(p) * 0.2f, 0.4f, 1.0f - Real(p) * 0.2f, 1},
                               Real(int(rng.uniform(1, 6))));
      partials.push_back(std::move(img));
    }
    return partials;
  };
  std::unique_ptr<ImageBuffer> golden;
  for (const unsigned threads : kThreadCounts) {
    ScopedPool scoped(threads);
    std::vector<ImageBuffer> partials = make_partials();
    cluster::PerfCounters counters;
    depth_composite_tree(partials, counters);
    if (!golden) {
      golden = std::make_unique<ImageBuffer>(std::move(partials[0]));
      continue;
    }
    EXPECT_TRUE(images_bit_identical(*golden, partials[0]))
        << "composite differs at " << threads << " threads";
  }
}

} // namespace
} // namespace eth
