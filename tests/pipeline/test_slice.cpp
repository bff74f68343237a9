#include "pipeline/slice.hpp"

#include <gtest/gtest.h>

#include "data/point_set.hpp"
#include "data/structured_grid.hpp"
#include "data/triangle_mesh.hpp"

namespace eth {
namespace {

/// Grid with field f = x + 10y + 100z (distinct per axis, linear).
std::shared_ptr<StructuredGrid> linear_grid(Index n = 16) {
  auto g = std::make_shared<StructuredGrid>(Vec3i{n, n, n}, Vec3f{0, 0, 0},
                                            Vec3f{1, 1, 1});
  Field& f = g->add_scalar_field("f");
  for (Index k = 0; k < n; ++k)
    for (Index j = 0; j < n; ++j)
      for (Index i = 0; i < n; ++i) {
        const Vec3f p = g->point_position(i, j, k);
        f.set(g->point_index(i, j, k), p.x + 10 * p.y + 100 * p.z);
      }
  return g;
}

TEST(SlicePlane, VerticesLieOnPlaneInsideBounds) {
  auto grid = linear_grid();
  const Vec3f origin{7.5f, 7.5f, 7.5f};
  const Vec3f normal = normalize(Vec3f{1, 2, 0.5f});
  SlicePlaneExtractor slicer("f", origin, normal);
  const auto out = slicer.run(*grid).as<TriangleMesh>();
  const TriangleMesh& mesh = *out;
  ASSERT_GT(mesh.num_triangles(), 0);
  const AABB box = grid->bounds().inflated(0.6f);
  for (const Vec3f v : mesh.vertices()) {
    EXPECT_NEAR(dot(v - origin, normal), 0, 1e-3);
    EXPECT_TRUE(box.contains(v));
  }
}

TEST(SlicePlane, ScalarFieldSampledOntoVertices) {
  auto grid = linear_grid();
  SlicePlaneExtractor slicer("f", {7.5f, 7.5f, 7.5f}, {0, 0, 1});
  const auto out = slicer.run(*grid).as<TriangleMesh>();
  const TriangleMesh& mesh = *out;
  const Field& scalars = mesh.point_fields().get("scalar");
  ASSERT_EQ(scalars.tuples(), mesh.num_points());
  for (Index i = 0; i < mesh.num_points(); ++i) {
    const Vec3f v = mesh.vertices()[static_cast<std::size_t>(i)];
    const Real expected = v.x + 10 * v.y + 100 * v.z;
    EXPECT_NEAR(scalars.get(i), expected, 0.2f);
  }
}

TEST(SlicePlane, AxisAlignedSliceCoversCrossSection) {
  auto grid = linear_grid();
  SlicePlaneExtractor slicer("f", {7.5f, 7.5f, 7.5f}, {0, 0, 1});
  const auto out = slicer.run(*grid).as<TriangleMesh>();
  const TriangleMesh& mesh = *out;
  // Total triangle area should approximate the 15x15 cross-section.
  double area = 0;
  for (Index t = 0; t < mesh.num_triangles(); ++t) {
    Index a, b, c;
    mesh.triangle(t, a, b, c);
    const Vec3f e1 = mesh.vertices()[static_cast<std::size_t>(b)] -
                     mesh.vertices()[static_cast<std::size_t>(a)];
    const Vec3f e2 = mesh.vertices()[static_cast<std::size_t>(c)] -
                     mesh.vertices()[static_cast<std::size_t>(a)];
    area += 0.5 * length(cross(e1, e2));
  }
  EXPECT_NEAR(area, 15.0 * 15.0, 15.0 * 15.0 * 0.15);
}

TEST(SlicePlane, MissedVolumeYieldsEmptyMesh) {
  auto grid = linear_grid();
  SlicePlaneExtractor slicer("f", {0, 0, 100}, {0, 0, 1});
  const auto out = slicer.run(*grid).as<TriangleMesh>();
  const TriangleMesh& mesh = *out;
  EXPECT_EQ(mesh.num_triangles(), 0);
  EXPECT_TRUE(mesh.point_fields().has("scalar"));
}

TEST(SlicePlane, WorkScalesWithCrossSectionNotVolume) {
  // The paper's cost claim: slice work ~ n^(2/3). Doubling grid
  // resolution should ~4x the slice vertices, not ~8x.
  auto small = linear_grid(12);
  auto large = linear_grid(24);
  const Index v_small = SlicePlaneExtractor("f", {5.5f, 5.5f, 5.5f}, {0, 0, 1})
                            .run(*small)
                            .as<TriangleMesh>()
                            ->num_points();
  const Index v_large = SlicePlaneExtractor("f", {11.5f, 11.5f, 11.5f}, {0, 0, 1})
                            .run(*large)
                            .as<TriangleMesh>()
                            ->num_points();
  const double growth = double(v_large) / double(v_small);
  EXPECT_GT(growth, 2.5);
  EXPECT_LT(growth, 6.0);
}

TEST(SlicePlane, PlaneChangeReexecutes) {
  // The plane is part of the cache key: another plane through the same
  // input executes again instead of reusing the first slice.
  auto grid = linear_grid();
  ArtifactCache cache(1 << 24);
  const std::uint64_t grid_fp = 0x5eed;
  SlicePlaneExtractor("f", {7.5f, 7.5f, 7.5f}, {0, 0, 1}).run(*grid, &cache, grid_fp);
  const CacheLookup out =
      SlicePlaneExtractor("f", {7.5f, 7.5f, 7.5f}, {1, 0, 0}).run(*grid, &cache, grid_fp);
  EXPECT_FALSE(out.hit);
  const auto mesh = out.as<TriangleMesh>();
  ASSERT_GT(mesh->num_points(), 0);
  for (const Vec3f v : mesh->vertices()) EXPECT_NEAR(v.x, 7.5f, 1e-3);
}

TEST(SlicePlane, RejectsBadInputs) {
  EXPECT_THROW(SlicePlaneExtractor("f", {0, 0, 0}, {0, 0, 0}), Error);
  EXPECT_THROW(SlicePlaneExtractor("f", {0, 0, 0}, {0, 0, 1}).run(PointSet(1)), Error);
}

} // namespace
} // namespace eth
