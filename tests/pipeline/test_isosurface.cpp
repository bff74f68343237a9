#include "pipeline/isosurface.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "data/point_set.hpp"
#include "data/structured_grid.hpp"
#include "data/triangle_mesh.hpp"

namespace eth {
namespace {

/// Grid sampling f(p) = |p - center| (distance field: iso-contours are
/// spheres, ideal for geometric verification).
std::shared_ptr<StructuredGrid> sphere_grid(Index n = 24) {
  auto g = std::make_shared<StructuredGrid>(Vec3i{n, n, n}, Vec3f{0, 0, 0},
                                            Vec3f{1, 1, 1});
  Field& f = g->add_scalar_field("d");
  const Vec3f center{Real(n - 1) / 2, Real(n - 1) / 2, Real(n - 1) / 2};
  for (Index k = 0; k < n; ++k)
    for (Index j = 0; j < n; ++j)
      for (Index i = 0; i < n; ++i)
        f.set(g->point_index(i, j, k),
              length(g->point_position(i, j, k) - center));
  return g;
}

TEST(Isosurface, VerticesLieOnTheLevelSet) {
  auto grid = sphere_grid();
  const Real iso = 6.0f;
  IsosurfaceExtractor extractor("d", iso);
  const auto out = extractor.run(*grid).as<DataSet>();
  ASSERT_EQ(out->kind(), DataSetKind::kTriangleMesh);
  const auto& mesh = static_cast<const TriangleMesh&>(*out);
  ASSERT_GT(mesh.num_triangles(), 0);

  const Field& f = grid->point_fields().get("d");
  for (const Vec3f v : mesh.vertices()) {
    // Trilinear interpolation error bound: vertices sit within a small
    // tolerance of the isovalue.
    EXPECT_NEAR(grid->sample(f, v), iso, 0.08f);
  }
}

TEST(Isosurface, SphereAreaApproximation) {
  auto grid = sphere_grid(32);
  const Real radius = 9.0f;
  IsosurfaceExtractor extractor("d", radius);
  const auto out = extractor.run(*grid).as<TriangleMesh>();
  const TriangleMesh& mesh = *out;

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
  const double expected = 4.0 * 3.14159265 * radius * radius;
  EXPECT_NEAR(area / expected, 1.0, 0.08);
}

TEST(Isosurface, WatertightAcrossCellBoundaries) {
  // Every interior edge of a closed surface must be shared by exactly
  // two triangles. Vertices are duplicated per-triangle, so match by
  // quantized position.
  auto grid = sphere_grid(16);
  IsosurfaceExtractor extractor("d", 5.0f);
  const auto out = extractor.run(*grid).as<TriangleMesh>();
  const TriangleMesh& mesh = *out;
  ASSERT_GT(mesh.num_triangles(), 0);

  const auto key = [](Vec3f p) {
    const auto q = [](Real v) { return llround(double(v) * 4096.0); };
    return std::tuple<long long, long long, long long>{q(p.x), q(p.y), q(p.z)};
  };
  using EdgeKey = std::pair<std::tuple<long long, long long, long long>,
                            std::tuple<long long, long long, long long>>;
  std::map<EdgeKey, int> edge_count;
  for (Index t = 0; t < mesh.num_triangles(); ++t) {
    Index idx[3];
    mesh.triangle(t, idx[0], idx[1], idx[2]);
    for (int e = 0; e < 3; ++e) {
      auto a = key(mesh.vertices()[static_cast<std::size_t>(idx[e])]);
      auto b = key(mesh.vertices()[static_cast<std::size_t>(idx[(e + 1) % 3])]);
      if (b < a) std::swap(a, b);
      if (a == b) continue; // degenerate sliver edge
      ++edge_count[{a, b}];
    }
  }
  Index bad = 0, total = 0;
  for (const auto& [edge, count] : edge_count) {
    ++total;
    if (count != 2) ++bad;
  }
  // The sphere is entirely interior to the grid, so (nearly) every edge
  // must be 2-shared; tetra slivers can produce a tiny remainder of
  // degenerate matches.
  EXPECT_LT(double(bad) / double(total), 0.01);
}

TEST(Isosurface, EmptyWhenIsovalueOutsideRange) {
  auto grid = sphere_grid(12);
  IsosurfaceExtractor extractor("d", 1e6f);
  const auto out = extractor.run(*grid).as<TriangleMesh>();
  const TriangleMesh& mesh = *out;
  EXPECT_EQ(mesh.num_triangles(), 0);
}

TEST(Isosurface, GradientNormalsPointOutwardOnDistanceField) {
  auto grid = sphere_grid(20);
  IsosurfaceExtractor extractor("d", 6.0f);
  const auto out = extractor.run(*grid).as<TriangleMesh>();
  const TriangleMesh& mesh = *out;
  ASSERT_TRUE(mesh.has_normals());
  const Vec3f center{9.5f, 9.5f, 9.5f};
  for (Index i = 0; i < mesh.num_points(); i += 7) {
    const Vec3f v = mesh.vertices()[static_cast<std::size_t>(i)];
    const Vec3f n = mesh.normals()[static_cast<std::size_t>(i)];
    // Normals are -gradient of distance: they point toward the center.
    EXPECT_LT(dot(n, v - center), 0);
  }
}

TEST(Isosurface, IsovalueChangeReexecutes) {
  // The isovalue is part of the cache key: a second isovalue on the same
  // input executes again instead of reusing the first surface.
  auto grid = sphere_grid(12);
  ArtifactCache cache(1 << 24);
  const std::uint64_t grid_fp = 0x5eed;
  const CacheLookup small = IsosurfaceExtractor("d", 3.0f).run(*grid, &cache, grid_fp);
  const CacheLookup large = IsosurfaceExtractor("d", 5.0f).run(*grid, &cache, grid_fp);
  EXPECT_FALSE(large.hit);
  EXPECT_NE(large.content_fp, small.content_fp);
  // Larger sphere -> more triangles.
  EXPECT_GT(large.as<TriangleMesh>()->num_triangles(),
            small.as<TriangleMesh>()->num_triangles());
}

TEST(Isosurface, CountersScaleWithCells) {
  auto grid = sphere_grid(12);
  const CacheLookup out = IsosurfaceExtractor("d", 4.0f).run(*grid);
  EXPECT_EQ(out.recorded.elements_processed, grid->num_cells());
  EXPECT_GT(out.recorded.primitives_emitted, 0);
}

TEST(Isosurface, RejectsWrongInputKind) {
  EXPECT_THROW(IsosurfaceExtractor("d", 1.0f).run(PointSet(3)), Error);
}

TEST(Isosurface, MissingFieldThrows) {
  auto grid = sphere_grid(8);
  EXPECT_THROW(IsosurfaceExtractor("nonexistent", 1.0f).run(*grid), Error);
}

} // namespace
} // namespace eth
