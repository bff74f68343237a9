#include "data/structured_grid.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"

namespace eth {
namespace {

/// Grid sampling a known linear field f = 2x + 3y - z + 1 (trilinear
/// interpolation must reproduce linear fields exactly).
StructuredGrid make_linear_grid(Vec3i dims = {5, 4, 3}) {
  StructuredGrid g(dims, {0, 0, 0}, {1, 1, 1});
  Field& f = g.add_scalar_field("f");
  for (Index k = 0; k < dims.z; ++k)
    for (Index j = 0; j < dims.y; ++j)
      for (Index i = 0; i < dims.x; ++i) {
        const Vec3f p = g.point_position(i, j, k);
        f.set(g.point_index(i, j, k), 2 * p.x + 3 * p.y - p.z + 1);
      }
  return g;
}

TEST(StructuredGrid, ConstructionAndCounts) {
  const StructuredGrid g({5, 4, 3}, {1, 2, 3}, {0.5f, 1, 2});
  EXPECT_EQ(g.kind(), DataSetKind::kStructuredGrid);
  EXPECT_EQ(g.num_points(), 60);
  EXPECT_EQ(g.cell_dims(), (Vec3i{4, 3, 2}));
  EXPECT_EQ(g.num_cells(), 24);
  EXPECT_EQ(g.point_position(1, 1, 1), (Vec3f{1.5f, 3, 5}));
  const AABB box = g.bounds();
  EXPECT_EQ(box.lo, (Vec3f{1, 2, 3}));
  EXPECT_EQ(box.hi, (Vec3f{3, 5, 7}));
}

TEST(StructuredGrid, RejectsBadConstruction) {
  EXPECT_THROW(StructuredGrid({0, 2, 2}, {0, 0, 0}, {1, 1, 1}), Error);
  EXPECT_THROW(StructuredGrid({2, 2, 2}, {0, 0, 0}, {0, 1, 1}), Error);
}

TEST(StructuredGrid, PointIndexIsXFastest) {
  const StructuredGrid g({3, 4, 5}, {0, 0, 0}, {1, 1, 1});
  EXPECT_EQ(g.point_index(0, 0, 0), 0);
  EXPECT_EQ(g.point_index(1, 0, 0), 1);
  EXPECT_EQ(g.point_index(0, 1, 0), 3);
  EXPECT_EQ(g.point_index(0, 0, 1), 12);
  EXPECT_EQ(g.point_index(2, 3, 4), 3 * 4 * 5 - 1);
}

TEST(StructuredGrid, SampleReproducesLinearFieldExactly) {
  const StructuredGrid g = make_linear_grid();
  const Field& f = g.point_fields().get("f");
  Rng rng(55);
  for (int trial = 0; trial < 200; ++trial) {
    const Vec3f p = rng.point_in_box({0, 0, 0}, {4, 3, 2});
    const Real expected = 2 * p.x + 3 * p.y - p.z + 1;
    EXPECT_NEAR(g.sample(f, p), expected, 1e-4);
  }
}

TEST(StructuredGrid, SampleAtGridPointsIsExact) {
  const StructuredGrid g = make_linear_grid();
  const Field& f = g.point_fields().get("f");
  for (Index k = 0; k < 3; ++k)
    for (Index j = 0; j < 4; ++j)
      for (Index i = 0; i < 5; ++i)
        EXPECT_NEAR(g.sample(f, g.point_position(i, j, k)),
                    f.get(g.point_index(i, j, k)), 1e-4);
}

TEST(StructuredGrid, SampleClampsOutsideGrid) {
  const StructuredGrid g = make_linear_grid();
  const Field& f = g.point_fields().get("f");
  // Far outside: clamps to the nearest boundary value (no NaN/crash).
  const Real corner = f.get(g.point_index(0, 0, 0));
  EXPECT_NEAR(g.sample(f, {-100, -100, -100}), corner, 1e-4);
}

TEST(StructuredGrid, GradientOfLinearFieldIsConstant) {
  const StructuredGrid g = make_linear_grid({8, 8, 8});
  const Field& f = g.point_fields().get("f");
  Rng rng(66);
  for (int trial = 0; trial < 50; ++trial) {
    // Stay one cell away from the boundary: central differences there
    // hit the clamp.
    const Vec3f p = rng.point_in_box({1.5f, 1.5f, 1.5f}, {5.5f, 5.5f, 5.5f});
    const Vec3f grad = g.gradient(f, p);
    EXPECT_NEAR(grad.x, 2, 1e-3);
    EXPECT_NEAR(grad.y, 3, 1e-3);
    EXPECT_NEAR(grad.z, -1, 1e-3);
  }
}

TEST(StructuredGrid, CellCornersMatchPointLookups) {
  const StructuredGrid g = make_linear_grid();
  const Field& f = g.point_fields().get("f");
  const auto corners = g.cell_corners(f, 1, 1, 0);
  EXPECT_EQ(corners[0], f.get(g.point_index(1, 1, 0)));
  EXPECT_EQ(corners[1], f.get(g.point_index(2, 1, 0)));
  EXPECT_EQ(corners[2], f.get(g.point_index(2, 2, 0)));
  EXPECT_EQ(corners[3], f.get(g.point_index(1, 2, 0)));
  EXPECT_EQ(corners[4], f.get(g.point_index(1, 1, 1)));
  EXPECT_EQ(corners[6], f.get(g.point_index(2, 2, 1)));
  // Corner positions agree with corner values' grid points.
  EXPECT_EQ(g.cell_corner_position(1, 1, 0, 0), g.point_position(1, 1, 0));
  EXPECT_EQ(g.cell_corner_position(1, 1, 0, 6), g.point_position(2, 2, 1));
}

TEST(StructuredGrid, CloneIsDeep) {
  StructuredGrid g = make_linear_grid();
  const auto clone = g.clone();
  g.point_fields().get("f").set(0, -999);
  const auto& c = static_cast<const StructuredGrid&>(*clone);
  EXPECT_NE(c.point_fields().get("f").get(0), -999);
}

} // namespace
} // namespace eth
