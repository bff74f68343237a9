#include "data/structured_grid.hpp"

#include <cmath>

namespace eth {

namespace {
// Corner offsets in marching-cubes order (matches the table in
// pipeline/marching_cubes.cpp).
constexpr int kCornerOffset[8][3] = {
    {0, 0, 0}, {1, 0, 0}, {1, 1, 0}, {0, 1, 0},
    {0, 0, 1}, {1, 0, 1}, {1, 1, 1}, {0, 1, 1},
};
} // namespace

StructuredGrid::StructuredGrid(Vec3i dims, Vec3f origin, Vec3f spacing)
    : dims_(dims), origin_(origin), spacing_(spacing) {
  require(dims.x >= 1 && dims.y >= 1 && dims.z >= 1,
          "StructuredGrid: dims must be >= 1 on every axis");
  require(spacing.x > 0 && spacing.y > 0 && spacing.z > 0,
          "StructuredGrid: spacing must be positive");
}

AABB StructuredGrid::bounds() const {
  if (num_points() == 0) return AABB::empty();
  AABB box;
  box.extend(origin_);
  box.extend(point_position(dims_.x - 1, dims_.y - 1, dims_.z - 1));
  return box;
}

Vec3i StructuredGrid::cell_dims() const {
  return {dims_.x > 1 ? dims_.x - 1 : 0, dims_.y > 1 ? dims_.y - 1 : 0,
          dims_.z > 1 ? dims_.z - 1 : 0};
}

Real StructuredGrid::sample(const Field& field, Vec3f p) const {
  // Continuous grid coordinates, clamped into the valid cell range.
  const Real gx = clamp((p.x - origin_.x) / spacing_.x, Real(0), Real(dims_.x - 1));
  const Real gy = clamp((p.y - origin_.y) / spacing_.y, Real(0), Real(dims_.y - 1));
  const Real gz = clamp((p.z - origin_.z) / spacing_.z, Real(0), Real(dims_.z - 1));

  const Index i0 = std::min(static_cast<Index>(gx), dims_.x - 2 >= 0 ? dims_.x - 2 : 0);
  const Index j0 = std::min(static_cast<Index>(gy), dims_.y - 2 >= 0 ? dims_.y - 2 : 0);
  const Index k0 = std::min(static_cast<Index>(gz), dims_.z - 2 >= 0 ? dims_.z - 2 : 0);
  const Index i1 = std::min(i0 + 1, dims_.x - 1);
  const Index j1 = std::min(j0 + 1, dims_.y - 1);
  const Index k1 = std::min(k0 + 1, dims_.z - 1);

  const Real fx = gx - Real(i0);
  const Real fy = gy - Real(j0);
  const Real fz = gz - Real(k0);

  const Real c000 = field.get(point_index(i0, j0, k0));
  const Real c100 = field.get(point_index(i1, j0, k0));
  const Real c010 = field.get(point_index(i0, j1, k0));
  const Real c110 = field.get(point_index(i1, j1, k0));
  const Real c001 = field.get(point_index(i0, j0, k1));
  const Real c101 = field.get(point_index(i1, j0, k1));
  const Real c011 = field.get(point_index(i0, j1, k1));
  const Real c111 = field.get(point_index(i1, j1, k1));

  const Real c00 = lerp(c000, c100, fx);
  const Real c10 = lerp(c010, c110, fx);
  const Real c01 = lerp(c001, c101, fx);
  const Real c11 = lerp(c011, c111, fx);
  const Real c0 = lerp(c00, c10, fy);
  const Real c1 = lerp(c01, c11, fy);
  return lerp(c0, c1, fz);
}

Vec3f StructuredGrid::gradient(const Field& field, Vec3f p) const {
  const Vec3f hx{spacing_.x, 0, 0};
  const Vec3f hy{0, spacing_.y, 0};
  const Vec3f hz{0, 0, spacing_.z};
  return {(sample(field, p + hx) - sample(field, p - hx)) / (2 * spacing_.x),
          (sample(field, p + hy) - sample(field, p - hy)) / (2 * spacing_.y),
          (sample(field, p + hz) - sample(field, p - hz)) / (2 * spacing_.z)};
}

std::array<Real, 8> StructuredGrid::cell_corners(const Field& field, Index i, Index j,
                                                 Index k) const {
  std::array<Real, 8> out{};
  for (int c = 0; c < 8; ++c)
    out[static_cast<std::size_t>(c)] = field.get(point_index(
        i + kCornerOffset[c][0], j + kCornerOffset[c][1], k + kCornerOffset[c][2]));
  return out;
}

Vec3f StructuredGrid::cell_corner_position(Index i, Index j, Index k, int corner) const {
  return point_position(i + kCornerOffset[corner][0], j + kCornerOffset[corner][1],
                        k + kCornerOffset[corner][2]);
}

} // namespace eth
