#pragma once
// StructuredGrid: a regular (uniform-spacing) 3-D grid of point-centered
// samples — the form xRAGE data reaches the visualization code in after
// the paper's AMR -> unstructured -> structured downsampling chain.
//
// Provides the sampling operations both rendering pipelines need:
// trilinear interpolation for ray marching, central-difference gradients
// for isosurface shading, and cell-corner gathers for marching cubes.
//
// The grid itself is header-only on the wire (dims/origin/spacing); all
// bulk data lives in its Fields, whose CowArray storage gives a
// deserialized grid the same alias-on-receive behaviour as the
// unstructured datasets (see common/buffer.hpp).

#include <array>
#include <memory>

#include "data/dataset.hpp"

namespace eth {

class StructuredGrid final : public DataSet {
public:
  StructuredGrid() = default;

  /// Grid of nx*ny*nz points at `origin` with per-axis `spacing`.
  StructuredGrid(Vec3i dims, Vec3f origin, Vec3f spacing);

  DataSetKind kind() const override { return DataSetKind::kStructuredGrid; }
  Index num_points() const override { return dims_.x * dims_.y * dims_.z; }
  AABB bounds() const override;
  Bytes byte_size() const override { return field_bytes(); }
  std::unique_ptr<DataSet> clone() const override {
    return std::make_unique<StructuredGrid>(*this);
  }

  Vec3i dims() const { return dims_; }
  Vec3f origin() const { return origin_; }
  Vec3f spacing() const { return spacing_; }

  /// Number of cells per axis (dims - 1, floored at 0).
  Vec3i cell_dims() const;
  Index num_cells() const {
    const Vec3i c = cell_dims();
    return c.x * c.y * c.z;
  }

  /// Flat index of grid point (i, j, k); x varies fastest (VTK order).
  Index point_index(Index i, Index j, Index k) const {
    return i + dims_.x * (j + dims_.y * k);
  }

  Vec3f point_position(Index i, Index j, Index k) const {
    return {origin_.x + spacing_.x * Real(i), origin_.y + spacing_.y * Real(j),
            origin_.z + spacing_.z * Real(k)};
  }

  /// Add a point-centered scalar field of the right length.
  Field& add_scalar_field(const std::string& name) {
    return point_fields().add(Field(name, num_points(), 1, FieldAssociation::kPoint));
  }

  /// Trilinear sample of scalar `field` at world position `p`; positions
  /// outside the grid clamp to the boundary (renderers guard with
  /// bounds() first, so clamping only smooths the last partial cell).
  Real sample(const Field& field, Vec3f p) const;

  /// Central-difference gradient of `field` at world position `p`.
  Vec3f gradient(const Field& field, Vec3f p) const;

  /// The 8 corner values of cell (i, j, k) in marching-cubes corner
  /// order: (i,j,k),(i+1,j,k),(i+1,j+1,k),(i,j+1,k), then the k+1 layer.
  std::array<Real, 8> cell_corners(const Field& field, Index i, Index j, Index k) const;

  /// World-space position of cell corner `c` (same order as above).
  Vec3f cell_corner_position(Index i, Index j, Index k, int corner) const;

private:
  Vec3i dims_{0, 0, 0};
  Vec3f origin_{0, 0, 0};
  Vec3f spacing_{1, 1, 1};
};

} // namespace eth
