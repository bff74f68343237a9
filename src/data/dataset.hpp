#pragma once
// DataSet: the abstract base of ETH's VTK-like data model.
//
// The paper's harness "requires that the input consists of VTK data" so
// that any science domain can feed it; our equivalent contract is this
// small hierarchy. Three concrete kinds cover the paper's two data
// classes plus the intermediate geometry the VTK-style pipeline extracts:
//
//   PointSet       - particle data (HACC cosmology)
//   StructuredGrid - regular scalar volumes (xRAGE asteroid)
//   TriangleMesh   - extracted geometry (isosurfaces, slices, splats)

#include <memory>
#include <string>

#include "common/aabb.hpp"
#include "data/field.hpp"

namespace eth {

enum class DataSetKind : int {
  kPointSet = 1,
  kStructuredGrid = 2,
  kTriangleMesh = 3,
};

const char* to_string(DataSetKind kind);

class DataSet {
public:
  virtual ~DataSet() = default;

  virtual DataSetKind kind() const = 0;

  /// Number of points (particles, grid points or mesh vertices).
  virtual Index num_points() const = 0;

  /// Spatial bounds of the dataset geometry.
  virtual AABB bounds() const = 0;

  /// Total payload size, used by the transport and cost models.
  virtual Bytes byte_size() const = 0;

  /// Deep copy preserving the concrete type.
  virtual std::unique_ptr<DataSet> clone() const = 0;

  FieldCollection& point_fields() { return point_fields_; }
  const FieldCollection& point_fields() const { return point_fields_; }
  FieldCollection& cell_fields() { return cell_fields_; }
  const FieldCollection& cell_fields() const { return cell_fields_; }

protected:
  DataSet() = default;
  DataSet(const DataSet&) = default;
  DataSet& operator=(const DataSet&) = default;

  Bytes field_bytes() const { return point_fields_.byte_size() + cell_fields_.byte_size(); }

private:
  FieldCollection point_fields_;
  FieldCollection cell_fields_;
};

} // namespace eth
