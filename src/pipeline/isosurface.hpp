#pragma once
// IsosurfaceExtractor: the geometry-based isosurface pipeline for
// volumetric data (paper §IV-C, "Slices and Isosurfaces in
// Geometry-based Visualization"): iterate the cells of the grid,
// identify those containing surface fragments, and emit triangles for
// the rasterizer.
//
// Implementation note: we contour by tetrahedral decomposition
// (marching tetrahedra over the Kuhn 6-tet split of each cell) rather
// than tabulated marching cubes. The decomposition is translation-
// consistent, so the surface is crack-free across cell boundaries, and
// the cost structure the paper reasons about is identical: work
// proportional to the number of cells examined, output geometry ranging
// from zero to O(cells).

#include <string>

#include "pipeline/algorithm.hpp"

namespace eth {

class IsosurfaceExtractor final : public Algorithm {
public:
  /// Contour `field_name` of a StructuredGrid at `isovalue`; per-vertex
  /// normals come from the field gradient for smooth shading.
  IsosurfaceExtractor(std::string field_name, Real isovalue);

protected:
  std::unique_ptr<DataSet> execute(const DataSet& input,
                                   cluster::PerfCounters& counters) const override;
  std::string cache_signature() const override;
  const char* trace_name() const override { return "filter.isosurface"; }

private:
  std::string field_name_;
  Real isovalue_;
};

} // namespace eth
