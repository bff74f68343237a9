#pragma once
// SlicePlaneExtractor: geometry-based slicing of volumetric data
// (paper §IV-C). The plane/grid intersection is tessellated at the
// grid's own resolution and the scalar field is sampled onto the
// vertices, so the work and output size are proportional to the area of
// the slice — "(roughly) the 2/3 root of the input data size", exactly
// the cost the paper assigns this pipeline.

#include <string>

#include "pipeline/algorithm.hpp"

namespace eth {

class SlicePlaneExtractor final : public Algorithm {
public:
  /// Slice `field_name` of a StructuredGrid with the plane through
  /// `origin` with unit `normal`. The sampled scalar lands in a
  /// per-vertex point field named "scalar" on the output mesh.
  SlicePlaneExtractor(std::string field_name, Vec3f origin, Vec3f normal);

protected:
  std::unique_ptr<DataSet> execute(const DataSet& input,
                                   cluster::PerfCounters& counters) const override;
  std::string cache_signature() const override;
  const char* trace_name() const override { return "filter.slice"; }

private:
  std::string field_name_;
  Vec3f origin_;
  Vec3f normal_;
};

} // namespace eth
