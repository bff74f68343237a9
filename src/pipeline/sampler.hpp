#pragma once
// SpatialSampler: the paper's "sampling technique" in-situ parameter
// (§IV-B): "Spatial sampling ... operates by selecting a subset of
// points (down sampling) from the original dataset based on some given
// distribution. We vary the sampling ratio ... and study how the
// metrics ... change."
//
// Three selection distributions are provided for point data; structured
// grids are down-sampled by axis stride so the result is still a grid
// (which is what the paper's volumetric pipelines require downstream).

#include "pipeline/algorithm.hpp"

namespace eth {

enum class SamplingMode {
  kBernoulli,  ///< keep each point independently with probability = ratio
  kStride,     ///< keep every round(1/ratio)-th point
  kStratified, ///< uniform-grid stratified: even spatial coverage
};

const char* to_string(SamplingMode mode);

class SpatialSampler final : public Algorithm {
public:
  /// `ratio` in (0, 1]: the fraction of data retained.
  explicit SpatialSampler(double ratio, SamplingMode mode = SamplingMode::kBernoulli,
                          std::uint64_t seed = 42);

protected:
  std::unique_ptr<DataSet> execute(const DataSet& input,
                                   cluster::PerfCounters& counters) const override;
  const char* phase_name() const override { return "sample"; }
  std::string cache_signature() const override;
  const char* trace_name() const override { return "filter.sample"; }

private:
  std::unique_ptr<DataSet> sample_points(const class PointSet& ps,
                                         cluster::PerfCounters& counters) const;
  std::unique_ptr<DataSet> sample_grid(const class StructuredGrid& grid,
                                       cluster::PerfCounters& counters) const;

  double ratio_;
  SamplingMode mode_;
  std::uint64_t seed_;
};

} // namespace eth
