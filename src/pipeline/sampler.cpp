#include "pipeline/sampler.hpp"

#include "common/string_util.hpp"

#include <cmath>
#include <limits>
#include <unordered_map>
#include <vector>

#include "common/rng.hpp"
#include "common/simd_kernels.hpp"
#include "data/point_set.hpp"
#include "data/structured_grid.hpp"
#include "parallel/thread_pool.hpp"

namespace eth {

const char* to_string(SamplingMode mode) {
  switch (mode) {
    case SamplingMode::kBernoulli: return "bernoulli";
    case SamplingMode::kStride: return "stride";
    case SamplingMode::kStratified: return "stratified";
  }
  return "?";
}

SpatialSampler::SpatialSampler(double ratio, SamplingMode mode, std::uint64_t seed)
    : ratio_(ratio), mode_(mode), seed_(seed) {
  require(ratio > 0.0 && ratio <= 1.0, "SpatialSampler: ratio must be in (0, 1]");
}

std::unique_ptr<DataSet> SpatialSampler::execute(const DataSet& input,
                                                 cluster::PerfCounters& counters) const {
  switch (input.kind()) {
    case DataSetKind::kPointSet:
      return sample_points(static_cast<const PointSet&>(input), counters);
    case DataSetKind::kStructuredGrid:
      return sample_grid(static_cast<const StructuredGrid&>(input), counters);
    default:
      fail("SpatialSampler: unsupported dataset kind " +
           std::string(to_string(input.kind())));
  }
}

std::unique_ptr<DataSet> SpatialSampler::sample_points(
    const PointSet& ps, cluster::PerfCounters& counters) const {
  const Index n = ps.num_points();
  std::vector<Index> keep;
  keep.reserve(static_cast<std::size_t>(double(n) * ratio_) + 16);

  switch (mode_) {
    case SamplingMode::kBernoulli: {
      Rng rng(seed_);
      for (Index i = 0; i < n; ++i)
        if (rng.bernoulli(ratio_)) keep.push_back(i);
      break;
    }
    case SamplingMode::kStride: {
      // Fixed-point accumulator keeps long-run density exactly `ratio`
      // even for non-integer strides.
      double acc = 0.0;
      for (Index i = 0; i < n; ++i) {
        acc += ratio_;
        if (acc >= 1.0) {
          acc -= 1.0;
          keep.push_back(i);
        }
      }
      break;
    }
    case SamplingMode::kStratified: {
      // Bin points into a uniform grid of ~1024 cells, then keep a
      // ratio_-fraction from every cell so sparse regions survive.
      const AABB box = ps.bounds();
      if (box.is_empty()) break;
      const int cells_per_axis = 10;
      const Vec3f ext = eth::max(box.extent(), Vec3f{1e-6f, 1e-6f, 1e-6f});
      std::unordered_map<Index, std::vector<Index>> bins;
      for (Index i = 0; i < n; ++i) {
        const Vec3f rel = (ps.position(i) - box.lo) / ext;
        const Index cx = std::min<Index>(cells_per_axis - 1,
                                         static_cast<Index>(rel.x * cells_per_axis));
        const Index cy = std::min<Index>(cells_per_axis - 1,
                                         static_cast<Index>(rel.y * cells_per_axis));
        const Index cz = std::min<Index>(cells_per_axis - 1,
                                         static_cast<Index>(rel.z * cells_per_axis));
        bins[cx + cells_per_axis * (cy + cells_per_axis * cz)].push_back(i);
      }
      Rng rng(seed_);
      for (auto& [cell, members] : bins) {
        (void)cell;
        for (const Index i : members)
          if (rng.bernoulli(ratio_)) keep.push_back(i);
      }
      std::sort(keep.begin(), keep.end());
      break;
    }
  }

  counters.elements_processed += n;
  counters.bytes_read += ps.byte_size();
  counters.max_parallel_items = std::max(counters.max_parallel_items, n);
  auto out = std::make_unique<PointSet>(ps.subset(keep));
  counters.bytes_written += out->byte_size();
  return out;
}

std::unique_ptr<DataSet> SpatialSampler::sample_grid(
    const StructuredGrid& grid, cluster::PerfCounters& counters) const {
  // Axis stride s ~= ratio^(-1/3) keeps ~ratio of the samples while the
  // output stays a structured grid.
  const auto stride =
      std::max<Index>(1, static_cast<Index>(std::llround(std::cbrt(1.0 / ratio_))));
  const Vec3i d = grid.dims();
  const Vec3i nd{std::max<Index>(2, (d.x + stride - 1) / stride),
                 std::max<Index>(2, (d.y + stride - 1) / stride),
                 std::max<Index>(2, (d.z + stride - 1) / stride)};
  const Vec3f nspacing = grid.spacing() * Real(stride);
  auto out = std::make_unique<StructuredGrid>(nd, grid.origin(), nspacing);

  // Slab-parallel gather: every output point is written by exactly one
  // k-slab chunk and its value is independent of the partition, so the
  // downsampled grid is bit-identical at any thread count. (Point
  // sampling above stays serial: Bernoulli/stratified modes consume a
  // sequential RNG stream whose draws cannot be split without changing
  // which points are selected.)
  const simd::KernelTable* table = simd::active_kernels();
  for (std::size_t f = 0; f < grid.point_fields().size(); ++f) {
    const Field& src = grid.point_fields().at(f);
    Field& dst = out->point_fields().add(
        Field(src.name(), out->num_points(), src.components(), src.association()));
    // Single-component fields gather each output row through the SIMD
    // stride kernel: dst[i] = src[min(i*stride, d.x-1)], exactly the
    // scalar statement (a pure copy, so trivially bit-identical). The
    // mutable span is materialized before the parallel region (the
    // copy-on-write step must not race).
    const bool vectorize = table != nullptr && src.components() == 1 &&
                           grid.num_points() <=
                               Index(std::numeric_limits<std::int32_t>::max()) &&
                           (nd.x - 1) * stride <=
                               Index(std::numeric_limits<std::int32_t>::max());
    const std::span<const Real> sv = src.values();
    const std::span<Real> dv = dst.values();
    parallel_for(0, nd.z, 1, [&](Index k0, Index k1) {
      for (Index k = k0; k < k1; ++k)
        for (Index j = 0; j < nd.y; ++j) {
          if (vectorize) {
            const Index sj = std::min(j * stride, d.y - 1);
            const Index sk = std::min(k * stride, d.z - 1);
            table->stride_copy(sv.data() + grid.point_index(0, sj, sk),
                               dv.data() + out->point_index(0, j, k), nd.x, stride,
                               d.x - 1);
            continue;
          }
          for (Index i = 0; i < nd.x; ++i) {
            const Index si = std::min(i * stride, d.x - 1);
            const Index sj = std::min(j * stride, d.y - 1);
            const Index sk = std::min(k * stride, d.z - 1);
            const Index s = grid.point_index(si, sj, sk);
            const Index dsti = out->point_index(i, j, k);
            for (int c = 0; c < src.components(); ++c) dst.set(dsti, c, src.get(s, c));
          }
        }
    });
  }

  counters.elements_processed += grid.num_points();
  counters.bytes_read += grid.byte_size();
  counters.bytes_written += out->byte_size();
  counters.max_parallel_items =
      std::max(counters.max_parallel_items, out->num_points());
  return out;
}

std::string SpatialSampler::cache_signature() const {
  return strprintf("sampler ratio=%a mode=%d seed=%llu", ratio_,
                   static_cast<int>(mode_),
                   static_cast<unsigned long long>(seed_));
}

} // namespace eth
