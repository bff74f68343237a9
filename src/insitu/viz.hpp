#pragma once
// The visualization proxy's per-rank kernel: sampling, extraction and
// rendering of one rank's partition under a configured algorithm.
//
// This is the unit the whole harness measures. Every path runs
// single-threaded on the calling rank and records per-phase CPU time
// (ThreadCpuTimer) into its counters; the cluster model turns those
// measurements into node time, power and energy (DESIGN.md §4.1).
//
// Algorithms (paper §IV-C):
//   HACC / particle data:
//     kRaycastSpheres - BVH build + per-pixel sphere raycast
//     kGaussianSplat  - Gaussian-footprint sphere impostors (raster)
//     kVtkPoints      - fixed-size screen blocks (raster)
//   xRAGE / volume data:
//     kVtkGeometry    - isosurface + slice extraction, rasterized
//     kRaycastVolume  - ray-marched isosurface + O(1) raycast slices

#include <functional>
#include <string>
#include <vector>

#include "cluster/counters.hpp"
#include "data/image.hpp"
#include "pipeline/sampler.hpp"
#include "render/camera.hpp"

namespace eth {
class ArtifactCache;
} // namespace eth

namespace eth::insitu {

enum class VizAlgorithm {
  kRaycastSpheres,
  kGaussianSplat,
  kVtkPoints,
  kVtkGeometry,
  kRaycastVolume,
  /// Direct volume rendering (emission/absorption through the transfer
  /// function) — the third classic volumetric technique, included as an
  /// extension beyond the paper's two pipelines. Partial images carry
  /// premultiplied alpha and composite in view order.
  kRaycastDvr,
};

const char* to_string(VizAlgorithm algorithm);

/// True for algorithms that consume particle data (PointSet).
bool is_particle_algorithm(VizAlgorithm algorithm);

struct VizConfig {
  VizAlgorithm algorithm = VizAlgorithm::kRaycastSpheres;

  Index image_width = 256;
  Index image_height = 256;
  /// Images rendered per timestep (the paper renders 100-1000; scale
  /// accordingly). The camera orbits the data across images.
  Index images_per_timestep = 4;

  /// In-situ sampling parameter (1.0 = no sampling).
  double sampling_ratio = 1.0;
  SamplingMode sampling_mode = SamplingMode::kBernoulli;
  std::uint64_t sampling_seed = 42;

  // ------------------------------------------------- volume pipelines
  std::string volume_field = "temperature";
  Real isovalue = 0.55f;
  /// "two sliding planes and a varying isovalue": planes slide and the
  /// isovalue wobbles ACROSS TIMESTEPS (as in the paper's 1000 images
  /// over 12 timesteps); within one timestep the extracted geometry is
  /// fixed and only the camera moves, so the geometry pipeline
  /// amortizes extraction over the timestep's images.
  int num_slices = 2;
  Real isovalue_variation = 0.05f;
  /// The current timestep (drives the slide/wobble phase). Set by the
  /// harness's timestep loop.
  Index timestep = 0;

  // ----------------------------------------------- particle pipelines
  std::string particle_scalar = "speed";
  Real particle_radius = 0.0f; ///< world radius, 0 = auto
  int point_size = 3;          ///< kVtkPoints block size in pixels ("1 to 3")

  /// Color-scale range for the active scalar (particle_scalar or
  /// volume_field). When hi < lo (the default), each rank rescales to
  /// its LOCAL field range — fine for single-rank use, but parallel
  /// runs must set a global range (the harness allreduces one) or
  /// partial images composite with inconsistent colors.
  Real scalar_range_lo = 0.0f;
  Real scalar_range_hi = -1.0f;

  bool has_explicit_scalar_range() const { return scalar_range_hi >= scalar_range_lo; }

  // ------------------------------------------------------ memoization
  /// Sweep-wide artifact cache (DESIGN.md §10). When set together with a
  /// non-zero `input_fingerprint`, sampling outputs, extracted geometry
  /// and renderer acceleration structures are resolved through the
  /// cache; with neither, every artifact computes through.
  ArtifactCache* artifact_cache = nullptr;
  /// Content fingerprint of `data` as handed to run_viz_rank (the
  /// provenance root for every derived artifact's cache key).
  std::uint64_t input_fingerprint = 0;
};

struct VizRankOutput {
  /// One partial (this-rank's-data-only) image per image index, with
  /// eye-space depth for compositing. Empty from the sink form of
  /// run_viz_rank, which hands each image to its sink instead.
  std::vector<ImageBuffer> images;
  /// Work accounting; phases: "sample", "extract", "build", "render".
  cluster::PerfCounters counters;
  /// Element bookkeeping for the cluster model's utilization estimates.
  Index input_elements = 0;   ///< points / grid cells before sampling
  Index working_elements = 0; ///< after sampling
};

/// Receives each finished image of the sink form of run_viz_rank, in
/// image order, after the image's "render" timer has stopped. `frame` is
/// the caller's buffer: the sink may read it, overwrite it or move it
/// out.
using VizImageSink = std::function<void(ImageBuffer& frame)>;

/// Run the configured pipeline on `data` (this rank's partition) with
/// cameras derived from `base_camera` (which every rank must build from
/// the GLOBAL bounds so partial images composite).
VizRankOutput run_viz_rank(const DataSet& data, const VizConfig& config,
                           const Camera& base_camera);

/// The same run, rendering every image into the caller's `frame` and
/// handing it to `sink` instead of collecting it. Before each image the
/// frame is cleared to the algorithm's background, depth +inf (opaque
/// black; transparent for kRaycastDvr). It is reallocated only when its
/// size is wrong, for example after the sink moved it out.
VizRankOutput run_viz_rank(const DataSet& data, const VizConfig& config,
                           const Camera& base_camera, ImageBuffer& frame,
                           const VizImageSink& sink);

/// Camera for image `i` of a sequence: orbit of the base camera.
Camera camera_for_image(const Camera& base_camera, Index image, Index images);

} // namespace eth::insitu
