#pragma once
// Synthetic xRAGE-like asteroid-impact data.
//
// The paper's grid workload is the xRAGE radiation-hydrodynamics
// asteroid run: AMR data resampled to structured grids of
// 610x375x320 (small), 1280x750x640 (medium) and 1840x1120x960 (large),
// visualized through slicing planes and isosurfaces of the temperature
// field. Those dumps are not available, so this generator evaluates an
// analytic impact model — expanding shock shell, hot crater, buoyant
// turbulent plume (multi-octave value noise), ambient stratification —
// onto a structured grid with temperature / density / pressure fields.
// Level sets of the temperature field are curved, multi-component and
// timestep-dependent, which is all the slicing/isosurface pipelines
// consume. Dimensions in experiments are the paper's scaled by ~1/8
// per axis (documented in EXPERIMENTS.md); ratios across the size sweep
// are preserved.

#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "data/structured_grid.hpp"

namespace eth::sim {

struct XrageParams {
  Vec3i dims{76, 47, 40}; ///< paper's "small" 610x375x320 over 8 per axis
  Real domain_size = 10.0f;   ///< physical x-extent; y/z scale with dims
  Index timestep = 0;         ///< shock expands / plume rises with time
  std::uint64_t seed = 99;

  /// The paper's three problem sizes at 1/8 per-axis scale.
  static XrageParams small_problem();
  static XrageParams medium_problem();
  static XrageParams large_problem();
};

/// Generate the full grid with "temperature", "density", "pressure"
/// point fields. Temperature is normalized to [0, 1].
std::unique_ptr<StructuredGrid> generate_xrage(const XrageParams& params);

/// Generate only the sub-block of grid points [lo, hi) (indices into
/// the full dims). The field is analytic, so the block is bit-identical
/// to the same region of the full grid.
std::unique_ptr<StructuredGrid> generate_xrage_block(const XrageParams& params,
                                                     Vec3i lo, Vec3i hi);

/// Generate the blocks [lo, hi) of `ranges`, each byte-identical to
/// generate_xrage_block of its range, building each region once: taken
/// largest first, a block that lies inside an earlier one is cut from it
/// (origin spacing * global index, as the generator sets it) instead of
/// synthesized again, and the blocks inside no larger one are
/// synthesized concurrently on the pool. The result is in `ranges`
/// order.
std::vector<std::unique_ptr<StructuredGrid>> generate_xrage_blocks(
    const XrageParams& params, std::span<const std::pair<Vec3i, Vec3i>> ranges);

/// Near-cubic factorization of `parts` into per-axis block counts for
/// `dims`, largest factor on the longest axis. Every block keeps >= 2
/// points per axis; throws when impossible.
Vec3i block_factorization(Vec3i dims, int parts);

/// Index range [lo, hi) of block `share` of `parts` (with one plane of
/// overlap toward higher indices so extraction is crack-free).
std::pair<Vec3i, Vec3i> grid_block_range(Vec3i dims, int share, int parts);

} // namespace eth::sim
