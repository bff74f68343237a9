#pragma once
// Synthetic HACC-like cosmology data.
//
// The paper's HACC runs use dark-sky n-body dumps of 0.25-1 billion
// particles whose science content is the halo structure ("render the
// point-cloud data in a manner that makes visual identification of
// halos easy"). Those dumps are not available here, so this generator
// produces the closest synthetic equivalent: a periodic box of
// particles clustered into Plummer-profile halos over a uniform
// background, with per-particle id and velocity exactly as the paper
// lists ("each particle's data is composed of its ID, position vector,
// and velocity vector").
//
// Scale: experiments run at 1/1000 of the paper's counts (1 M -> "1 B")
// with the factor applied uniformly across the size sweep, preserving
// every size *ratio* the figures depend on. Deterministic in (seed,
// timestep), so all couplings/algorithms see identical input.

#include <memory>
#include <span>
#include <vector>

#include "data/point_set.hpp"

namespace eth::sim {

struct HaccParams {
  Index num_particles = 1'000'000;
  Index num_halos = 64;
  double background_fraction = 0.35; ///< particles outside any halo
  Real box_size = 100.0f;            ///< comoving box edge length
  Real halo_scale_radius = 1.2f;     ///< Plummer scale radius a
  std::uint64_t seed = 1234;

  /// 0-based simulation timestep; halos drift and deepen with time so
  /// successive timesteps differ like a real evolution.
  Index timestep = 0;
};

/// Generate the full box.
std::unique_ptr<PointSet> generate_hacc(const HaccParams& params);

/// Generate only this rank's slab (particles whose x falls in
/// [rank, rank+1) / ranks of the box): what each parallel process of
/// the simulation proxy holds. Deterministic: the union over ranks
/// equals (as a set) generate_hacc of the same params.
std::unique_ptr<PointSet> generate_hacc_rank(const HaccParams& params, int rank,
                                             int ranks);

/// Every listed slab of `parts` in one pass over the particle stream:
/// element k equals generate_hacc_rank(params, shares[k], parts), and
/// repeated shares alias one PointSet. A serial pass skips through the
/// stream without any math and checkpoints the generator every fixed
/// block of particles; the blocks then replay on the global pool and
/// merge in block order, so the bytes depend on neither the pool size
/// nor the block size. Particles outside every listed slab skip their
/// velocity math.
std::vector<std::shared_ptr<const PointSet>> generate_hacc_shares(
    const HaccParams& params, std::span<const int> shares, int parts);

/// Extract slab `rank` of `ranks` from an already-generated full box —
/// identical (same particles, same order) to generate_hacc_rank of the
/// same params, but without regenerating the stream. Used by bulk dump
/// pre-passes that materialize many slabs of one timestep.
PointSet extract_hacc_slab(const PointSet& full, Real box_size, int rank, int ranks);

} // namespace eth::sim
