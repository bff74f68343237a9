#include "sim/xrage_generator.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <numeric>
#include <optional>
#include <span>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "parallel/thread_pool.hpp"

namespace eth::sim {

namespace {

/// (k, j) rows per pool chunk in generate_xrage_block.
constexpr Index kRowGrain = 4;

/// Lattice rows per pool chunk when tabulating noise.
constexpr Index kLatticeRowGrain = 16;

/// Octaves of the fractal noise.
constexpr int kOctaves = 4;

/// Deterministic lattice hash -> [0, 1).
Real lattice_noise(std::uint64_t seed, Index i, Index j, Index k) {
  SplitMix64 sm(seed ^ (0x9E3779B97F4A7C15ull * static_cast<std::uint64_t>(i + 1)) ^
                (0xBF58476D1CE4E5B9ull * static_cast<std::uint64_t>(j + 1)) ^
                (0x94D049BB133111EBull * static_cast<std::uint64_t>(k + 1)));
  return Real(double(sm.next() >> 11) * 0x1.0p-53);
}

/// 4-octave fractal value noise in [0, 1), tabulated for one box of
/// grid points.
///
/// Pointwise, octave o samples trilinear value noise with seed
/// `seed + 7919 o` at lattice position p * 2.03^o and weight 0.5^(o+1),
/// and the sum is divided by the sum of the weights. A grid point's
/// lattice coordinate along an axis depends only on its index along
/// that axis, so each axis's floor and fraction are computed once per
/// index, and lattice_noise once per lattice point some grid point
/// touches. Every float operation and the lerp order of the pointwise
/// form are kept, so each value is bit-identical to it.
class FbmTable {
public:
  /// `coords[a][n]`: the octave-0 lattice coordinate of the box's n-th
  /// index along axis a. Every axis holds at least one index.
  FbmTable(std::uint64_t seed, std::array<std::vector<Real>, 3> coords) {
    for (int octave = 0; octave < kOctaves; ++octave) {
      Octave& oct = octaves_[octave];
      // Per axis, the distinct lattice indices the box's points touch
      // (each floor f and f + 1), sorted, so f + 1 is stored next to f
      // and the table holds at most the 8 corners per point that the
      // pointwise form hashes, however coarse the grid.
      std::array<std::vector<Index>, 3> corners;
      for (int a = 0; a < 3; ++a) {
        Axis& axis = oct.axis[a];
        for (Real& c : coords[a]) {
          const auto f = static_cast<Index>(std::floor(c));
          axis.cell.push_back(f);
          axis.frac.push_back(c - Real(f));
          corners[a].push_back(f);
          corners[a].push_back(f + 1);
          c = c * Real(2.03); // the next octave's coordinate
        }
        std::sort(corners[a].begin(), corners[a].end());
        corners[a].erase(std::unique(corners[a].begin(), corners[a].end()), corners[a].end());
        for (Index& cell : axis.cell)
          cell = std::lower_bound(corners[a].begin(), corners[a].end(), cell) - corners[a].begin();
      }
      const auto extent = [&](int a) { return static_cast<Index>(corners[a].size()); };
      oct.stride_y = extent(0);
      oct.stride_z = extent(0) * extent(1);
      oct.lattice.resize(static_cast<std::size_t>(oct.stride_z * extent(2)));
      const std::uint64_t octave_seed = seed + static_cast<std::uint64_t>(octave) * 7919u;
      parallel_for(0, extent(1) * extent(2), kLatticeRowGrain, [&](Index begin, Index end) {
        for (Index row = begin; row < end; ++row) {
          const Index lj = corners[1][static_cast<std::size_t>(row % extent(1))];
          const Index lk = corners[2][static_cast<std::size_t>(row / extent(1))];
          Real* out = oct.lattice.data() + row * extent(0);
          for (std::size_t li = 0; li < corners[0].size(); ++li)
            out[li] = lattice_noise(octave_seed, corners[0][li], lj, lk);
        }
      });
    }
  }

  /// One (j, k) row of the box: its lattice rows and y/z fractions per
  /// octave, looked up once for the row's points.
  class Row {
  public:
    Row(const FbmTable& table, Index j, Index k) : table_(table) {
      for (int octave = 0; octave < kOctaves; ++octave) {
        const Octave& oct = table.octaves_[octave];
        const auto uj = static_cast<std::size_t>(j);
        const auto uk = static_cast<std::size_t>(k);
        base_[octave] = oct.lattice.data() + oct.stride_y * oct.axis[1].cell[uj] +
                        oct.stride_z * oct.axis[2].cell[uk];
        fy_[octave] = oct.axis[1].frac[uj];
        fz_[octave] = oct.axis[2].frac[uk];
      }
    }

    /// Noise at the row's point i (box-relative).
    Real operator()(Index i) const {
      const auto ui = static_cast<std::size_t>(i);
      Real sum = 0, amp = Real(0.5);
      Real norm = 0;
      for (int octave = 0; octave < kOctaves; ++octave) {
        const Octave& oct = table_.octaves_[octave];
        const Real fx = oct.axis[0].frac[ui];
        const Real fy = fy_[octave];
        const Real fz = fz_[octave];
        const Index sy = oct.stride_y;
        const Index sz = oct.stride_z;
        const Real* s = base_[octave] + oct.axis[0].cell[ui];
        const Real c00 = lerp(s[0], s[1], fx);
        const Real c10 = lerp(s[sy], s[sy + 1], fx);
        const Real c01 = lerp(s[sz], s[sz + 1], fx);
        const Real c11 = lerp(s[sy + sz], s[sy + sz + 1], fx);
        sum += amp * lerp(lerp(c00, c10, fy), lerp(c01, c11, fy), fz);
        norm += amp;
        amp *= Real(0.5);
      }
      return sum / norm;
    }

  private:
    const FbmTable& table_;
    const Real* base_[kOctaves];
    Real fy_[kOctaves];
    Real fz_[kOctaves];
  };

  /// Noise at the box's point (i, j, k), box-relative indices.
  Real operator()(Index i, Index j, Index k) const { return Row(*this, j, k)(i); }

private:
  struct Axis {
    std::vector<Index> cell; ///< position of the coordinate's floor in the corners
    std::vector<Real> frac;  ///< coordinate minus its floor
  };
  struct Octave {
    Axis axis[3];
    Index stride_y = 0;
    Index stride_z = 0;
    std::vector<Real> lattice; ///< lattice_noise over the corners' product
  };
  Octave octaves_[kOctaves];
};

} // namespace

XrageParams XrageParams::small_problem() {
  XrageParams p;
  p.dims = {76, 47, 40};
  return p;
}

XrageParams XrageParams::medium_problem() {
  XrageParams p;
  p.dims = {160, 94, 80};
  return p;
}

XrageParams XrageParams::large_problem() {
  XrageParams p;
  p.dims = {230, 140, 120};
  return p;
}

std::unique_ptr<StructuredGrid> generate_xrage(const XrageParams& p) {
  return generate_xrage_block(p, {0, 0, 0}, p.dims);
}

Vec3i block_factorization(Vec3i dims, int parts) {
  require(parts > 0, "block_factorization: parts must be positive");
  // Greedy: repeatedly split the axis with the most points per block.
  Vec3i f{1, 1, 1};
  int remaining = parts;
  // Factor `parts` into primes, assign largest-first to the axis where
  // each block currently has the most points.
  std::vector<int> primes;
  for (int d = 2; remaining > 1; ++d) {
    while (remaining % d == 0) {
      primes.push_back(d);
      remaining /= d;
    }
    require(d <= parts, "block_factorization: internal factoring error");
  }
  std::sort(primes.rbegin(), primes.rend());
  for (const int prime : primes) {
    int best_axis = -1;
    double best_points = -1;
    for (int a = 0; a < 3; ++a) {
      const double per_block = double(dims[a]) / double(f[a] * prime);
      if (per_block < 2.0) continue; // would make blocks too thin
      const double current = double(dims[a]) / double(f[a]);
      if (current > best_points) {
        best_points = current;
        best_axis = a;
      }
    }
    require(best_axis >= 0,
            "block_factorization: grid too small for this many blocks");
    f[best_axis] = f[best_axis] * prime;
  }
  return f;
}

std::pair<Vec3i, Vec3i> grid_block_range(Vec3i dims, int share, int parts) {
  require(share >= 0 && share < parts, "grid_block_range: bad share");
  const Vec3i f = block_factorization(dims, parts);
  const Index bx = share % f.x;
  const Index by = (share / f.x) % f.y;
  const Index bz = share / (f.x * f.y);
  Vec3i lo, hi;
  const Index bidx[3] = {bx, by, bz};
  for (int a = 0; a < 3; ++a) {
    lo[a] = dims[a] * bidx[a] / f[a];
    hi[a] = dims[a] * (bidx[a] + 1) / f[a];
    if (bidx[a] + 1 < f[a]) hi[a] += 1; // shared plane with the next block
  }
  return {lo, hi};
}

namespace {

void require_block(const XrageParams& p, Vec3i lo, Vec3i hi) {
  require(p.dims.x >= 2 && p.dims.y >= 2 && p.dims.z >= 2,
          "generate_xrage: dims must be >= 2");
  require(p.domain_size > 0, "generate_xrage: domain_size must be positive");
  for (int a = 0; a < 3; ++a) {
    require(lo[a] >= 0 && hi[a] <= p.dims[a] && hi[a] - lo[a] >= 2,
            "generate_xrage_block: bad block range");
  }
}

/// Uniform grid spacing: physical extents are proportional to dims.
Real grid_spacing(const XrageParams& p) { return p.domain_size / Real(p.dims.x - 1); }

/// An empty block [lo, hi) placed at spacing * global index.
std::unique_ptr<StructuredGrid> empty_block(const XrageParams& p, Vec3i lo, Vec3i hi) {
  const Real spacing = grid_spacing(p);
  return std::make_unique<StructuredGrid>(
      Vec3i{hi.x - lo.x, hi.y - lo.y, hi.z - lo.z},
      Vec3f{spacing * Real(lo.x), spacing * Real(lo.y), spacing * Real(lo.z)},
      Vec3f{spacing, spacing, spacing});
}

/// Block [lo, hi) copied out of `parent`, the block starting at global
/// index `parent_lo`: every field, row by row.
std::unique_ptr<StructuredGrid> cut_block(const XrageParams& p, const StructuredGrid& parent,
                                          Vec3i parent_lo, Vec3i lo, Vec3i hi) {
  auto grid = empty_block(p, lo, hi);
  const Vec3i dims = grid->dims();
  const Vec3i at{lo.x - parent_lo.x, lo.y - parent_lo.y, lo.z - parent_lo.z};
  const FieldCollection& from = parent.point_fields();
  for (std::size_t f = 0; f < from.size(); ++f) {
    const Field& src = from.at(f);
    grid->point_fields().add(
        Field(src.name(), grid->num_points(), src.components(), src.association()));
  }
  for (std::size_t f = 0; f < from.size(); ++f) {
    const Index c = from.at(f).components();
    const Real* in = from.at(f).values().data();
    Real* out = grid->point_fields().at(f).values().data();
    for (Index k = 0; k < dims.z; ++k)
      for (Index j = 0; j < dims.y; ++j)
        std::copy_n(in + c * parent.point_index(at.x, at.y + j, at.z + k), c * dims.x,
                    out + c * grid->point_index(0, j, k));
  }
  return grid;
}

bool contains(const std::pair<Vec3i, Vec3i>& outer, const std::pair<Vec3i, Vec3i>& inner) {
  for (int a = 0; a < 3; ++a)
    if (inner.first[a] < outer.first[a] || inner.second[a] > outer.second[a]) return false;
  return true;
}

Index volume(const std::pair<Vec3i, Vec3i>& range) {
  return (range.second.x - range.first.x) * (range.second.y - range.first.y) *
         (range.second.z - range.first.z);
}

} // namespace

std::vector<std::unique_ptr<StructuredGrid>> generate_xrage_blocks(
    const XrageParams& params, std::span<const std::pair<Vec3i, Vec3i>> ranges) {
  for (const auto& [lo, hi] : ranges) require_block(params, lo, hi);
  // Largest first, each block is cut from the first root that contains
  // it or becomes a root itself; only roots are synthesized.
  std::vector<std::size_t> order(ranges.size());
  std::iota(order.begin(), order.end(), std::size_t(0));
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return volume(ranges[a]) > volume(ranges[b]);
  });
  std::vector<std::size_t> roots;
  std::vector<std::size_t> source(ranges.size()); ///< the root a block comes from
  for (const std::size_t i : order) {
    const auto root = std::find_if(roots.begin(), roots.end(), [&](std::size_t j) {
      return contains(ranges[j], ranges[i]);
    });
    source[i] = root != roots.end() ? *root : i;
    if (root == roots.end()) roots.push_back(i);
  }
  // One pool task per root; each root's own row loop then runs inline on
  // its worker.
  std::vector<std::unique_ptr<StructuredGrid>> blocks(ranges.size());
  parallel_for(0, static_cast<Index>(roots.size()), 1, [&](Index begin, Index end) {
    for (Index n = begin; n < end; ++n) {
      const auto [lo, hi] = ranges[roots[static_cast<std::size_t>(n)]];
      blocks[roots[static_cast<std::size_t>(n)]] = generate_xrage_block(params, lo, hi);
    }
  });
  // Every point is a pure function of its global index, so a region of a
  // root holds exactly what synthesizing it would.
  for (std::size_t i = 0; i < ranges.size(); ++i)
    if (source[i] != i)
      blocks[i] = cut_block(params, *blocks[source[i]], ranges[source[i]].first,
                            ranges[i].first, ranges[i].second);
  return blocks;
}

std::unique_ptr<StructuredGrid> generate_xrage_block(const XrageParams& p, Vec3i lo,
                                                     Vec3i hi) {
  require_block(p, lo, hi);
  auto grid = empty_block(p, lo, hi);
  const Real spacing_val = grid_spacing(p);
  const Vec3i dims = grid->dims();
  // Add all fields before looking any up: each add may reallocate the
  // collection's storage, invalidating Field references taken earlier.
  grid->add_scalar_field("temperature");
  grid->add_scalar_field("density");
  grid->add_scalar_field("pressure");
  const std::span<Real> temperature = grid->point_fields().get("temperature").values();
  const std::span<Real> density = grid->point_fields().get("density").values();
  const std::span<Real> pressure = grid->point_fields().get("pressure").values();

  // Impact geometry: strike point on the "ground" (y = 0 plane) at the
  // domain's x/z center. The shock radius grows with sqrt(t) (Sedov-
  // like), the plume rises linearly with t.
  const Real sx = p.domain_size * Real(0.5);
  const Real sy = Real(0);
  const Real sz = spacing_val * Real(p.dims.z - 1) * Real(0.5);
  const Real t = Real(1) + Real(p.timestep);
  const Real shock_radius = Real(0.9) * std::sqrt(t) * p.domain_size * Real(0.08);
  const Real shock_width = shock_radius * Real(0.25);
  const Real plume_height = p.domain_size * Real(0.06) * t;
  const Real noise_scale = Real(6) / p.domain_size;

  // Octave-0 lattice coordinates of global indices [from, to) along
  // one axis: the axis's position times noise_scale, then `finish`.
  const auto lattice_coords = [&](Index from, Index to, auto finish) {
    std::vector<Real> coords;
    for (Index g = from; g < to; ++g)
      coords.push_back(finish(spacing_val * Real(g) * noise_scale));
    return coords;
  };
  const auto twice = [](Real c) { return c * Real(2); };
  const FbmTable rough(p.seed + 1, {lattice_coords(lo.x, hi.x, twice),
                                    lattice_coords(lo.y, hi.y, twice),
                                    lattice_coords(lo.z, hi.z, twice)});

  // The plume's noise, tabulated only for blocks reaching below the
  // plume's top: no other point passes the plume test below.
  std::optional<FbmTable> plume;
  if (spacing_val * Real(lo.y) < plume_height) {
    const Vec3f rise{0, t * Real(0.7), 0};
    const auto offset_by = [](Real d) { return [d](Real c) { return c + d; }; };
    plume.emplace(p.seed, std::array<std::vector<Real>, 3>{
                              lattice_coords(lo.x, hi.x, offset_by(rise.x)),
                              lattice_coords(lo.y, hi.y, offset_by(rise.y)),
                              lattice_coords(lo.z, hi.z, offset_by(rise.z))});
  }

  // Rows of (k, j) run on the pool. Every point is a pure function of
  // its global lattice index and writes only its own slot, so the grid
  // is bit-identical at any pool size (and inline inside a pool task).
  parallel_for(0, dims.z * dims.y, kRowGrain, [&](Index row_begin, Index row_end) {
    for (Index row = row_begin; row < row_end; ++row) {
      const Index j = row % dims.y;
      const Index k = row / dims.y;
      const FbmTable::Row rough_row(rough, j, k);
      for (Index i = 0; i < dims.x; ++i) {
        // Evaluate at the GLOBAL lattice position (spacing * global
        // index) so a block is bit-identical to the same region of the
        // full grid; origin + spacing*local would differ by ULPs.
        const Vec3f pos{spacing_val * Real(lo.x + i), spacing_val * Real(lo.y + j),
                        spacing_val * Real(lo.z + k)};
        const Vec3f rel{pos.x - sx, pos.y - sy, pos.z - sz};
        const Real r = length(rel);

        // Ambient stratification: cool with altitude.
        Real temp = Real(0.08) * (Real(1) - pos.y / (p.domain_size * Real(0.6)));
        temp = std::max(temp, Real(0.02));

        // Crater / fireball core: hot inside ~half the shock radius.
        const Real core = std::exp(-(r * r) / (shock_radius * shock_radius * Real(0.18)));
        temp += Real(0.85) * core;

        // Shock shell: Gaussian ridge at the shock radius.
        const Real shell = std::exp(-((r - shock_radius) * (r - shock_radius)) /
                                    (2 * shock_width * shock_width));
        temp += Real(0.45) * shell;

        // Rising turbulent plume above the strike point.
        const Real horiz2 = rel.x * rel.x + rel.z * rel.z;
        const Real plume_r = shock_radius * Real(0.5) *
                             (Real(0.4) + Real(0.6) * pos.y / std::max(plume_height, Real(1e-3)));
        if (pos.y > 0 && pos.y < plume_height && horiz2 < plume_r * plume_r) {
          const Real n = (*plume)(i, j, k);
          temp += Real(0.35) * n * (Real(1) - pos.y / plume_height);
        }

        // Turbulence roughens everything near the event.
        temp *= Real(0.9) + Real(0.2) * rough_row(i);
        temp = clamp(temp, Real(0), Real(1));

        const auto idx = static_cast<std::size_t>(i + dims.x * row);
        temperature[idx] = temp;
        // Crude equation-of-state companions (exercised by multi-field
        // pipelines and tests, not by the paper's figures).
        density[idx] = clamp(Real(1.2) - temp + Real(0.3) * shell, Real(0.05), Real(2));
        pressure[idx] = clamp(temp * (Real(0.8) + Real(0.4) * core), Real(0), Real(2));
      }
    }
  });

  return grid;
}

} // namespace eth::sim
