#include "sim/xrage_generator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include "common/fingerprint.hpp"
#include "common/rng.hpp"
#include "data/serialize.hpp"
#include "parallel/thread_pool.hpp"

namespace eth::sim {
namespace {

TEST(XrageGenerator, ProblemSizesMatchPaperRatios) {
  const auto s = XrageParams::small_problem();
  const auto m = XrageParams::medium_problem();
  const auto l = XrageParams::large_problem();
  // Paper: small 610x375x320, medium 1280x750x640, large 1840x1120x960
  // at 1/8 per axis. Check the ~27x total span (paper: "a 27-fold
  // increase in problem size").
  const auto cells = [](Vec3i d) { return double(d.x) * double(d.y) * double(d.z); };
  EXPECT_NEAR(cells(l.dims) / cells(s.dims), 27.0, 8.0);
  EXPECT_NEAR(cells(m.dims) / cells(s.dims), 8.0, 3.0);
}

TEST(XrageGenerator, FieldsPresentAndNormalized) {
  XrageParams p;
  p.dims = {24, 20, 16};
  const auto grid = generate_xrage(p);
  EXPECT_EQ(grid->dims(), (Vec3i{24, 20, 16}));
  for (const char* field : {"temperature", "density", "pressure"})
    EXPECT_TRUE(grid->point_fields().has(field));
  const auto [lo, hi] = grid->point_fields().get("temperature").range();
  EXPECT_GE(lo, 0.0f);
  EXPECT_LE(hi, 1.0f);
  EXPECT_GT(hi, 0.3f); // the blast is hot
}

TEST(XrageGenerator, DeterministicForSeed) {
  XrageParams p;
  p.dims = {16, 16, 16};
  const auto a = generate_xrage(p);
  const auto b = generate_xrage(p);
  const Field& fa = a->point_fields().get("temperature");
  const Field& fb = b->point_fields().get("temperature");
  for (Index i = 0; i < a->num_points(); ++i) EXPECT_EQ(fa.get(i), fb.get(i));
}

TEST(XrageGenerator, HotCoreNearStrikePoint) {
  XrageParams p;
  p.dims = {32, 24, 24};
  p.timestep = 2;
  const auto grid = generate_xrage(p);
  const Field& t = grid->point_fields().get("temperature");
  const AABB box = grid->bounds();
  // Strike point: mid-x, y=0 (ground), mid-z.
  const Vec3f strike{box.center().x, 0, box.center().z};
  const Vec3f far_corner = box.hi;
  EXPECT_GT(grid->sample(t, strike), grid->sample(t, far_corner) + 0.2f);
}

TEST(XrageGenerator, ShockExpandsWithTime) {
  XrageParams p;
  p.dims = {32, 24, 24};
  const auto measure_hot_extent = [&](Index timestep) {
    XrageParams q = p;
    q.timestep = timestep;
    const auto grid = generate_xrage(q);
    const Field& t = grid->point_fields().get("temperature");
    Index hot = 0;
    for (const Real v : t.values())
      if (v > 0.5f) ++hot;
    return hot;
  };
  // The heated region grows as the blast develops.
  EXPECT_GT(measure_hot_extent(8), measure_hot_extent(0));
}

TEST(XrageGenerator, BlockEqualsFullGridRegion) {
  XrageParams p;
  p.dims = {20, 16, 12};
  const auto full = generate_xrage(p);
  const auto block = generate_xrage_block(p, {4, 2, 3}, {12, 10, 9});
  EXPECT_EQ(block->dims(), (Vec3i{8, 8, 6}));
  const Field& bf = block->point_fields().get("temperature");
  const Field& ff = full->point_fields().get("temperature");
  for (Index k = 0; k < 6; ++k)
    for (Index j = 0; j < 8; ++j)
      for (Index i = 0; i < 8; ++i)
        EXPECT_EQ(bf.get(block->point_index(i, j, k)),
                  ff.get(full->point_index(i + 4, j + 2, k + 3)));
}

std::uint64_t field_digest(const StructuredGrid& grid, const char* name) {
  const auto values = grid.point_fields().get(name).values();
  Fingerprinter fp;
  fp.update(values.data(), values.size_bytes());
  return fp.digest();
}

// Digests of the generator's output, pinned before any rewrite of the
// synthesis loop: a faster generator must reproduce every field bit for
// bit, since dumps, pinned benchmark references and image goldens all
// hash its output.
TEST(XrageGenerator, GoldenFingerprints) {
  struct Case {
    std::uint64_t seed;
    Index timestep;
    int share, parts; // parts == 1: the whole grid
    std::uint64_t temperature, density, pressure;
  };
  const Case cases[] = {
      {99, 0, 0, 1, 0xee2f4159498bd069ull, 0x188159180f4a6336ull,
       0x8541d1e4a14393edull},
      {99, 2, 0, 1, 0xa32c8ee83b7bdc4cull, 0xa9260d539d7fdb3aull,
       0xad1f949842f42f34ull},
      {7, 0, 0, 1, 0x7a5438399064c561ull, 0x716514f8ec8dd161ull,
       0xf6ee101a88d42a5dull},
      {7, 2, 0, 1, 0x04662418ffe0b138ull, 0x26833fa636c047bdull,
       0xeb3a513eb419ebecull},
      {99, 1, 0, 48, 0x92b277118896dce3ull, 0xdccf2478ccb4d00eull,
       0xef2ab32545640845ull},
      {99, 1, 17, 48, 0xe9c8dbeda780390aull, 0xebf23b7ba18c6451ull,
       0x79599454a3f72a4bull},
      {7, 3, 47, 48, 0xb8adbee75bd51a44ull, 0x14e3da46a43afc8bull,
       0x1f8a1f0608c3878dull},
      {99, 2, 5, 16, 0xe5b5211e01164633ull, 0x31355aa6816807b8ull,
       0x22478be879156a1aull},
      {7, 0, 15, 16, 0x12c33f29d1560bfbull, 0x38f77894eb55381aull,
       0xdc820144c5b8f9c9ull},
  };
  for (const Case& c : cases) {
    XrageParams p = XrageParams::small_problem();
    p.seed = c.seed;
    p.timestep = c.timestep;
    const auto [lo, hi] = grid_block_range(p.dims, c.share, c.parts);
    const auto grid = c.parts == 1 ? generate_xrage(p) : generate_xrage_block(p, lo, hi);
    const std::string where = "seed " + std::to_string(c.seed) + " t=" +
                              std::to_string(c.timestep) + " share " +
                              std::to_string(c.share) + "/" + std::to_string(c.parts);
    EXPECT_EQ(field_digest(*grid, "temperature"), c.temperature) << where;
    EXPECT_EQ(field_digest(*grid, "density"), c.density) << where;
    EXPECT_EQ(field_digest(*grid, "pressure"), c.pressure) << where;
  }
}

// ---- Pointwise oracle: the generator's fields with the noise hashed at
// all eight lattice corners of every octave of every point. The
// generator tabulates the same lattice per block; the two must agree
// bit for bit.

Real lattice_noise(std::uint64_t seed, Index i, Index j, Index k) {
  SplitMix64 sm(seed ^ (0x9E3779B97F4A7C15ull * static_cast<std::uint64_t>(i + 1)) ^
                (0xBF58476D1CE4E5B9ull * static_cast<std::uint64_t>(j + 1)) ^
                (0x94D049BB133111EBull * static_cast<std::uint64_t>(k + 1)));
  return Real(double(sm.next() >> 11) * 0x1.0p-53);
}

/// Trilinear value noise at continuous lattice position.
Real value_noise(std::uint64_t seed, Vec3f p) {
  const auto fi = static_cast<Index>(std::floor(p.x));
  const auto fj = static_cast<Index>(std::floor(p.y));
  const auto fk = static_cast<Index>(std::floor(p.z));
  const Real fx = p.x - Real(fi), fy = p.y - Real(fj), fz = p.z - Real(fk);
  const auto s = [&](Index di, Index dj, Index dk) {
    return lattice_noise(seed, fi + di, fj + dj, fk + dk);
  };
  const Real c00 = lerp(s(0, 0, 0), s(1, 0, 0), fx);
  const Real c10 = lerp(s(0, 1, 0), s(1, 1, 0), fx);
  const Real c01 = lerp(s(0, 0, 1), s(1, 0, 1), fx);
  const Real c11 = lerp(s(0, 1, 1), s(1, 1, 1), fx);
  return lerp(lerp(c00, c10, fy), lerp(c01, c11, fy), fz);
}

/// 4-octave fractal noise in [0, 1).
Real fbm(std::uint64_t seed, Vec3f p) {
  Real sum = 0, amp = Real(0.5);
  Real norm = 0;
  for (int octave = 0; octave < 4; ++octave) {
    sum += amp * value_noise(seed + static_cast<std::uint64_t>(octave) * 7919u, p);
    norm += amp;
    p = p * Real(2.03);
    amp *= Real(0.5);
  }
  return sum / norm;
}

struct PointwiseFields {
  std::vector<Real> temperature, density, pressure;
  Index plume_points = 0;
};

PointwiseFields pointwise_block(const XrageParams& p, Vec3i lo, Vec3i hi) {
  const Real spacing_val = p.domain_size / Real(p.dims.x - 1);
  const Vec3i dims{hi.x - lo.x, hi.y - lo.y, hi.z - lo.z};
  const Real sx = p.domain_size * Real(0.5);
  const Real sy = Real(0);
  const Real sz = spacing_val * Real(p.dims.z - 1) * Real(0.5);
  const Real t = Real(1) + Real(p.timestep);
  const Real shock_radius = Real(0.9) * std::sqrt(t) * p.domain_size * Real(0.08);
  const Real shock_width = shock_radius * Real(0.25);
  const Real plume_height = p.domain_size * Real(0.06) * t;
  const Real noise_scale = Real(6) / p.domain_size;
  PointwiseFields out;
  for (Index k = 0; k < dims.z; ++k) {
    for (Index j = 0; j < dims.y; ++j) {
      for (Index i = 0; i < dims.x; ++i) {
        const Vec3f pos{spacing_val * Real(lo.x + i), spacing_val * Real(lo.y + j),
                        spacing_val * Real(lo.z + k)};
        const Vec3f rel{pos.x - sx, pos.y - sy, pos.z - sz};
        const Real r = length(rel);
        Real temp = Real(0.08) * (Real(1) - pos.y / (p.domain_size * Real(0.6)));
        temp = std::max(temp, Real(0.02));
        const Real core = std::exp(-(r * r) / (shock_radius * shock_radius * Real(0.18)));
        temp += Real(0.85) * core;
        const Real shell = std::exp(-((r - shock_radius) * (r - shock_radius)) /
                                    (2 * shock_width * shock_width));
        temp += Real(0.45) * shell;
        const Real horiz2 = rel.x * rel.x + rel.z * rel.z;
        const Real plume_r = shock_radius * Real(0.5) *
                             (Real(0.4) + Real(0.6) * pos.y / std::max(plume_height, Real(1e-3)));
        if (pos.y > 0 && pos.y < plume_height && horiz2 < plume_r * plume_r) {
          const Real n = fbm(p.seed, pos * noise_scale + Vec3f{0, t * Real(0.7), 0});
          temp += Real(0.35) * n * (Real(1) - pos.y / plume_height);
          ++out.plume_points;
        }
        const Real rough = fbm(p.seed + 1, pos * noise_scale * Real(2));
        temp *= Real(0.9) + Real(0.2) * rough;
        temp = clamp(temp, Real(0), Real(1));
        out.temperature.push_back(temp);
        out.density.push_back(clamp(Real(1.2) - temp + Real(0.3) * shell, Real(0.05), Real(2)));
        out.pressure.push_back(clamp(temp * (Real(0.8) + Real(0.4) * core), Real(0), Real(2)));
      }
    }
  }
  return out;
}

// Random grids, blocks, timesteps, domains and seeds. Wide grids put
// several points in each lattice cell, narrow ones skip lattice cells
// between points; half the blocks sit on the strike point so the
// plume's table is exercised, and every eighth trial is a whole grid.
TEST(XrageGenerator, TabulatedNoiseMatchesPointwise) {
  Rng rng(17);
  const Real domains[] = {10, 3, 40};
  Index plume_points = 0;
  for (int trial = 0; trial < 32; ++trial) {
    XrageParams p;
    const bool whole = trial % 8 == 7;
    const Index max_dim = whole ? 40 : 200;
    p.dims = {Index(2 + rng.uniform_index(std::uint64_t(max_dim - 1))),
              Index(2 + rng.uniform_index(std::uint64_t(max_dim * 2 / 3 - 1))),
              Index(2 + rng.uniform_index(std::uint64_t(max_dim / 2 - 1)))};
    p.domain_size = domains[rng.uniform_index(3)];
    p.timestep = Index(rng.uniform_index(6));
    p.seed = rng.next_u64();
    Vec3i lo{0, 0, 0}, hi = p.dims;
    if (!whole) {
      for (int a = 0; a < 3; ++a) {
        const Index extent =
            2 + Index(rng.uniform_index(std::uint64_t(std::min<Index>(p.dims[a], 40) - 1)));
        const Index room = p.dims[a] - extent;
        Index start = Index(rng.uniform_index(std::uint64_t(room + 1)));
        if (trial % 2 == 0) { // around the strike point: x/z centre, ground
          const Index centre = a == 1 ? 0 : p.dims[a] / 2 - extent / 2;
          start = std::clamp<Index>(centre + Index(rng.uniform_index(7)) - 3, 0, room);
        }
        lo[a] = start;
        hi[a] = start + extent;
      }
    }
    const auto grid = generate_xrage_block(p, lo, hi);
    const PointwiseFields expected = pointwise_block(p, lo, hi);
    plume_points += expected.plume_points;
    const auto same = [&](const char* name, const std::vector<Real>& want) {
      const auto got = grid->point_fields().get(name).values();
      return got.size() == want.size() &&
             std::memcmp(got.data(), want.data(), got.size_bytes()) == 0;
    };
    EXPECT_TRUE(same("temperature", expected.temperature) &&
                same("density", expected.density) && same("pressure", expected.pressure))
        << "trial " << trial << " dims " << p.dims.x << "x" << p.dims.y << "x" << p.dims.z
        << " block [" << lo.x << "," << lo.y << "," << lo.z << ")-[" << hi.x << "," << hi.y
        << "," << hi.z << ") t=" << p.timestep;
  }
  EXPECT_GT(plume_points, 0);
}

// Rows are evaluated with parallel_for: the block must not depend on
// the pool size, nor on running inline inside a pool task.
TEST(XrageGenerator, BlockIsIdenticalAtAnyPoolSize) {
  XrageParams p;
  p.dims = {40, 36, 32};
  p.timestep = 3;
  const auto [lo, hi] = grid_block_range(p.dims, 5, 8);
  const auto generate_on = [&](ThreadPool& pool, bool from_pool_task) {
    set_global_pool(&pool);
    std::unique_ptr<StructuredGrid> grid;
    if (from_pool_task) {
      pool.submit([&] { grid = generate_xrage_block(p, lo, hi); });
      pool.wait_idle();
    } else {
      grid = generate_xrage_block(p, lo, hi);
    }
    set_global_pool(nullptr);
    return grid;
  };
  ThreadPool one(1);
  ThreadPool four(4);
  const auto serial = generate_on(one, false);
  const auto parallel = generate_on(four, false);
  const auto nested = generate_on(four, true);

  for (const StructuredGrid* grid : {parallel.get(), nested.get()}) {
    ASSERT_NE(grid, nullptr);
    ASSERT_EQ(grid->dims(), serial->dims());
    for (const char* name : {"temperature", "density", "pressure"}) {
      const auto a = serial->point_fields().get(name).values();
      const auto b = grid->point_fields().get(name).values();
      ASSERT_EQ(a.size(), b.size());
      EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size_bytes()), 0) << name;
    }
  }
}

TEST(XrageGenerator, RankSlabsShareBoundaryPlanes) {
  XrageParams p;
  p.dims = {16, 12, 20};
  // Two z-slabs with one plane of overlap: [0, 11) and [10, 20).
  const auto r0 = generate_xrage_block(p, {0, 0, 0}, {16, 12, 11});
  const auto r1 = generate_xrage_block(p, {0, 0, 10}, {16, 12, 20});
  EXPECT_EQ(r0->dims().z + r1->dims().z, 20 + 1);
  // The shared plane holds identical values.
  const Field& f0 = r0->point_fields().get("temperature");
  const Field& f1 = r1->point_fields().get("temperature");
  const Index z_shared_r0 = r0->dims().z - 1;
  for (Index j = 0; j < 12; ++j)
    for (Index i = 0; i < 16; ++i)
      EXPECT_EQ(f0.get(r0->point_index(i, j, z_shared_r0)),
                f1.get(r1->point_index(i, j, 0)));
}

TEST(BlockFactorization, NearCubicAndComplete) {
  const Vec3i f = block_factorization({200, 200, 200}, 8);
  EXPECT_EQ(f.x * f.y * f.z, 8);
  EXPECT_EQ(f, (Vec3i{2, 2, 2}));
  const Vec3i f216 = block_factorization({230, 140, 120}, 216);
  EXPECT_EQ(f216.x * f216.y * f216.z, 216);
  // No block thinner than 2 points.
  EXPECT_GE(230 / f216.x, 2);
  EXPECT_GE(140 / f216.y, 2);
  EXPECT_GE(120 / f216.z, 2);
  // Prime part counts factor correctly.
  const Vec3i f7 = block_factorization({100, 100, 100}, 7);
  EXPECT_EQ(f7.x * f7.y * f7.z, 7);
}

TEST(BlockFactorization, ImpossibleSplitsThrow) {
  EXPECT_THROW(block_factorization({2, 2, 2}, 64), Error);
}

TEST(GridBlockRange, CoversGridWithOverlap) {
  const Vec3i dims{20, 16, 12};
  const int parts = 8;
  std::vector<char> covered(static_cast<std::size_t>(dims.x * dims.y * dims.z), 0);
  for (int share = 0; share < parts; ++share) {
    const auto [lo, hi] = grid_block_range(dims, share, parts);
    for (int a = 0; a < 3; ++a) {
      EXPECT_GE(lo[a], 0);
      EXPECT_LE(hi[a], dims[a]);
      EXPECT_GE(hi[a] - lo[a], 2);
    }
    for (Index k = lo.z; k < hi.z; ++k)
      for (Index j = lo.y; j < hi.y; ++j)
        for (Index i = lo.x; i < hi.x; ++i)
          covered[static_cast<std::size_t>(i + dims.x * (j + dims.y * k))] = 1;
  }
  for (const char c : covered) EXPECT_EQ(c, 1);
}

/// Each of `ranks` ranks' dump blocks as the harness asks for them: its
/// share of `sim_parts`, then (when `viz_parts` > 0) its share of
/// `viz_parts`.
std::vector<std::pair<Vec3i, Vec3i>> dump_ranges(Vec3i dims, int ranks, int sim_parts,
                                                 int viz_parts) {
  std::vector<std::pair<Vec3i, Vec3i>> ranges;
  for (int r = 0; r < ranks; ++r) {
    ranges.push_back(grid_block_range(dims, r * sim_parts / ranks, sim_parts));
    if (viz_parts > 0) ranges.push_back(grid_block_range(dims, r * viz_parts / ranks, viz_parts));
  }
  return ranges;
}

bool inside(const std::pair<Vec3i, Vec3i>& inner, const std::pair<Vec3i, Vec3i>& outer) {
  for (int a = 0; a < 3; ++a)
    if (inner.first[a] < outer.first[a] || inner.second[a] > outer.second[a]) return false;
  return true;
}

TEST(XrageGenerator, CutBlocksSerializeLikeSynthesizedBlocks) {
  // xrage-proxy's split (4 ranks, 48 sim and 16 viz shares) on half its
  // grid, which factors the same way: every sim block lies inside its
  // rank's viz block and is cut from it.
  const Vec3i dims{96, 60, 48};
  for (const int parts : {16, 48})
    ASSERT_EQ(block_factorization(dims, parts), block_factorization({192, 120, 96}, parts));
  const auto split = dump_ranges(dims, 4, 48, 16);
  for (std::size_t r = 0; r < 4; ++r) EXPECT_TRUE(inside(split[2 * r], split[2 * r + 1]));
  // Four shares of 4: neighbours share a plane, none lies inside another.
  const auto uncut = dump_ranges(dims, 4, 4, 0);
  for (std::size_t a = 0; a < uncut.size(); ++a)
    for (std::size_t b = 0; b < uncut.size(); ++b)
      EXPECT_TRUE(a == b || !inside(uncut[a], uncut[b]));

  // Blocks from y = 0 reach below the plume's top and tabulate its
  // noise; blocks from y = 30 lie above it at every timestep here.
  XrageParams p;
  p.dims = dims;
  for (const std::uint64_t seed : {99ull, 2024ull})
    for (Index t = 0; t < 3; ++t) {
      p.seed = seed;
      p.timestep = t;
      for (const auto* ranges : {&split, &uncut}) {
        const auto blocks = generate_xrage_blocks(p, *ranges);
        ASSERT_EQ(blocks.size(), ranges->size());
        for (std::size_t i = 0; i < blocks.size(); ++i) {
          const auto [lo, hi] = (*ranges)[i];
          EXPECT_EQ(serialize_dataset(*blocks[i]),
                    serialize_dataset(*generate_xrage_block(p, lo, hi)))
              << "seed " << seed << " t " << t << " block " << i;
        }
      }
    }
}

TEST(XrageGenerator, RejectsBadBlocksAndParams) {
  XrageParams p;
  p.dims = {8, 8, 8};
  EXPECT_THROW(generate_xrage_block(p, {0, 0, 0}, {1, 8, 8}), Error); // too thin
  EXPECT_THROW(generate_xrage_block(p, {0, 0, 0}, {9, 8, 8}), Error); // out of range
  EXPECT_THROW(generate_xrage_block(p, {-1, 0, 0}, {4, 4, 4}), Error);
  // A thin block inside a valid one is rejected, not cut.
  const std::pair<Vec3i, Vec3i> whole_and_thin[] = {{{0, 0, 0}, {8, 8, 8}},
                                                    {{0, 0, 0}, {1, 8, 8}}};
  EXPECT_THROW(generate_xrage_blocks(p, whole_and_thin), Error);
  p.dims = {1, 8, 8};
  EXPECT_THROW(generate_xrage(p), Error);
  p = XrageParams{};
  p.domain_size = 0;
  EXPECT_THROW(generate_xrage(p), Error);
}

} // namespace
} // namespace eth::sim
