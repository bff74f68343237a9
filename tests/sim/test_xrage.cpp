#include "sim/xrage_generator.hpp"

#include <gtest/gtest.h>

#include <cstring>

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
  const auto r0 = generate_xrage_rank(p, 0, 2);
  const auto r1 = generate_xrage_rank(p, 1, 2);
  // r0 covers z in [0, 11), r1 covers [10, 20): one plane of overlap.
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

TEST(XrageGenerator, RejectsBadBlocksAndParams) {
  XrageParams p;
  p.dims = {8, 8, 8};
  EXPECT_THROW(generate_xrage_block(p, {0, 0, 0}, {1, 8, 8}), Error); // too thin
  EXPECT_THROW(generate_xrage_block(p, {0, 0, 0}, {9, 8, 8}), Error); // out of range
  EXPECT_THROW(generate_xrage_block(p, {-1, 0, 0}, {4, 4, 4}), Error);
  p.dims = {1, 8, 8};
  EXPECT_THROW(generate_xrage(p), Error);
  p = XrageParams{};
  p.domain_size = 0;
  EXPECT_THROW(generate_xrage(p), Error);
}

} // namespace
} // namespace eth::sim
