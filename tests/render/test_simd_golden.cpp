// SimdGate (DESIGN.md §14): the SIMD kernel tables promise outputs
// bit-identical to the scalar loops they replace — not "close", equal
// under memcmp. Two layers enforce it here:
//
//  1. Per-kernel unit vectors: every table (w4 always, w8 when the
//     build has AVX2) runs against a scalar replica of the exact call
//     site expression on inputs chosen to hit the hard cases — tail
//     elements (n not a multiple of the width), partially-set lane
//     masks, boundary equalities, -0.0 and NaN payload bits that a
//     sloppy masked store or unordered compare would corrupt.
//
//  2. Full-harness mini-sweeps: HACC and xRAGE configurations run
//     end-to-end under ETH_SIMD=scalar and native at 1 and 8 pool
//     threads; final images memcmp-equal and every deterministic
//     counter identical per thread count.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/simd.hpp"
#include "common/simd_kernels.hpp"
#include "common/string_util.hpp"
#include "core/artifact_cache.hpp"
#include "core/harness.hpp"
#include "core/sweep.hpp"
#include "data/point_set.hpp"
#include "data/structured_grid.hpp"
#include "parallel/thread_pool.hpp"
#include "render/colormap.hpp"
#include "render/compositor.hpp"
#include "render/ray/bvh.hpp"
#include "render/ray/raycaster.hpp"

namespace eth {
namespace {

/// Pin the dispatched ISA for one scope; restores the ETH_SIMD
/// environment resolution on exit.
class ScopedIsa {
public:
  explicit ScopedIsa(const char* name) { simd::set_isa_override(name); }
  ~ScopedIsa() { simd::set_isa_override(nullptr); }

  ScopedIsa(const ScopedIsa&) = delete;
  ScopedIsa& operator=(const ScopedIsa&) = delete;
};

/// Swap the global pool for one with `threads` workers for this scope.
class ScopedPool {
public:
  explicit ScopedPool(unsigned threads) : pool_(threads) { set_global_pool(&pool_); }
  ~ScopedPool() { set_global_pool(nullptr); }

  ScopedPool(const ScopedPool&) = delete;
  ScopedPool& operator=(const ScopedPool&) = delete;

private:
  ThreadPool pool_;
};

/// Every vector table this build provides (unit vectors run against
/// each so AVX2 coverage does not depend on the dispatch default).
std::vector<const simd::KernelTable*> vector_tables() {
  std::vector<const simd::KernelTable*> tables{simd::kernels_w4()};
  if (simd::kernels_w8() != nullptr) tables.push_back(simd::kernels_w8());
  return tables;
}

bool bits_equal(const float* a, const float* b, std::size_t n) {
  return std::memcmp(a, b, n * sizeof(float)) == 0;
}

constexpr float kQnan = std::numeric_limits<float>::quiet_NaN();
constexpr float kInf = std::numeric_limits<float>::infinity();

TEST(SimdGateDispatch, TablesResolveAndLabel) {
  const simd::KernelTable* w4 = simd::kernels_w4();
  ASSERT_NE(w4, nullptr);
  EXPECT_EQ(w4->width, 4);
  if (const simd::KernelTable* w8 = simd::kernels_w8()) {
    EXPECT_EQ(w8->width, 8);
    EXPECT_STREQ(w8->name, "avx2");
  }
  {
    ScopedIsa scalar("scalar");
    EXPECT_EQ(simd::active_kernels(), nullptr);
    EXPECT_EQ(simd::isa_label(), "scalar");
  }
  {
    // `native` always lands on a vector table: the w4 reference build
    // exists on every platform.
    ScopedIsa native("native");
    const simd::KernelTable* table = simd::active_kernels();
    ASSERT_NE(table, nullptr);
    EXPECT_TRUE(table->width == 4 || table->width == 8);
    EXPECT_EQ(simd::isa_label(), std::string(table->name));
  }
}

// ------------------------------------------------------------ bvh packet

/// A thin x-slab of spheres, like one HACC rank's share. Every fifth
/// center repeats the previous one, so equal-t ties must go to the
/// lowest slot. The first center sits at x = radius, which puts the
/// root box's lo.x face exactly on the plane x = 0.
std::vector<Vec3f> slab_centers(Index n, float radius, unsigned seed) {
  Rng rng(seed);
  std::vector<Vec3f> centers{{radius, 0.1f, -0.2f}};
  for (Index i = 1; i < n; ++i) {
    if (i % 5 == 4) {
      centers.push_back(centers.back());
      continue;
    }
    centers.push_back({radius + Real(rng.uniform(0, 0.6)), Real(rng.uniform(-2, 2)),
                       Real(rng.uniform(-2, 2))});
  }
  return centers;
}

/// Primary rays from `origin`. The first rays have exact zero (and one
/// -0.0) direction components; from an origin on the plane x = 0, those
/// with d.x = 0 run inside the slab's lo.x face plane, where the slab
/// test meets 0 * inf = NaN.
std::vector<Ray> fan_rays(Vec3f origin, int n, unsigned seed) {
  std::vector<Ray> rays = {
      {origin, {0, 0, 1}},
      {origin, normalize(Vec3f{0, 0.1f, 1})},
      {origin, normalize(Vec3f{0.05f, 0, 1})},
      {origin, normalize(Vec3f{-0.0f, -0.2f, 1})},
      {origin, normalize(Vec3f{0.04f, 0.3f, 1})},
      {origin, {0, 1, 0}},
  };
  Rng rng(seed);
  while (static_cast<int>(rays.size()) < n)
    rays.push_back({origin, normalize(Vec3f{Real(rng.uniform(-0.1, 0.2)),
                                            Real(rng.uniform(-0.4, 0.4)), 1})});
  return rays;
}

/// Every packet of 1..width consecutive rays, at every table, against
/// SphereBVH::intersect ray by ray: the kernel's per-lane (closest,
/// slot-validity, visits) and intersect_packet's (t, primitive, normal)
/// bit for bit, and the visits it adds to the counters.
void expect_packets_match(const SphereBVH& bvh, const std::vector<Ray>& rays) {
  const float tmin = 0.01f, tmax = 100.0f;
  std::vector<SphereHit> ref(rays.size());
  std::vector<Index> ref_visits(rays.size());
  for (std::size_t r = 0; r < rays.size(); ++r) {
    cluster::PerfCounters c;
    ref[r] = bvh.intersect(rays[r], tmin, tmax, c);
    ref_visits[r] = c.bvh_nodes_visited;
  }

  for (const simd::KernelTable* table : vector_tables()) {
    for (int count = 1; count <= table->width; ++count) {
      for (std::size_t first = 0; first + std::size_t(count) <= rays.size();
           first += std::size_t(count)) {
        const std::string what = std::string(table->name) + " lanes=" +
                                 std::to_string(count) + " first=" +
                                 std::to_string(first);
        const Ray* packet = rays.data() + first;
        SphereHit hits[SphereBVH::kMaxPacket];
        cluster::PerfCounters counters;
        bvh.intersect_packet(*table, packet, count, tmin, tmax, hits, counters);
        Index visits = 0;
        for (int l = 0; l < count; ++l) {
          const SphereHit& want = ref[first + std::size_t(l)];
          visits += ref_visits[first + std::size_t(l)];
          EXPECT_TRUE(bits_equal(&hits[l].t, &want.t, 1)) << what << " lane " << l;
          EXPECT_EQ(hits[l].primitive, want.primitive) << what << " lane " << l;
          EXPECT_TRUE(bits_equal(&hits[l].normal.x, &want.normal.x, 3))
              << what << " lane " << l;
        }
        EXPECT_EQ(counters.bvh_nodes_visited, visits) << what;

        if (bvh.empty()) continue;
        float dx[8] = {}, dy[8] = {}, dz[8] = {}, closest[8] = {};
        std::int64_t slot[8] = {}, visited[8] = {};
        for (int l = 0; l < count; ++l) {
          dx[l] = packet[l].direction.x;
          dy[l] = packet[l].direction.y;
          dz[l] = packet[l].direction.z;
        }
        const Vec3f o = packet[0].origin;
        const simd::SphereRays in{count, o.x, o.y, o.z, dx, dy, dz, tmin, tmax};
        simd::SphereHits out{closest, slot, visited};
        ASSERT_TRUE(table->sphere_packet(bvh.kernel_view(), in, out)) << what;
        for (int l = 0; l < count; ++l) {
          const SphereHit& want = ref[first + std::size_t(l)];
          EXPECT_EQ(visited[l], ref_visits[first + std::size_t(l)])
              << what << " lane " << l;
          EXPECT_EQ(slot[l] >= 0, want.valid()) << what << " lane " << l;
          const float want_t = want.valid() ? want.t : tmax;
          EXPECT_TRUE(bits_equal(&closest[l], &want_t, 1)) << what << " lane " << l;
        }
      }
    }
  }
}

TEST(SimdGateKernels, SpherePacketMatchesScalarTraversal) {
  const float radius = 0.05f;
  const std::vector<Vec3f> centers = slab_centers(700, radius, 3);
  const std::vector<Ray> rays = fan_rays({0, 0, -6}, 64, 5);
  int hits = 0;
  for (const int leaf : {1, 4, 64}) {
    SCOPED_TRACE("max_leaf_size " + std::to_string(leaf));
    const SphereBVH bvh(centers, radius, SphereBVH::SplitMethod::kBinnedSAH, leaf);
    ASSERT_EQ(bvh.bounds().lo.x, 0.0f) << "the face-plane rays need lo.x == 0";
    expect_packets_match(bvh, rays);
    // From inside the slab: spheres behind the origin, and one holding it.
    expect_packets_match(bvh, fan_rays(centers[0], 24, 11));
    cluster::PerfCounters c;
    for (const Ray& ray : rays) hits += bvh.intersect(ray, 0.01f, 100.0f, c).valid();
  }
  EXPECT_GT(hits, 30) << "the scene must produce hits";

  SCOPED_TRACE("one sphere");
  const std::vector<Vec3f> one{{radius, 0, 0}};
  expect_packets_match(SphereBVH(one, radius), fan_rays({0, 0, -6}, 16, 7));
  SCOPED_TRACE("empty tree");
  expect_packets_match(SphereBVH(std::span<const Vec3f>{}, radius),
                       fan_rays({0, 0, -6}, 16, 9));
}

TEST(SimdGateKernels, SpherePacketLeafEdgeCases) {
  // One hand-built leaf of 11 spheres (no tree is built over a NaN
  // center): hits, misses (disc < 0), roots behind the origin, a sphere
  // holding the origin (far root) and a NaN center (scalar: NaN t fails
  // `t > 0`; vector: NaN disc fails the ordered `disc >= 0`). Packets of
  // 1..width lanes run the leaf loop with every active-lane mask size.
  const float radius = 0.5f, tmin = 0.1f, tmax = 100.0f;
  const std::vector<Vec3f> centers = {
      {0, 0, 0},      {0.2f, 0.1f, 2},  {5, 5, 5},      {0, 0, -20},
      {0.45f, 0, 1},  {0, 0, -4.8f},    {kQnan, 0, 3},  {0, 0.2f, 4},
      {0, 0, 0.001f}, {-0.3f, 0.3f, 6}, {0.1f, -0.1f, 8}};
  std::vector<float> xyz;
  for (const Vec3f& c : centers) xyz.insert(xyz.end(), {c.x, c.y, c.z});
  simd::BvhNode leaf;
  for (int a = 0; a < 3; ++a) {
    leaf.lo[a] = -50;
    leaf.hi[a] = 50;
  }
  leaf.count = static_cast<std::int64_t>(centers.size());
  const simd::SphereBvhView view{&leaf, xyz.data(), radius};
  const Vec3f o{0, 0, -5};
  const Vec3f dirs[8] = {{0, 0, 1},
                         normalize(Vec3f{0.05f, 0.02f, 1}),
                         {0, 0, -1},
                         normalize(Vec3f{-0.06f, 0.06f, 1}),
                         normalize(Vec3f{0.1f, 0, 1}),
                         normalize(Vec3f{1, 1, 0.2f}),
                         normalize(Vec3f{0.02f, -0.02f, 1}),
                         normalize(Vec3f{0, 0.04f, 1})};
  float want_t[8];
  std::int64_t want_slot[8];
  int hits = 0;
  for (int l = 0; l < 8; ++l) { // scalar replica of the SphereBVH leaf loop
    want_t[l] = tmax;
    want_slot[l] = -1;
    for (std::size_t i = 0; i < centers.size(); ++i) {
      const Real t = ray_sphere({o, dirs[l]}, centers[i], radius, tmin, want_t[l]);
      if (t > 0) {
        want_t[l] = t;
        want_slot[l] = static_cast<std::int64_t>(i);
      }
    }
    hits += want_slot[l] >= 0;
  }
  ASSERT_GT(hits, 4) << "the leaf must produce hits";

  for (const simd::KernelTable* table : vector_tables()) {
    for (int count = 1; count <= table->width; ++count) {
      float dx[8] = {}, dy[8] = {}, dz[8] = {}, closest[8] = {};
      std::int64_t slot[8] = {}, visited[8] = {};
      for (int l = 0; l < count; ++l) {
        dx[l] = dirs[l].x;
        dy[l] = dirs[l].y;
        dz[l] = dirs[l].z;
      }
      const simd::SphereRays in{count, o.x, o.y, o.z, dx, dy, dz, tmin, tmax};
      simd::SphereHits out{closest, slot, visited};
      ASSERT_TRUE(table->sphere_packet(view, in, out));
      for (int l = 0; l < count; ++l) {
        const std::string what = std::string(table->name) + " lanes=" +
                                 std::to_string(count) + " lane " + std::to_string(l);
        EXPECT_TRUE(bits_equal(&closest[l], &want_t[l], 1)) << what;
        EXPECT_EQ(slot[l], want_slot[l]) << what;
        EXPECT_EQ(visited[l], 1) << what;
      }
    }
  }
}

// ------------------------------------------------------------ iso march

std::shared_ptr<StructuredGrid> wavy_grid(Index dim) {
  const Vec3f spacing{Real(3) / Real(dim - 1), Real(3) / Real(dim - 1),
                      Real(3) / Real(dim - 1)};
  auto grid = std::make_shared<StructuredGrid>(Vec3i{int(dim), int(dim), int(dim)},
                                               Vec3f{-1.5f, -1.5f, -1.5f}, spacing);
  Field& f = grid->add_scalar_field("v");
  for (Index k = 0; k < dim; ++k)
    for (Index j = 0; j < dim; ++j)
      for (Index i = 0; i < dim; ++i) {
        const Vec3f p = grid->point_position(i, j, k);
        f.set(grid->point_index(i, j, k),
              std::sin(Real(2.1) * p.x) * std::cos(Real(1.7) * p.y) +
                  Real(0.4) * p.z);
      }
  return grid;
}

struct MarchRef {
  float a = 0, b = 0, va = 0;
  unsigned char hit = 0;
  std::int64_t steps = 0;
};

/// Scalar replica of the raycaster march loop up to (not including)
/// bisection — the exact contract of KernelTable::march_iso.
MarchRef march_reference(const StructuredGrid& grid, const Field& field, Vec3f o,
                         Vec3f d, float t0, float t_limit, float iso, float step) {
  MarchRef r;
  Real prev_t = t0 + Real(1e-6);
  Real prev_v = grid.sample(field, o + d * prev_t);
  for (Real t = prev_t + step; t <= t_limit;) {
    ++r.steps;
    const Real v = grid.sample(field, o + d * t);
    if ((prev_v - iso) * (v - iso) <= 0 && prev_v != v) {
      r.a = prev_t;
      r.b = t;
      r.va = prev_v;
      r.hit = 1;
      return r;
    }
    prev_t = t;
    prev_v = v;
    t += step;
  }
  return r;
}

simd::GridView make_view(const StructuredGrid& grid, const Field& field) {
  simd::GridView view{};
  const Vec3i d = grid.dims();
  const Vec3f org = grid.origin(), sp = grid.spacing();
  view.field = field.values().data();
  view.dims_x = std::int32_t(d.x);
  view.dims_y = std::int32_t(d.y);
  view.dims_z = std::int32_t(d.z);
  view.org_x = org.x;
  view.org_y = org.y;
  view.org_z = org.z;
  view.sp_x = sp.x;
  view.sp_y = sp.y;
  view.sp_z = sp.z;
  return view;
}

void expect_march_matches(const StructuredGrid& grid, const Field& field) {
  const float iso = 0.3f;
  const Vec3f sp = grid.spacing();
  const float step = std::min({sp.x, sp.y, sp.z});
  const simd::GridView view = make_view(grid, field);
  const Vec3f origin{-2.5f, 0.12f, 0.07f};

  for (const simd::KernelTable* table : vector_tables()) {
    const int W = table->width;
    // count < width exercises the tail lanes; lane 2 is inactive to
    // exercise a hole in the mask. Lane 3 gets a tiny t_limit so it
    // dies on the first bound check.
    const int count = W - 1;
    float dx[8], dy[8], dz[8], t0[8], tl[8];
    float ha[8], hb[8], hva[8];
    unsigned char act[8], hit[8];
    for (int l = 0; l < 8; ++l) {
      dx[l] = dy[l] = dz[l] = t0[l] = tl[l] = 0;
      act[l] = hit[l] = 0;
    }
    for (int l = 0; l < count; ++l) {
      const Vec3f dir = normalize(
          Vec3f{1.0f, Real(0.08) * Real(l - 1), Real(-0.05) * Real(l)});
      dx[l] = dir.x;
      dy[l] = dir.y;
      dz[l] = dir.z;
      t0[l] = 0.4f + 0.03f * float(l);
      tl[l] = l == 3 ? 0.45f : 6.0f;
      act[l] = l == 2 ? 0 : 1;
    }

    simd::MarchRays rays;
    rays.count = count;
    rays.ox = origin.x;
    rays.oy = origin.y;
    rays.oz = origin.z;
    rays.dx = dx;
    rays.dy = dy;
    rays.dz = dz;
    rays.t0 = t0;
    rays.t_limit = tl;
    rays.active = act;
    simd::MarchHits hits;
    hits.a = ha;
    hits.b = hb;
    hits.va = hva;
    hits.hit = hit;
    table->march_iso(view, iso, step, rays, hits);

    std::int64_t ref_steps = 0;
    int ref_hits = 0;
    for (int l = 0; l < count; ++l) {
      if (act[l] == 0) {
        EXPECT_EQ(hit[l], 0) << table->name << " lane " << l;
        continue;
      }
      const MarchRef ref = march_reference(grid, field, origin, {dx[l], dy[l], dz[l]},
                                           t0[l], tl[l], iso, step);
      ref_steps += ref.steps;
      ref_hits += ref.hit;
      ASSERT_EQ(hit[l], ref.hit) << table->name << " lane " << l;
      if (ref.hit != 0) {
        EXPECT_TRUE(bits_equal(&ha[l], &ref.a, 1)) << table->name << " lane " << l;
        EXPECT_TRUE(bits_equal(&hb[l], &ref.b, 1)) << table->name << " lane " << l;
        EXPECT_TRUE(bits_equal(&hva[l], &ref.va, 1))
            << table->name << " lane " << l;
      }
    }
    EXPECT_EQ(hits.steps, ref_steps) << table->name;
    EXPECT_GT(ref_hits, 0) << "march scene must produce at least one hit";
  }
}

TEST(SimdGateKernels, MarchIsoMatchesScalarLoop) {
  const auto grid = wavy_grid(14);
  const Field& field = grid->point_fields().get("v");
  expect_march_matches(*grid, field);
}

// ----------------------------------------------------------- depth merge

TEST(SimdGateKernels, DepthMergeMatchesScalarLoop) {
  // n = 13: one full w8 block, one full w4 block, scalar tail for both.
  // Depth ties keep dst (strict <); NaN src depth never wins; NaN color
  // payloads copy through bit-exactly.
  const std::int64_t n = 13;
  std::vector<float> dst_rgba(4 * n), src_rgba(4 * n);
  std::vector<float> dst_depth(n), src_depth(n);
  for (std::int64_t p = 0; p < n; ++p) {
    for (int c = 0; c < 4; ++c) {
      dst_rgba[4 * p + c] = 0.1f * float(p) + 0.01f * float(c);
      src_rgba[4 * p + c] = -0.2f * float(p) - 0.02f * float(c);
    }
    dst_depth[p] = 5.0f;
    src_depth[p] = (p % 3 == 0) ? 2.0f : 7.0f;
  }
  src_rgba[4 * 0 + 1] = kQnan; // NaN payload on a winning pixel
  src_rgba[4 * 0 + 2] = -0.0f;
  src_depth[4] = 5.0f;  // exact tie: dst keeps
  src_depth[7] = kQnan; // NaN depth: ordered compare keeps dst
  src_depth[12] = kInf;
  dst_depth[9] = -kInf; // dst already in front of everything

  for (const simd::KernelTable* table : vector_tables()) {
    std::vector<float> rgba = dst_rgba, depth = dst_depth;
    std::vector<float> ref_rgba = dst_rgba, ref_depth = dst_depth;
    table->depth_merge(rgba.data(), depth.data(), src_rgba.data(),
                       src_depth.data(), n);
    for (std::int64_t p = 0; p < n; ++p) {
      if (src_depth[p] < ref_depth[p]) {
        ref_depth[p] = src_depth[p];
        std::memcpy(&ref_rgba[4 * p], &src_rgba[4 * p], 4 * sizeof(float));
      }
    }
    EXPECT_TRUE(bits_equal(rgba.data(), ref_rgba.data(), rgba.size()))
        << table->name;
    EXPECT_TRUE(bits_equal(depth.data(), ref_depth.data(), depth.size()))
        << table->name;
  }
}

// ---------------------------------------------------------- alpha blends

TEST(SimdGateKernels, PremulBlendMatchesScalarLoop) {
  const std::int64_t n = 13;
  std::vector<float> out_rgba(4 * n), src_rgba(4 * n);
  std::vector<float> out_depth(n, 4.0f), src_depth(n);
  for (std::int64_t p = 0; p < n; ++p) {
    for (int c = 0; c < 4; ++c) {
      out_rgba[4 * p + c] = 0.05f * float(p + c);
      src_rgba[4 * p + c] = 0.03f * float(p) + 0.2f * float(c);
    }
    src_depth[p] = (p % 2 == 0) ? 1.5f : 9.0f;
  }
  src_rgba[4 * 1 + 3] = 0.0f;  // sw == 0: skipped pixel
  src_rgba[4 * 5 + 3] = -0.5f; // sw < 0: skipped pixel
  src_rgba[4 * 8 + 3] = kQnan; // NaN alpha: `sw <= 0` is false, blends
  out_rgba[4 * 3 + 0] = -0.0f; // sign bit must survive the skip path

  for (const simd::KernelTable* table : vector_tables()) {
    std::vector<float> rgba = out_rgba, depth = out_depth;
    std::vector<float> ref_rgba = out_rgba, ref_depth = out_depth;
    table->premul_blend(rgba.data(), depth.data(), src_rgba.data(),
                        src_depth.data(), n);
    for (std::int64_t p = 0; p < n; ++p) {
      const float sw = src_rgba[4 * p + 3];
      if (sw <= 0) continue;
      const float trans = 1.0f - ref_rgba[4 * p + 3];
      for (int c = 0; c < 4; ++c)
        ref_rgba[4 * p + c] = ref_rgba[4 * p + c] + src_rgba[4 * p + c] * trans;
      if (src_depth[p] < ref_depth[p]) ref_depth[p] = src_depth[p];
    }
    EXPECT_TRUE(bits_equal(rgba.data(), ref_rgba.data(), rgba.size()))
        << table->name;
    EXPECT_TRUE(bits_equal(depth.data(), ref_depth.data(), depth.size()))
        << table->name;
  }
}

// ------------------------------------------------------- stride gather

TEST(SimdGateKernels, StrideCopyMatchesScalarLoop) {
  const std::int64_t n = 9, stride = 3, max_src = 20;
  std::vector<float> src(std::size_t(max_src) + 1);
  for (std::size_t i = 0; i < src.size(); ++i) src[i] = 1.0f / float(i + 1);
  src[6] = kQnan;   // gathered bit pattern must survive
  src[20] = -0.0f;  // clamp target

  std::vector<float> ref(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i)
    ref[std::size_t(i)] = src[std::size_t(std::min(i * stride, max_src))];

  for (const simd::KernelTable* table : vector_tables()) {
    std::vector<float> dst(std::size_t(n), 99.0f);
    table->stride_copy(src.data(), dst.data(), n, stride, max_src);
    EXPECT_TRUE(bits_equal(dst.data(), ref.data(), dst.size())) << table->name;
  }
}

// ------------------------------------------------- full-harness sweeps

/// Keep the artifact cache out of the comparison: a cached BVH or
/// filter output produced under one ISA would be replayed under the
/// other and mask a divergence.
class CacheOffGuard {
public:
  CacheOffGuard() : was_enabled_(global_artifact_cache().enabled()) {
    global_artifact_cache().set_enabled(false);
    global_artifact_cache().clear();
  }
  ~CacheOffGuard() {
    global_artifact_cache().set_enabled(was_enabled_);
    global_artifact_cache().clear();
  }

private:
  bool was_enabled_;
};

ExperimentSpec hacc_spec() {
  ExperimentSpec spec;
  spec.name = "simd-gate-hacc";
  spec.application = Application::kHacc;
  spec.hacc.num_particles = 2500;
  spec.hacc.num_halos = 6;
  spec.viz.algorithm = insitu::VizAlgorithm::kRaycastSpheres;
  spec.viz.image_width = 32;
  spec.viz.image_height = 32;
  spec.viz.images_per_timestep = 2;
  spec.timesteps = 2;
  spec.layout.nodes = 2;
  spec.layout.ranks = 2;
  return spec;
}

ExperimentSpec xrage_spec() {
  ExperimentSpec spec;
  spec.name = "simd-gate-xrage";
  spec.application = Application::kXrage;
  spec.xrage.dims = {18, 14, 12};
  spec.viz.algorithm = insitu::VizAlgorithm::kRaycastVolume;
  spec.viz.image_width = 24;
  spec.viz.image_height = 24;
  spec.viz.images_per_timestep = 1;
  spec.timesteps = 2;
  spec.layout.nodes = 2;
  spec.layout.ranks = 2;
  return spec;
}

std::vector<SweepPoint> sampling_sweep(const ExperimentSpec& base) {
  // ratio 0.5 routes the grid/point data through SpatialSampler, whose
  // stride rows run the stride_copy kernel.
  return sweep_over<double>(
      base, {1.0, 0.5},
      [](const double& r) { return strprintf("s%.2f", r); },
      [](const double& r, ExperimentSpec& spec) { spec.viz.sampling_ratio = r; });
}

void expect_counters_identical(const cluster::PerfCounters& a,
                               const cluster::PerfCounters& b,
                               const std::string& what) {
  EXPECT_EQ(a.elements_processed, b.elements_processed) << what;
  EXPECT_EQ(a.primitives_emitted, b.primitives_emitted) << what;
  EXPECT_EQ(a.rays_cast, b.rays_cast) << what;
  EXPECT_EQ(a.ray_steps, b.ray_steps) << what;
  EXPECT_EQ(a.bvh_nodes_visited, b.bvh_nodes_visited) << what;
  EXPECT_EQ(a.flop_estimate, b.flop_estimate) << what;
  EXPECT_EQ(a.bytes_read, b.bytes_read) << what;
  EXPECT_EQ(a.bytes_written, b.bytes_written) << what;
  EXPECT_EQ(a.bytes_communicated, b.bytes_communicated) << what;
  EXPECT_EQ(a.max_parallel_items, b.max_parallel_items) << what;
}

/// Run the sweep under ETH_SIMD=scalar and native at each thread count;
/// per thread count the scalar run is the golden reference the native
/// run must reproduce bit for bit.
void expect_simd_equivalence(const ExperimentSpec& base) {
  CacheOffGuard cache_off;
  const std::vector<SweepPoint> points = sampling_sweep(base);
  const Harness harness;

  for (const unsigned threads : {1u, 8u}) {
    ScopedPool pool(threads);

    std::vector<SweepOutcome> scalar_run, native_run;
    {
      ScopedIsa isa("scalar");
      scalar_run = run_sweep(harness, points);
    }
    {
      ScopedIsa isa("native");
      native_run = run_sweep(harness, points);
    }

    ASSERT_EQ(scalar_run.size(), native_run.size());
    for (std::size_t i = 0; i < scalar_run.size(); ++i) {
      const std::string what = base.name + " point " + scalar_run[i].label +
                               " at " + std::to_string(threads) + " threads";
      ASSERT_TRUE(scalar_run[i].result.final_image.has_value()) << what;
      ASSERT_TRUE(native_run[i].result.final_image.has_value()) << what;
      const auto golden = pack_image(*scalar_run[i].result.final_image);
      const auto native = pack_image(*native_run[i].result.final_image);
      ASSERT_EQ(golden.size(), native.size()) << what;
      EXPECT_EQ(std::memcmp(golden.data(), native.data(), golden.size()), 0)
          << "image differs: " << what;
      expect_counters_identical(scalar_run[i].result.counters,
                                native_run[i].result.counters, what);
    }

    // Entire robustness tables — frame accounting, cache columns (all
    // zero with the cache disabled) and every other column — match.
    const ResultTable a = robustness_table("point", scalar_run);
    const ResultTable b = robustness_table("point", native_run);
    ASSERT_EQ(a.columns(), b.columns());
    ASSERT_EQ(a.num_rows(), b.num_rows());
    for (std::size_t row = 0; row < a.num_rows(); ++row)
      for (std::size_t col = 0; col < a.num_columns(); ++col)
        EXPECT_EQ(a.cell(row, col), b.cell(row, col))
            << base.name << " " << threads << " threads row=" << row
            << " col=" << a.columns()[col];
  }
}

// ------------------------------------------------------ sphere raycaster

/// shade_headlight (render/ray/raycaster.cpp), copied so the oracle does
/// not share shading code with the renderer it checks.
Vec4f headlight(Vec3f normal, Vec3f ray_dir, Vec4f base, Real ambient) {
  const Real ndotl = std::abs(dot(normal, ray_dir));
  const Real lit = ambient + (Real(1) - ambient) * clamp(ndotl, Real(0), Real(1));
  return {base.x * lit, base.y * lit, base.z * lit, base.w};
}

/// render_spheres as one serial loop over every pixel of the frame:
/// SphereBVH::intersect per ray, no screen rectangle, no packets.
void oracle_render(const RaycastRenderer& renderer, const PointSet& points,
                   const Camera& camera, ImageBuffer& image,
                   const SphereRaycastOptions& options,
                   cluster::PerfCounters& counters) {
  const SphereBVH& bvh = renderer.sphere_bvh();
  const Field* scalars = options.colormap != nullptr
                             ? &points.point_fields().get(options.scalar_field)
                             : nullptr;
  const CameraFrame frame = camera.frame(image.width(), image.height());
  cluster::PerfCounters kernel;
  for (Index py = 0; py < image.height(); ++py)
    for (Index px = 0; px < image.width(); ++px) {
      const Ray ray = frame.ray(px, py);
      ++kernel.rays_cast;
      if (bvh.empty()) continue;
      const SphereHit hit = bvh.intersect(ray, camera.znear(), camera.zfar(), kernel);
      if (!hit.valid()) continue;
      const Vec4f base = scalars != nullptr
                             ? options.colormap->map(scalars->get(hit.primitive))
                             : options.uniform_color;
      image.depth_test_set(px, py,
                           headlight(hit.normal, ray.direction, base, options.ambient),
                           camera.eye_depth(ray.origin + ray.direction * hit.t));
    }
  kernel.flop_estimate += double(kernel.rays_cast) * 40.0;
  kernel.max_parallel_items = image.width() * image.height();
  counters.merge(kernel);
}

std::shared_ptr<PointSet> sphere_cloud(Index n, Vec3f lo, Vec3f hi, unsigned seed) {
  auto points = std::make_shared<PointSet>(n);
  Field speed("speed", n, 1);
  Rng rng(seed);
  for (Index i = 0; i < n; ++i) {
    points->set_position(i, {Real(rng.uniform(lo.x, hi.x)), Real(rng.uniform(lo.y, hi.y)),
                             Real(rng.uniform(lo.z, hi.z))});
    speed.set(i, Real(rng.uniform()));
  }
  points->point_fields().add(std::move(speed));
  return points;
}

/// Spheres of radius `spacing` / 2 on a grid: neighbours touch, so the
/// outermost spheres reach the root box's faces.
std::shared_ptr<PointSet> sphere_grid(Vec3f origin, Vec3i counts, Real spacing) {
  auto points = std::make_shared<PointSet>();
  for (int k = 0; k < counts.z; ++k)
    for (int j = 0; j < counts.y; ++j)
      for (int i = 0; i < counts.x; ++i)
        points->push_back(origin + Vec3f{Real(i), Real(j), Real(k)} * spacing);
  Field speed("speed", points->num_points(), 1);
  for (Index i = 0; i < points->num_points(); ++i) speed.set(i, Real(i % 7) / Real(6));
  points->point_fields().add(std::move(speed));
  return points;
}

struct SphereScene {
  std::string name;
  std::shared_ptr<PointSet> points;
  Camera camera;
  bool colormapped = true;
};

std::vector<SphereScene> sphere_scenes() {
  const auto cube = sphere_cloud(600, {-1, -1, -1}, {1, 1, 1}, 21);
  const Vec3f up{0, 1, 0};
  return {
      // One rank's slab of a framed domain: a narrow screen strip.
      {"slab", sphere_cloud(500, {0.2f, -2, -2}, {0.45f, 2, 2}, 23),
       Camera::framing(AABB::of({-2, -2, -2}, {2, 2, 2}),
                       normalize(Vec3f{0.3f, -0.2f, -1}))},
      {"camera inside the root box", cube,
       Camera({0, 0, 0}, {0.1f, 0.05f, 1}, up, 0.9f, 0.01f, 100), false},
      // A wall of spheres beside the eye, running from behind it to far
      // in front: only the edges crossing the eye plane bound its image
      // towards the frame's left edge.
      {"root box straddling the eye plane",
       sphere_grid({-1, -1, -3}, {1, 13, 38}, 0.16f),
       Camera({0, 0, 0}, {0, 0, -1}, up, 0.9f, 0.01f, 100)},
      // Face-on through a long lens: the outer spheres' silhouettes come
      // within a small fraction of a pixel of the projected root box.
      {"root box edge through a long lens",
       sphere_grid({-0.72f, -0.56f, 0}, {10, 8, 2}, 0.16f),
       Camera({0.03f, 0.02f, 30}, {0.03f, 0.02f, 0}, up, 0.08f, 1, 100)},
      {"root box across the frame edge", cube,
       Camera({1.5f, 0.8f, 6}, {1.5f, 0.8f, 0}, up, 0.6f, 0.1f, 100), false},
      {"root box off screen", cube, Camera({0, 0, 8}, {6, 0, 0}, up, 0.6f, 0.1f, 100)},
      {"empty tree", std::make_shared<PointSet>(),
       Camera({0, 0, 8}, {0, 0, 0}, up, 0.6f, 0.1f, 100), false},
  };
}

TEST(SimdGateRender, SphereRaycastMatchesPerPixelOracle) {
  const TransferFunction tf = TransferFunction::viridis();
  for (const SphereScene& scene : sphere_scenes()) {
    SphereRaycastOptions options;
    options.world_radius = 0.08f;
    if (scene.colormapped) {
      options.colormap = &tf;
      options.scalar_field = "speed";
    }
    RaycastRenderer renderer;
    cluster::PerfCounters build;
    renderer.build_spheres(*scene.points, options, build);
    for (const auto& [width, height] : {std::pair<Index, Index>{37, 29}, {48, 40}}) {
      ImageBuffer want(width, height);
      cluster::PerfCounters want_counters;
      oracle_render(renderer, *scene.points, scene.camera, want, options, want_counters);
      for (const char* isa : {"scalar", "native"}) {
        ScopedIsa pin(isa);
        for (const unsigned threads : {1u, 2u, 8u}) {
          ScopedPool pool(threads);
          const std::string what = scene.name + " " + std::to_string(width) + "x" +
                                   std::to_string(height) + " " + isa + " " +
                                   std::to_string(threads) + " threads";
          ImageBuffer got(width, height);
          cluster::PerfCounters counters;
          renderer.render_spheres(*scene.points, scene.camera, got, options, counters);
          EXPECT_EQ(std::memcmp(got.colors().data(), want.colors().data(),
                                want.colors().size() * sizeof(Vec4f)),
                    0)
              << "colors differ: " << what;
          EXPECT_TRUE(bits_equal(got.depths().data(), want.depths().data(),
                                 want.depths().size()))
              << "depths differ: " << what;
          expect_counters_identical(want_counters, counters, what);
        }
      }
    }
  }
}

TEST(SimdGateHarness, HaccSphereSweepScalarVsNative) {
  expect_simd_equivalence(hacc_spec());
}

TEST(SimdGateHarness, XrageVolumeSweepScalarVsNative) {
  expect_simd_equivalence(xrage_spec());
}

} // namespace
} // namespace eth
