#pragma once
// Runtime-dispatched SIMD kernel table (DESIGN.md §14).
//
// Call sites keep their scalar loops verbatim and consult
// active_kernels() once per kernel invocation: a null table means
// ETH_SIMD=scalar (or no vector ISA) and the original scalar code runs
// unchanged; a non-null table provides drop-in vectorized equivalents
// with a bit-identical-output contract (lanes are independent elements,
// per-element op order matches the scalar expression exactly).
//
// Signatures are deliberately POD — raw pointers, floats and int64
// counts — so this header pulls in no renderer or pipeline types and
// the per-ISA translation units (simd_kernels_w4.cpp / _w8.cpp) stay
// leaf dependencies. All pointers are caller-validated; `n` counts
// elements, not bytes.

#include <cstdint>

namespace eth::simd {

/// POD view of a StructuredGrid + scalar Field, enough to reproduce
/// StructuredGrid::sample lane-wise.
struct GridView {
  const float* field = nullptr; ///< point scalars, x-fastest
  std::int32_t dims_x = 0, dims_y = 0, dims_z = 0;
  float org_x = 0, org_y = 0, org_z = 0;
  float sp_x = 0, sp_y = 0, sp_z = 0;
};

/// One row block of rays for march_iso, SoA with `count` <= table
/// width lanes (arrays sized >= width; inactive tail lanes zeroed).
struct MarchRays {
  int count = 0;
  float ox = 0, oy = 0, oz = 0;  ///< shared pinhole origin
  const float* dx = nullptr;     ///< unit direction components
  const float* dy = nullptr;
  const float* dz = nullptr;
  const float* t0 = nullptr;     ///< clip entry parameter
  const float* t_limit = nullptr;///< march bound (box exit or nearest slice)
  const unsigned char* active = nullptr; ///< 1 = march this lane
};

/// march_iso result: per-lane bisection bracket for hit lanes.
struct MarchHits {
  float* a = nullptr;        ///< bracket start (prev_t)
  float* b = nullptr;        ///< bracket end (t)
  float* va = nullptr;       ///< sample at bracket start
  unsigned char* hit = nullptr; ///< 1 = crossing found
  std::int64_t steps = 0;    ///< total ray_steps consumed (all lanes)
};

/// One SphereBVH node (render/ray/bvh.hpp stores its tree in this
/// layout). Depth-first order: an interior node's left child is the
/// next node.
struct BvhNode {
  float lo[3];                  ///< box corners
  float hi[3];
  std::int64_t right_or_first = 0; ///< interior: right child; leaf: first slot
  std::int64_t count = 0;          ///< spheres in a leaf; 0 for interior nodes
};

/// POD view of a non-empty SphereBVH: its nodes and its sphere centers
/// in leaf (slot) order, xyz interleaved, all spheres of one radius.
struct SphereBvhView {
  const BvhNode* nodes = nullptr;
  const float* centers = nullptr; ///< slot s at centers[3 * s .. 3 * s + 2]
  float radius = 0;
};

/// One packet of `count` <= width rays from a shared origin, SoA
/// (arrays sized >= count), all searched within (tmin, tmax).
struct SphereRays {
  int count = 0;
  float ox = 0, oy = 0, oz = 0;
  const float* dx = nullptr; ///< unit direction components
  const float* dy = nullptr;
  const float* dz = nullptr;
  float tmin = 0, tmax = 0;
};

/// sphere_packet result per lane (arrays sized >= count).
struct SphereHits {
  float* closest = nullptr;       ///< nearest accepted t, tmax on a miss
  std::int64_t* slot = nullptr;   ///< leaf-order slot of that sphere, -1 = miss
  std::int64_t* visited = nullptr; ///< nodes popped (incremented)
};

struct KernelTable {
  const char* name;  ///< ISA label: "sse2", "avx2", "neon", "generic4"
  int width;         ///< float lanes per pack

  /// Packet BVH traversal: every lane gets the (closest, slot) and node
  /// visit count of the scalar SphereBVH::intersect loop for its ray.
  /// Returns false when the 64-entry traversal stack would overflow.
  bool (*sphere_packet)(const SphereBvhView& bvh, const SphereRays& rays,
                        SphereHits& out);

  /// Lockstep isosurface march over <= width rays; mirrors the scalar
  /// march_iso loop up to (but excluding) bisection refinement, which
  /// the caller runs per hit lane on the returned bracket.
  void (*march_iso)(const GridView& grid, float isovalue, float step,
                    const MarchRays& rays, MarchHits& out);

  /// Depth-test merge (compositor merge_pair_range): rgba is 4 floats
  /// per pixel, src wins on strictly smaller depth.
  void (*depth_merge)(float* dst_rgba, float* dst_depth, const float* src_rgba,
                      const float* src_depth, std::int64_t n_pixels);

  /// Premultiplied front-to-back blend of one partial into out
  /// (alpha_composite_premultiplied inner statement over a pixel run).
  void (*premul_blend)(float* out_rgba, float* out_depth, const float* src_rgba,
                       const float* src_depth, std::int64_t n_pixels);

  /// Strided row gather (grid downsampling): dst[i] =
  /// src[min(i * stride, max_src)] for i in [0, n).
  void (*stride_copy)(const float* src, float* dst, std::int64_t n,
                      std::int64_t stride, std::int64_t max_src);
};

/// The 4-wide table (SSE2 / NEON / generic reference loops) — always
/// available.
const KernelTable* kernels_w4();

/// The 8-wide AVX2 table, or nullptr when this build has no AVX2 TU.
const KernelTable* kernels_w8();

/// Table for the resolved ISA (simd.hpp): nullptr when scalar.
const KernelTable* active_kernels();

} // namespace eth::simd
