#pragma once
// Width-templated bodies for the KernelTable entries, included ONLY by
// the per-ISA translation units (simd_kernels_w4.cpp / _w8.cpp). Each
// TU instantiates its own width so the symbols stay distinct — an
// AVX2-compiled instantiation can never be COMDAT-folded into the
// baseline table (which would jump VEX-encoded code on a pre-AVX CPU).
//
// Every kernel mirrors one scalar loop in the codebase EXPRESSION BY
// EXPRESSION — same association, same compares, same select structure —
// which with -ffp-contract=off and the vertical-ops-only pack contract
// makes the outputs bit-identical to the scalar path. Comments name the
// mirrored loop; when editing one side, edit the other.

#include <bit>
#include <cstring>

#include "common/simd.hpp"
#include "common/simd_kernels.hpp"

namespace eth::simd::impl {

// ---------------------------------------------------------- bvh packet
// Mirrors SphereBVH::intersect (src/render/ray/bvh.cpp) for up to W rays
// from one origin. One depth-first stack of (node, lane bits), pushed
// right child first like the scalar loop, visits for every lane exactly
// the nodes its scalar loop visits, in the same order: a node carries
// the lanes that entered its parent, and a lane's running `closest`
// changes only in leaves that lane entered. So every lane sees the
// scalar slab tests, leaf tests and visit count.
template <int W>
bool sphere_packet(const SphereBvhView& bvh, const SphereRays& rays,
                   SphereHits& out) {
  using pf = pack<float, W>;
  using mask = typename pf::mask;

  // Lanes past `count` trace a copy of lane 0; their bits are never set.
  float dir[3][W];
  float closest[W], roots[W] = {};
  std::int64_t slot[W], visited[W] = {};
  for (int l = 0; l < W; ++l) {
    const int src = l < rays.count ? l : 0;
    dir[0][l] = rays.dx[src];
    dir[1][l] = rays.dy[src];
    dir[2][l] = rays.dz[src];
    closest[l] = rays.tmax;
    slot[l] = -1;
  }
  const float o[3] = {rays.ox, rays.oy, rays.oz};
  const pf zerov = pf::zero();
  const pf tminv = pf::broadcast(rays.tmin);
  pf d[3], inv_d[3];
  mask negative[3];
  for (int a = 0; a < 3; ++a) {
    d[a] = pf::load(dir[a]);
    inv_d[a] = pf::broadcast(1.0f) / d[a];
    negative[a] = inv_d[a] < zerov;
  }
  pf closest_v = pf::load(closest);
  const float rr = bvh.radius * bvh.radius;

  // AABB::hit(o, inv_d, tmin, closest) per lane. The scalar test returns
  // at the first failing axis; the running bounds past that point no
  // longer matter, so AND-ing the three axis verdicts is exact.
  const auto enters = [&](const BvhNode& node) {
    pf lo_t = tminv, hi_t = closest_v;
    const auto slab = [&](int a) {
      const pf t_lo = pf::broadcast(node.lo[a] - o[a]) * inv_d[a];
      const pf t_hi = pf::broadcast(node.hi[a] - o[a]) * inv_d[a];
      const pf t0 = pf::select(negative[a], t_hi, t_lo);
      const pf t1 = pf::select(negative[a], t_lo, t_hi);
      lo_t = pf::select(t0 > lo_t, t0, lo_t);
      hi_t = pf::select(t1 < hi_t, t1, hi_t);
      return ~(hi_t < lo_t);
    };
    mask inside = slab(0); // axes in order: each reads the last's bounds
    inside = inside & slab(1);
    inside = inside & slab(2);
    return movemask(inside);
  };

  // Leaf test with one lane per ray: the sphere's ray-independent terms
  // (oc, c) are scalar, exactly as ray_sphere computes them, and each
  // lane accepts spheres in slot order against its own closest.
  const auto leaf_lanes = [&](std::int64_t first, std::int64_t n, unsigned lanes) {
    for (std::int64_t s = first; s < first + n; ++s) {
      const float* c3 = bvh.centers + 3 * s;
      const float ocx = o[0] - c3[0], ocy = o[1] - c3[1], ocz = o[2] - c3[2];
      const float c = (ocx * ocx + ocy * ocy + ocz * ocz) - rr;
      const pf half_b = pf::broadcast(ocx) * d[0] + pf::broadcast(ocy) * d[1] +
                        pf::broadcast(ocz) * d[2];
      const pf disc = half_b * half_b - pf::broadcast(c);
      if ((movemask(disc >= zerov) & lanes) == 0) continue;
      const pf sqrt_d = vsqrt(disc);
      const pf t_near = -half_b - sqrt_d;
      const pf t_far = -half_b + sqrt_d;
      const pf root = pf::select(t_near <= tminv, t_far, t_near);
      const mask valid = (disc >= zerov) & (root > tminv) & (root < closest_v) &
                         (root > zerov);
      unsigned bits = movemask(valid) & lanes;
      if (bits == 0) continue;
      root.store(roots);
      while (bits != 0) {
        const int l = std::countr_zero(bits);
        bits &= bits - 1;
        closest[l] = roots[l];
        slot[l] = s;
      }
      closest_v = pf::load(closest);
    }
  };

  struct Entry {
    std::int64_t node;
    unsigned lanes;
  };
  constexpr int kStack = 64; // SphereBVH::intersect's bound
  Entry stack[kStack];
  int top = 0;
  stack[top++] = {0, (1u << rays.count) - 1u};
  while (top > 0) {
    const Entry e = stack[--top];
    const BvhNode& node = bvh.nodes[e.node];
    for (unsigned b = e.lanes; b != 0; b &= b - 1) ++visited[std::countr_zero(b)];
    const unsigned entered = enters(node) & e.lanes;
    if (entered == 0) continue;
    if (node.count > 0) {
      leaf_lanes(node.right_or_first, node.count, entered);
    } else {
      if (top + 2 > kStack) return false;
      stack[top++] = {node.right_or_first, entered};
      stack[top++] = {e.node + 1, entered};
    }
  }
  for (int l = 0; l < rays.count; ++l) {
    out.closest[l] = closest[l];
    out.slot[l] = slot[l];
    out.visited[l] += visited[l];
  }
  return true;
}

// ----------------------------------------------------------- iso march
// Vector StructuredGrid::sample (src/data/structured_grid.cpp): clamp,
// corner gathers and the lerp cascade in the exact scalar association.
template <int W>
ETH_SIMD_INLINE pack<float, W> sample_grid(const GridView& g, pack<float, W> px,
                                           pack<float, W> py, pack<float, W> pz) {
  using pf = pack<float, W>;
  using pi = pack<std::int32_t, W>;

  const pf zerov = pf::zero();
  const auto clampv = [&](pf v, pf hi) { // clamp(v, 0, hi): v<lo?lo:(v>hi?hi:v)
    return pf::select(v < zerov, zerov, pf::select(v > hi, hi, v));
  };
  const pf gx = clampv((px - pf::broadcast(g.org_x)) / pf::broadcast(g.sp_x),
                       pf::broadcast(float(g.dims_x - 1)));
  const pf gy = clampv((py - pf::broadcast(g.org_y)) / pf::broadcast(g.sp_y),
                       pf::broadcast(float(g.dims_y - 1)));
  const pf gz = clampv((pz - pf::broadcast(g.org_z)) / pf::broadcast(g.sp_z),
                       pf::broadcast(float(g.dims_z - 1)));

  const pi i0 = vmin(to_int(gx), pi::broadcast(g.dims_x - 2 >= 0 ? g.dims_x - 2 : 0));
  const pi j0 = vmin(to_int(gy), pi::broadcast(g.dims_y - 2 >= 0 ? g.dims_y - 2 : 0));
  const pi k0 = vmin(to_int(gz), pi::broadcast(g.dims_z - 2 >= 0 ? g.dims_z - 2 : 0));
  const pi onev = pi::broadcast(1);
  const pi i1 = vmin(i0 + onev, pi::broadcast(g.dims_x - 1));
  const pi j1 = vmin(j0 + onev, pi::broadcast(g.dims_y - 1));
  const pi k1 = vmin(k0 + onev, pi::broadcast(g.dims_z - 1));

  const pf fx = gx - to_float(i0);
  const pf fy = gy - to_float(j0);
  const pf fz = gz - to_float(k0);

  // point_index(i, j, k) = i + dims_x * (j + dims_y * k)
  const pi dxv = pi::broadcast(g.dims_x), dyv = pi::broadcast(g.dims_y);
  const pi row00 = dxv * (j0 + dyv * k0);
  const pi row10 = dxv * (j1 + dyv * k0);
  const pi row01 = dxv * (j0 + dyv * k1);
  const pi row11 = dxv * (j1 + dyv * k1);

  const pf c000 = pf::gather(g.field, i0 + row00);
  const pf c100 = pf::gather(g.field, i1 + row00);
  const pf c010 = pf::gather(g.field, i0 + row10);
  const pf c110 = pf::gather(g.field, i1 + row10);
  const pf c001 = pf::gather(g.field, i0 + row01);
  const pf c101 = pf::gather(g.field, i1 + row01);
  const pf c011 = pf::gather(g.field, i0 + row11);
  const pf c111 = pf::gather(g.field, i1 + row11);

  const auto lerpv = [](pf a, pf b, pf t) { return a + (b - a) * t; };
  const pf c00 = lerpv(c000, c100, fx);
  const pf c10 = lerpv(c010, c110, fx);
  const pf c01 = lerpv(c001, c101, fx);
  const pf c11 = lerpv(c011, c111, fx);
  const pf c0 = lerpv(c00, c10, fy);
  const pf c1 = lerpv(c01, c11, fy);
  return lerpv(c0, c1, fz);
}

// Mirrors the march_iso loop in src/render/ray/raycaster.cpp up to (not
// including) bisection: lockstep lanes share the iteration structure;
// each lane's (prev_t, prev_v, t) sequence — and therefore its
// crossing bracket and step count — is identical to the scalar loop's.
template <int W>
void march_iso(const GridView& g, float isovalue, float step, const MarchRays& rays,
               MarchHits& out) {
  using pf = pack<float, W>;
  using mask = typename pf::mask;

  const pf oxv = pf::broadcast(rays.ox), oyv = pf::broadcast(rays.oy),
           ozv = pf::broadcast(rays.oz);
  const pf dxv = pf::load(rays.dx), dyv = pf::load(rays.dy), dzv = pf::load(rays.dz);
  const pf stepv = pf::broadcast(step);
  const pf isov = pf::broadcast(isovalue);
  const pf tlim = pf::load(rays.t_limit);
  const pf zerov = pf::zero();

  float actf[W];
  for (int l = 0; l < W; ++l) actf[l] = l < rays.count && rays.active[l] ? 1.0f : 0.0f;
  mask alive = pf::load(actf) != zerov;
  const mask falsem = zerov < zerov;

  // p = ray.origin + ray.direction * t, per component: o + d * t
  const auto posx = [&](pf t) { return oxv + dxv * t; };
  const auto posy = [&](pf t) { return oyv + dyv * t; };
  const auto posz = [&](pf t) { return ozv + dzv * t; };

  pf prev_t = pf::load(rays.t0) + pf::broadcast(1e-6f);
  pf prev_v = sample_grid<W>(g, posx(prev_t), posy(prev_t), posz(prev_t));
  pf t = prev_t + stepv;
  alive = alive & (t <= tlim);

  pf hit_a = zerov, hit_b = zerov, hit_va = zerov;
  mask hitm = falsem;
  std::int64_t steps = 0;

  while (any(alive)) {
    steps += std::popcount(movemask(alive)); // scalar: ++steps per sample
    const pf v = sample_grid<W>(g, posx(t), posy(t), posz(t));
    // Exactly the scalar crossing predicate.
    const mask cross =
        alive & ((prev_v - isov) * (v - isov) <= zerov) & (prev_v != v);
    hit_a = pf::select(cross, prev_t, hit_a);
    hit_b = pf::select(cross, t, hit_b);
    hit_va = pf::select(cross, prev_v, hit_va);
    hitm = hitm | cross;
    alive = alive & ~cross;
    prev_t = pf::select(alive, t, prev_t);
    prev_v = pf::select(alive, v, prev_v);
    t = pf::select(alive, t + stepv, t);
    alive = alive & (t <= tlim);
  }

  hit_a.store(out.a);
  hit_b.store(out.b);
  hit_va.store(out.va);
  const unsigned hbits = movemask(hitm);
  for (int l = 0; l < rays.count; ++l) out.hit[l] = (hbits >> l) & 1u;
  out.steps = steps;
}

// -------------------------------------------------------- depth merge
// Mirrors merge_pair_range / the depth_composite fold
// (src/render/compositor.cpp): src wins on strictly smaller depth; the
// 16-byte color copy is a bit copy, so NaN payloads survive intact.
template <int W>
void depth_merge(float* dst_rgba, float* dst_depth, const float* src_rgba,
                 const float* src_depth, std::int64_t n) {
  using pf = pack<float, W>;

  std::int64_t p = 0;
  for (; p + W <= n; p += W) {
    const pf sd = pf::load(src_depth + p);
    const pf dd = pf::load(dst_depth + p);
    const auto m = sd < dd;
    unsigned bits = movemask(m);
    if (bits == 0) continue;
    pf::select(m, sd, dd).store(dst_depth + p);
    if (bits == (1u << W) - 1u) {
      for (int q = 0; q < 4 * W; q += W)
        pf::load(src_rgba + 4 * p + q).store(dst_rgba + 4 * p + q);
    } else {
      while (bits != 0) {
        const int l = std::countr_zero(bits);
        bits &= bits - 1;
        std::memcpy(dst_rgba + 4 * (p + l), src_rgba + 4 * (p + l),
                    4 * sizeof(float));
      }
    }
  }
  for (; p < n; ++p) {
    if (src_depth[p] < dst_depth[p]) {
      dst_depth[p] = src_depth[p];
      std::memcpy(dst_rgba + 4 * p, src_rgba + 4 * p, 4 * sizeof(float));
    }
  }
}

// ------------------------------------------------------- alpha blends
// Mirrors the alpha_composite_premultiplied inner statement: one pixel
// per iteration, the four channels as lanes of a 4-pack (widths > 4
// instantiate their own copy so each ISA table keeps its own encoding).
template <int W>
void premul_blend(float* out_rgba, float* out_depth, const float* src_rgba,
                  const float* src_depth, std::int64_t n) {
  using p4 = pack<float, 4>;

  for (std::int64_t p = 0; p < n; ++p) {
    const float sw = src_rgba[4 * p + 3];
    if (sw <= 0) continue;
    const float dw = out_rgba[4 * p + 3];
    const float trans = 1.0f - dw;
    const p4 s = p4::load(src_rgba + 4 * p);
    const p4 d = p4::load(out_rgba + 4 * p);
    (d + s * p4::broadcast(trans)).store(out_rgba + 4 * p); // d.c + s.c * trans
    if (src_depth[p] < out_depth[p]) out_depth[p] = src_depth[p];
  }
}

// ------------------------------------------------------- stride gather
// Mirrors the SpatialSampler::sample_grid inner row
// (src/pipeline/sampler.cpp): dst[i] = src[min(i * stride, max_src)].
// Indices stay well under 2^31 (dims are int32 in the GridView world).
template <int W>
void stride_copy(const float* src, float* dst, std::int64_t n, std::int64_t stride,
                 std::int64_t max_src) {
  using pf = pack<float, W>;
  using pi = pack<std::int32_t, W>;

  const pi stridev = pi::broadcast(static_cast<std::int32_t>(stride));
  const pi maxv = pi::broadcast(static_cast<std::int32_t>(max_src));
  std::int64_t i = 0;
  for (; i + W <= n; i += W) {
    pi idx = (pi::iota() + pi::broadcast(static_cast<std::int32_t>(i))) * stridev;
    idx = vmin(idx, maxv);
    pf::gather(src, idx).store(dst + i);
  }
  for (; i < n; ++i) dst[i] = src[std::min(i * stride, max_src)];
}

/// The table for one width, shared by the per-ISA TUs.
template <int W>
constexpr KernelTable make_table(const char* name) {
  return KernelTable{name,
                     W,
                     &sphere_packet<W>,
                     &march_iso<W>,
                     &depth_merge<W>,
                     &premul_blend<W>,
                     &stride_copy<W>};
}

} // namespace eth::simd::impl
