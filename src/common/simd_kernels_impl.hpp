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
#include <cmath>
#include <cstring>

#include "common/simd.hpp"
#include "common/simd_kernels.hpp"

namespace eth::simd::impl {

// ------------------------------------------------------------ bvh leaf
// Mirrors ray_sphere() + the leaf accept loop in SphereBVH::intersect
// (src/render/ray/bvh.cpp). Roots do not depend on the running
// `closest`, so the block computes all W candidate roots with vertical
// ops and then scans accepted lanes in ascending order — reproducing
// the scalar closest/slot update sequence exactly.
template <int W>
void leaf_intersect(const float* cx, const float* cy, const float* cz,
                    std::int64_t n, std::int64_t base, float ox, float oy,
                    float oz, float dx, float dy, float dz, float radius,
                    float tmin, float& closest, std::int64_t& slot) {
  using pf = pack<float, W>;
  using mask = typename pf::mask;

  const pf oxv = pf::broadcast(ox), oyv = pf::broadcast(oy), ozv = pf::broadcast(oz);
  const pf dxv = pf::broadcast(dx), dyv = pf::broadcast(dy), dzv = pf::broadcast(dz);
  const pf rrv = pf::broadcast(radius * radius);
  const pf tminv = pf::broadcast(tmin);
  const pf zerov = pf::zero();

  float roots[W];
  std::int64_t i = 0;
  for (; i + W <= n; i += W) {
    const pf ocx = oxv - pf::load(cx + i);
    const pf ocy = oyv - pf::load(cy + i);
    const pf ocz = ozv - pf::load(cz + i);
    // half_b = dot(oc, dir); c = length2(oc) - radius^2 (left-to-right)
    const pf half_b = ocx * dxv + ocy * dyv + ocz * dzv;
    const pf c = (ocx * ocx + ocy * ocy + ocz * ocz) - rrv;
    const pf disc = half_b * half_b - c;
    const pf sqrt_d = vsqrt(disc);
    const pf t_near = -half_b - sqrt_d;
    const pf t_far = -half_b + sqrt_d;
    // Scalar: if (t <= tmin) use the far root; reject t <= tmin and the
    // caller's t > 0 filter. NaN disc lanes fail every compare, like
    // the scalar NaN propagation.
    const pf root = pf::select(t_near <= tminv, t_far, t_near);
    const mask valid = (disc >= zerov) & (root > tminv) & (root > zerov);
    unsigned bits = movemask(valid);
    if (bits == 0) continue;
    root.store(roots);
    while (bits != 0) {
      const int l = std::countr_zero(bits);
      bits &= bits - 1;
      const float t = roots[l];
      if (t < closest) { // scalar: t >= tmax (running closest) rejects
        closest = t;
        slot = base + i + l;
      }
    }
  }
  for (; i < n; ++i) { // scalar tail: ray_sphere verbatim
    const float ocx = ox - cx[i], ocy = oy - cy[i], ocz = oz - cz[i];
    const float half_b = ocx * dx + ocy * dy + ocz * dz;
    const float c = (ocx * ocx + ocy * ocy + ocz * ocz) - radius * radius;
    const float disc = half_b * half_b - c;
    if (disc < 0) continue;
    const float sqrt_d = std::sqrt(disc);
    float t = -half_b - sqrt_d;
    if (t <= tmin) t = -half_b + sqrt_d;
    if (t <= tmin || t >= closest) continue;
    if (t > 0) {
      closest = t;
      slot = base + i;
    }
  }
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

// Vector MinMaxGrid::may_contain (src/render/ray/raycaster.cpp): float
// negativity checks, truncating casts, int bounds, range lookup. The
// int bound check also catches the out-of-range-cast sentinel lanes
// (huge rel -> INT32_MIN fails mi >= 0, matching the scalar reject).
template <int W>
ETH_SIMD_INLINE typename pack<float, W>::mask may_contain(const GridView& g,
                                                          float isovalue,
                                                          pack<float, W> px,
                                                          pack<float, W> py,
                                                          pack<float, W> pz) {
  using pf = pack<float, W>;
  using pi = pack<std::int32_t, W>;
  using mask = typename pf::mask;

  const pf relx = (px - pf::broadcast(g.mm_org_x)) * pf::broadcast(g.mm_inv_x);
  const pf rely = (py - pf::broadcast(g.mm_org_y)) * pf::broadcast(g.mm_inv_y);
  const pf relz = (pz - pf::broadcast(g.mm_org_z)) * pf::broadcast(g.mm_inv_z);
  const pi mi = to_int(relx), mj = to_int(rely), mk = to_int(relz);

  const pf zerov = pf::zero();
  const pi izero = pi::zero();
  const mask in_bounds = ~(relx < zerov) & ~(rely < zerov) & ~(relz < zerov) &
                         (mi >= izero) & (mi < pi::broadcast(g.mm_dims_x)) &
                         (mj >= izero) & (mj < pi::broadcast(g.mm_dims_y)) &
                         (mk >= izero) & (mk < pi::broadcast(g.mm_dims_z));

  pi cell = mi + pi::broadcast(g.mm_dims_x) * (mj + pi::broadcast(g.mm_dims_y) * mk);
  cell = pi::select(in_bounds, cell, izero); // clamp rejected lanes' gather
  const pi pair_idx = cell + cell;           // interleaved (min, max)
  const pf rmin = pf::gather(g.mm_ranges, pair_idx);
  const pf rmax = pf::gather(g.mm_ranges, pair_idx + pi::broadcast(1));
  const pf isov = pf::broadcast(isovalue);
  return in_bounds & (isov >= rmin) & (isov <= rmax);
}

// Mirrors the march_iso loop in src/render/ray/raycaster.cpp up to (not
// including) bisection: lockstep lanes share the iteration structure;
// each lane's (prev_t, prev_v, t) sequence — and therefore its
// crossing bracket and step count — is identical to the scalar loop's.
template <int W>
void march_iso(const GridView& g, float isovalue, float step, float skip_step,
               const MarchRays& rays, MarchHits& out) {
  using pf = pack<float, W>;
  using mask = typename pf::mask;

  const bool use_skip = g.mm_ranges != nullptr;
  const pf oxv = pf::broadcast(rays.ox), oyv = pf::broadcast(rays.oy),
           ozv = pf::broadcast(rays.oz);
  const pf dxv = pf::load(rays.dx), dyv = pf::load(rays.dy), dzv = pf::load(rays.dz);
  const pf stepv = pf::broadcast(step), skipv = pf::broadcast(skip_step);
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
    steps += std::popcount(movemask(alive)); // scalar: ++steps both branches
    mask skipm = falsem;
    if (use_skip)
      skipm = alive & ~may_contain<W>(g, isovalue, posx(t), posy(t), posz(t));
    const pf ts = pf::select(skipm, t + skipv, t); // skip: t += max(skip, step)
    const pf v = sample_grid<W>(g, posx(ts), posy(ts), posz(ts));
    // Crossing test only on non-skip lanes, exactly the scalar predicate.
    const mask cross = (alive & ~skipm) &
                       ((prev_v - isov) * (v - isov) <= zerov) & (prev_v != v);
    hit_a = pf::select(cross, prev_t, hit_a);
    hit_b = pf::select(cross, t, hit_b); // ts == t on non-skip lanes
    hit_va = pf::select(cross, prev_v, hit_va);
    hitm = hitm | cross;
    alive = alive & ~cross;
    prev_t = pf::select(alive, ts, prev_t);
    prev_v = pf::select(alive, v, prev_v);
    t = pf::select(alive, ts + stepv, t);
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
                     &leaf_intersect<W>,
                     &march_iso<W>,
                     &depth_merge<W>,
                     &premul_blend<W>,
                     &stride_copy<W>};
}

} // namespace eth::simd::impl
