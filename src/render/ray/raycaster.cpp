#include "render/ray/raycaster.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <type_traits>
#include <utility>

#include "common/error.hpp"
#include "common/simd_kernels.hpp"
#include "common/timer.hpp"
#include "common/trace.hpp"
#include "parallel/thread_pool.hpp"

namespace eth {

namespace {

Vec4f shade_headlight(Vec3f normal, Vec3f ray_dir, Vec4f base, Real ambient) {
  // Light rides with the camera: intensity from the angle between the
  // surface normal and the reversed ray direction, two-sided.
  const Real ndotl = std::abs(dot(normal, ray_dir));
  const Real lit = ambient + (Real(1) - ambient) * clamp(ndotl, Real(0), Real(1));
  return {base.x * lit, base.y * lit, base.z * lit, base.w};
}

// Rays are tile-parallel over row bands: every pixel is computed
// independently and written only by its owning chunk, so the image is
// bit-identical to a serial traversal at any thread count. Each chunk
// accumulates its counters into a private shard, merged in chunk order
// at the join (the race-free aggregation contract of
// cluster::CounterShards).
constexpr Index kRowGrain = 4;

/// Inclusive pixel rectangle; empty unless x0 <= x1 and y0 <= y1.
struct PixelRect {
  Index x0 = 0, y0 = 0, x1 = -1, y1 = -1;

  bool holds_row(Index py) const { return x0 <= x1 && py >= y0 && py <= y1; }
};

/// The pixels whose primary rays can enter `box`: the bounding rectangle
/// of its 8 corners projected through `frame` in double precision,
/// widened by a 2-pixel margin (far above the float rounding of ray
/// generation and the slab test) and clipped to the image. The whole
/// image when a corner lies at or behind the eye plane, where the
/// projection of the box is no longer bounded by its corners', or when
/// a corner does not project to a finite point.
PixelRect screen_rect(const CameraFrame& frame, const AABB& box, Index width,
                      Index height) {
  const PixelRect full{0, 0, width - 1, height - 1};
  constexpr double kInf = std::numeric_limits<double>::infinity();
  double u_lo = kInf, u_hi = -kInf, v_lo = kInf, v_hi = -kInf;
  for (int corner = 0; corner < 8; ++corner) {
    const Vec3f c{(corner & 1) != 0 ? box.hi.x : box.lo.x,
                  (corner & 2) != 0 ? box.hi.y : box.lo.y,
                  (corner & 4) != 0 ? box.hi.z : box.lo.z};
    const double p[3] = {double(c.x) - double(frame.origin.x),
                         double(c.y) - double(frame.origin.y),
                         double(c.z) - double(frame.origin.z)};
    const auto along = [&](Vec3f axis) {
      return p[0] * double(axis.x) + p[1] * double(axis.y) + p[2] * double(axis.z);
    };
    const double z = along(frame.forward);
    if (!(z > 0)) return full;
    // Inverse of CameraFrame::ray: pixel center px has
    // ndc_x = 2 (px + 0.5) / width - 1 and ndc_x * half_w = x / z.
    const double u = (along(frame.right) / (z * double(frame.half_w)) + 1) * 0.5 *
                         double(width) - 0.5;
    const double v = (1 - along(frame.up) / (z * double(frame.half_h))) * 0.5 *
                         double(height) - 0.5;
    if (!std::isfinite(u) || !std::isfinite(v)) return full;
    u_lo = std::min(u_lo, u);
    u_hi = std::max(u_hi, u);
    v_lo = std::min(v_lo, v);
    v_hi = std::max(v_hi, v);
  }
  constexpr double kMargin = 2;
  const auto first = [](double lo, Index n) {
    return static_cast<Index>(std::clamp(std::floor(lo - kMargin), 0.0, double(n)));
  };
  const auto last = [](double hi, Index n) {
    return static_cast<Index>(std::clamp(std::ceil(hi + kMargin), -1.0, double(n - 1)));
  };
  return {first(u_lo, width), first(v_lo, height), last(u_hi, width),
          last(v_hi, height)};
}

} // namespace

std::shared_ptr<const SphereAccel> RaycastRenderer::build_sphere_accel(
    const PointSet& points, const SphereRaycastOptions& options,
    cluster::PerfCounters& counters) {
  const trace::Span span("render.build");
  Real radius = options.world_radius;
  if (radius <= 0) {
    const AABB box = points.bounds();
    radius = box.is_empty() ? Real(0.01) : box.diagonal() / Real(500);
  }

  auto accel = std::make_shared<SphereAccel>();
  accel->radius = radius;
  ThreadCpuTimer timer;
  accel->bvh =
      SphereBVH(points.positions(), radius, options.split, options.max_leaf_size);
  counters.phases.add("build", timer.elapsed());
  counters.elements_processed += points.num_points();
  counters.bytes_read += points.byte_size();
  const double n = double(std::max<Index>(1, points.num_points()));
  counters.flop_estimate += n * std::log2(n) * 8.0; // O(N log N) setup
  counters.max_parallel_items =
      std::max(counters.max_parallel_items, points.num_points());
  return accel;
}

void RaycastRenderer::build_spheres(const PointSet& points,
                                    const SphereRaycastOptions& options,
                                    cluster::PerfCounters& counters) {
  adopt_spheres(build_sphere_accel(points, options, counters));
}

void RaycastRenderer::render_spheres(const PointSet& points, const Camera& camera,
                                     ImageBuffer& image,
                                     const SphereRaycastOptions& options,
                                     cluster::PerfCounters& counters) const {
  const trace::Span span("render.raycast");
  require(has_sphere_structure() || points.num_points() == 0,
          "RaycastRenderer::render_spheres: call build_spheres first");
  const SphereBVH& bvh = sphere_bvh();
  const Index width = image.width(), height = image.height();
  if (width == 0 || height == 0) return;

  const Field* scalars = nullptr;
  if (options.colormap != nullptr && !options.scalar_field.empty() &&
      points.point_fields().has(options.scalar_field))
    scalars = &points.point_fields().get(options.scalar_field);

  const CameraFrame frame = camera.frame(width, height);
  // Only pixels inside the root box's screen rectangle are traced. Every
  // other ray misses the root, and is recorded as the traversal records
  // a root miss: one ray cast, one node visited (none in an empty tree).
  const PixelRect rect =
      bvh.empty() ? PixelRect{} : screen_rect(frame, bvh.bounds(), width, height);
  const Index root_miss_visits = bvh.empty() ? 0 : 1;
  // With a SIMD table, each run of table->width pixels of a row is one
  // packet; every lane's hit and visit count equal intersect()'s.
  const simd::KernelTable* table = simd::active_kernels();
  const Index n_chunks = plan_chunks(height, kRowGrain);
  cluster::CounterShards shards(n_chunks);
  parallel_for_chunks(0, height, n_chunks, [&](Index chunk, Index y0, Index y1) {
    cluster::PerfCounters& local = shards.at(chunk);
    const auto shade = [&](Index px, Index py, const Ray& ray, const SphereHit& hit) {
      if (!hit.valid()) return;
      const Vec4f base = scalars != nullptr
                             ? options.colormap->map(scalars->get(hit.primitive))
                             : options.uniform_color;
      const Vec4f color =
          shade_headlight(hit.normal, ray.direction, base, options.ambient);
      const Vec3f p = ray.origin + ray.direction * hit.t;
      image.depth_test_set(px, py, color, camera.eye_depth(p));
    };
    Ray rays[SphereBVH::kMaxPacket];
    SphereHit hits[SphereBVH::kMaxPacket];
    for (Index py = y0; py < y1; ++py) {
      const Index traced = rect.holds_row(py) ? rect.x1 - rect.x0 + 1 : 0;
      local.rays_cast += width;
      local.bvh_nodes_visited += root_miss_visits * (width - traced);
      if (traced == 0) continue;
      if (table == nullptr) {
        for (Index px = rect.x0; px <= rect.x1; ++px) {
          const Ray ray = frame.ray(px, py);
          shade(px, py, ray, bvh.intersect(ray, camera.znear(), camera.zfar(), local));
        }
        continue;
      }
      for (Index px = rect.x0; px <= rect.x1; px += table->width) {
        const int count =
            static_cast<int>(std::min<Index>(table->width, rect.x1 + 1 - px));
        for (int l = 0; l < count; ++l) rays[l] = frame.ray(px + l, py);
        bvh.intersect_packet(*table, rays, count, camera.znear(), camera.zfar(), hits,
                             local);
        for (int l = 0; l < count; ++l) shade(px + l, py, rays[l], hits[l]);
      }
    }
  });

  cluster::PerfCounters kernel;
  shards.merge_into(kernel);
  kernel.flop_estimate += double(kernel.rays_cast) * 40.0;
  kernel.max_parallel_items = std::max(kernel.max_parallel_items, width * height);
  counters.merge(kernel);
}

namespace {

/// Clip `ray` against `box` within [znear, zfar]; returns false on miss.
bool clip_ray_to_box(const Ray& ray, const AABB& box, Real znear, Real zfar, Real& t0,
                     Real& t1) {
  Real lo = znear, hi = zfar;
  for (int a = 0; a < 3; ++a) {
    const Real inv = Real(1) / ray.direction[a];
    Real ta = (box.lo[a] - ray.origin[a]) * inv;
    Real tb = (box.hi[a] - ray.origin[a]) * inv;
    if (ta > tb) std::swap(ta, tb);
    lo = std::max(lo, ta);
    hi = std::min(hi, tb);
    if (hi < lo) return false;
  }
  t0 = lo;
  t1 = hi;
  return true;
}

/// March [t0, t_limit] for the first isovalue crossing; returns the
/// refined hit parameter or -1.
Real march_iso(const StructuredGrid& grid, const Field& field, const Ray& ray, Real t0,
               Real t_limit, Real step, const IsoRaycastOptions& options,
               Index& steps_total) {
  Real prev_t = t0 + Real(1e-6);
  Real prev_v = grid.sample(field, ray.origin + ray.direction * prev_t);
  for (Real t = prev_t + step; t <= t_limit;) {
    ++steps_total;
    const Real v = grid.sample(field, ray.origin + ray.direction * t);
    if ((prev_v - options.isovalue) * (v - options.isovalue) <= 0 && prev_v != v) {
      // Bisection refinement inside [prev_t, t].
      Real a = prev_t, b = t, va = prev_v;
      for (int it = 0; it < options.bisection_iterations; ++it) {
        const Real m = (a + b) / 2;
        const Real vm = grid.sample(field, ray.origin + ray.direction * m);
        if ((va - options.isovalue) * (vm - options.isovalue) <= 0)
          b = m;
        else {
          a = m;
          va = vm;
        }
      }
      return (a + b) / 2;
    }
    prev_t = t;
    prev_v = v;
    t += step;
  }
  return Real(-1);
}

} // namespace

void RaycastRenderer::render_volume_iso(const StructuredGrid& grid,
                                        const std::string& field_name,
                                        const Camera& camera, ImageBuffer& image,
                                        const IsoRaycastOptions& options,
                                        cluster::PerfCounters& counters) const {
  render_volume_scene(grid, field_name, camera, image, options, {}, counters);
}

void RaycastRenderer::render_volume_scene(const StructuredGrid& grid,
                                          const std::string& field_name,
                                          const Camera& camera, ImageBuffer& image,
                                          const IsoRaycastOptions& iso_options,
                                          std::span<const SliceRaycastOptions> slices,
                                          cluster::PerfCounters& counters) const {
  const trace::Span span("render.raycast");
  const Index width = image.width(), height = image.height();
  if (width == 0 || height == 0) return;
  const Field& field = grid.point_fields().get(field_name);
  const AABB box = grid.bounds();
  require(!box.is_empty(), "render_volume_scene: empty grid");
  for (const SliceRaycastOptions& slice : slices)
    require(slice.colormap != nullptr, "render_volume_scene: slice needs a colormap");

  const Vec3f spacing = grid.spacing();
  const Real step = std::min({spacing.x, spacing.y, spacing.z}) *
                    std::max(iso_options.step_scale, Real(0.05f));
  const Vec4f iso_base = iso_options.colormap != nullptr
                             ? iso_options.colormap->map(iso_options.isovalue)
                             : iso_options.uniform_color;

  // Unit slice normals, precomputed.
  std::vector<Vec3f> slice_normals;
  slice_normals.reserve(slices.size());
  for (const SliceRaycastOptions& slice : slices)
    slice_normals.push_back(normalize(slice.plane_normal));

  // SIMD path (DESIGN.md §14): the W-pixel march runs through the
  // kernel table; ray setup, bisection refinement and shading stay
  // scalar per pixel so every lane's op sequence matches the scalar
  // loop exactly. Falls back to the scalar loop for multi-component
  // fields or grids whose flat indices overflow the 32-bit gather.
  static_assert(std::is_same_v<Real, float>);
  const simd::KernelTable* table = simd::active_kernels();
  simd::GridView view{};
  const bool vectorize =
      table != nullptr && field.components() == 1 &&
      grid.num_points() <= Index(std::numeric_limits<std::int32_t>::max());
  if (vectorize) {
    const Vec3i d = grid.dims();
    const Vec3f org = grid.origin();
    view.field = field.values().data();
    view.dims_x = static_cast<std::int32_t>(d.x);
    view.dims_y = static_cast<std::int32_t>(d.y);
    view.dims_z = static_cast<std::int32_t>(d.z);
    view.org_x = org.x;
    view.org_y = org.y;
    view.org_z = org.z;
    view.sp_x = spacing.x;
    view.sp_y = spacing.y;
    view.sp_z = spacing.z;
  }

  const CameraFrame frame = camera.frame(width, height);
  const Index n_chunks = plan_chunks(height, kRowGrain);
  cluster::CounterShards shards(n_chunks);
  parallel_for_chunks(0, height, n_chunks, [&](Index chunk, Index y0, Index y1) {
    cluster::PerfCounters& local = shards.at(chunk);
    if (!vectorize) {
      for (Index py = y0; py < y1; ++py) {
        for (Index px = 0; px < width; ++px) {
          const Ray ray = frame.ray(px, py);
          ++local.rays_cast;
          Real t0, t1;
          if (!clip_ray_to_box(ray, box, camera.znear(), camera.zfar(), t0, t1))
            continue;

          // Nearest slice hit (if any); the isosurface march is then
          // bounded by it — anything behind is occluded.
          Real nearest = t1;
          int nearest_slice = -1;
          for (std::size_t s = 0; s < slices.size(); ++s) {
            const Vec3f n = slice_normals[s];
            const Real denom = dot(ray.direction, n);
            if (std::abs(denom) < Real(1e-9)) continue;
            const Real t = dot(slices[s].plane_origin - ray.origin, n) / denom;
            if (t > t0 - Real(1e-4) && t < nearest) {
              nearest = t;
              nearest_slice = static_cast<int>(s);
            }
          }

          const Real hit_t = march_iso(grid, field, ray, t0, nearest, step, iso_options,
                                       local.ray_steps);
          if (hit_t > 0) {
            const Vec3f p = ray.origin + ray.direction * hit_t;
            const Vec3f normal = normalize(grid.gradient(field, p));
            const Vec4f color =
                shade_headlight(normal, ray.direction, iso_base, iso_options.ambient);
            image.depth_test_set(px, py, color, camera.eye_depth(p));
          } else if (nearest_slice >= 0) {
            const Vec3f p = ray.origin + ray.direction * nearest;
            const SliceRaycastOptions& slice =
                slices[static_cast<std::size_t>(nearest_slice)];
            const Real v = grid.sample(field, p);
            const Vec4f color = shade_headlight(
                slice_normals[static_cast<std::size_t>(nearest_slice)],
                ray.direction, slice.colormap->map(v), slice.ambient);
            image.depth_test_set(px, py, color, camera.eye_depth(p));
          }
        }
      }
      return;
    }

    constexpr int kMaxWidth = 8;
    const int lanes = table->width;
    float dxa[kMaxWidth], dya[kMaxWidth], dza[kMaxWidth];
    float t0a[kMaxWidth], tla[kMaxWidth];
    float ha[kMaxWidth], hb[kMaxWidth], hva[kMaxWidth];
    unsigned char act[kMaxWidth], hitl[kMaxWidth];
    Ray lane_ray[kMaxWidth];
    Real lane_nearest[kMaxWidth];
    int lane_slice[kMaxWidth];
    for (Index py = y0; py < y1; ++py) {
      for (Index px0 = 0; px0 < width; px0 += lanes) {
        const int count = static_cast<int>(std::min<Index>(lanes, width - px0));
        bool any_active = false;
        for (int l = 0; l < lanes; ++l) {
          act[l] = 0;
          hitl[l] = 0;
          dxa[l] = dya[l] = dza[l] = 0;
          t0a[l] = tla[l] = 0;
        }
        // Scalar per-pixel preamble: ray generation, box clip, slice
        // scan — identical statements to the scalar loop above.
        for (int l = 0; l < count; ++l) {
          const Index px = px0 + l;
          const Ray ray = frame.ray(px, py);
          ++local.rays_cast;
          lane_ray[l] = ray;
          lane_slice[l] = -1;
          Real t0, t1;
          if (!clip_ray_to_box(ray, box, camera.znear(), camera.zfar(), t0, t1))
            continue;
          Real nearest = t1;
          int nearest_slice = -1;
          for (std::size_t s = 0; s < slices.size(); ++s) {
            const Vec3f n = slice_normals[s];
            const Real denom = dot(ray.direction, n);
            if (std::abs(denom) < Real(1e-9)) continue;
            const Real t = dot(slices[s].plane_origin - ray.origin, n) / denom;
            if (t > t0 - Real(1e-4) && t < nearest) {
              nearest = t;
              nearest_slice = static_cast<int>(s);
            }
          }
          act[l] = 1;
          any_active = true;
          dxa[l] = ray.direction.x;
          dya[l] = ray.direction.y;
          dza[l] = ray.direction.z;
          t0a[l] = t0;
          tla[l] = nearest;
          lane_nearest[l] = nearest;
          lane_slice[l] = nearest_slice;
        }
        if (any_active) {
          simd::MarchRays rays;
          rays.count = count;
          rays.ox = frame.origin.x;
          rays.oy = frame.origin.y;
          rays.oz = frame.origin.z;
          rays.dx = dxa;
          rays.dy = dya;
          rays.dz = dza;
          rays.t0 = t0a;
          rays.t_limit = tla;
          rays.active = act;
          simd::MarchHits hits;
          hits.a = ha;
          hits.b = hb;
          hits.va = hva;
          hits.hit = hitl;
          table->march_iso(view, iso_options.isovalue, step, rays, hits);
          local.ray_steps += hits.steps;
        }
        // Scalar epilogue: bisection refinement on the returned bracket
        // and shading, statement-for-statement the scalar code.
        for (int l = 0; l < count; ++l) {
          if (act[l] == 0) continue;
          const Index px = px0 + l;
          const Ray& ray = lane_ray[l];
          Real hit_t = Real(-1);
          if (hitl[l] != 0) {
            Real a = ha[l], b = hb[l], va = hva[l];
            for (int it = 0; it < iso_options.bisection_iterations; ++it) {
              const Real m = (a + b) / 2;
              const Real vm = grid.sample(field, ray.origin + ray.direction * m);
              if ((va - iso_options.isovalue) * (vm - iso_options.isovalue) <= 0)
                b = m;
              else {
                a = m;
                va = vm;
              }
            }
            hit_t = (a + b) / 2;
          }
          if (hit_t > 0) {
            const Vec3f p = ray.origin + ray.direction * hit_t;
            const Vec3f normal = normalize(grid.gradient(field, p));
            const Vec4f color =
                shade_headlight(normal, ray.direction, iso_base, iso_options.ambient);
            image.depth_test_set(px, py, color, camera.eye_depth(p));
          } else if (lane_slice[l] >= 0) {
            const Real nearest = lane_nearest[l];
            const Vec3f p = ray.origin + ray.direction * nearest;
            const SliceRaycastOptions& slice =
                slices[static_cast<std::size_t>(lane_slice[l])];
            const Real v = grid.sample(field, p);
            const Vec4f color = shade_headlight(
                slice_normals[static_cast<std::size_t>(lane_slice[l])],
                ray.direction, slice.colormap->map(v), slice.ambient);
            image.depth_test_set(px, py, color, camera.eye_depth(p));
          }
        }
      }
    }
  });

  cluster::PerfCounters kernel;
  shards.merge_into(kernel);
  kernel.bytes_read += grid.byte_size();
  kernel.flop_estimate +=
      double(kernel.ray_steps) * 30.0 + double(kernel.rays_cast) * 20.0;
  kernel.max_parallel_items = std::max(kernel.max_parallel_items, width * height);
  counters.merge(kernel);
}

void RaycastRenderer::render_volume_slice(const StructuredGrid& grid,
                                          const std::string& field_name,
                                          const Camera& camera, ImageBuffer& image,
                                          const SliceRaycastOptions& options,
                                          cluster::PerfCounters& counters) const {
  const trace::Span span("render.raycast");
  const Index width = image.width(), height = image.height();
  if (width == 0 || height == 0) return;
  const Field& field = grid.point_fields().get(field_name);
  const AABB box = grid.bounds();
  require(!box.is_empty(), "render_volume_slice: empty grid");
  require(options.colormap != nullptr, "render_volume_slice: colormap required");
  const Vec3f n = normalize(options.plane_normal);

  const Index n_chunks = plan_chunks(height, kRowGrain);
  cluster::CounterShards shards(n_chunks);
  parallel_for_chunks(0, height, n_chunks, [&](Index chunk, Index y0, Index y1) {
    cluster::PerfCounters& local = shards.at(chunk);
    for (Index py = y0; py < y1; ++py) {
      for (Index px = 0; px < width; ++px) {
        const Ray ray = camera.generate_ray(px, py, width, height);
        ++local.rays_cast;
        // O(1) plane intersection.
        const Real denom = dot(ray.direction, n);
        if (std::abs(denom) < Real(1e-9)) continue;
        const Real t = dot(options.plane_origin - ray.origin, n) / denom;
        if (t <= camera.znear() || t >= camera.zfar()) continue;
        const Vec3f p = ray.origin + ray.direction * t;
        if (!box.contains(p)) continue;
        // O(1) trilinear lookup.
        const Real v = grid.sample(field, p);
        const Vec4f base = options.colormap->map(v);
        const Vec4f color = shade_headlight(n, ray.direction, base, options.ambient);
        image.depth_test_set(px, py, color, camera.eye_depth(p));
      }
    }
  });

  cluster::PerfCounters kernel;
  shards.merge_into(kernel);
  kernel.bytes_read += grid.byte_size();
  kernel.flop_estimate += double(kernel.rays_cast) * 30.0;
  kernel.max_parallel_items = std::max(kernel.max_parallel_items, width * height);
  counters.merge(kernel);
}

} // namespace eth

namespace eth {

void RaycastRenderer::render_volume_dvr(const StructuredGrid& grid,
                                        const std::string& field_name,
                                        const Camera& camera, ImageBuffer& image,
                                        const DvrRaycastOptions& options,
                                        cluster::PerfCounters& counters) const {
  const trace::Span span("render.raycast");
  const Index width = image.width(), height = image.height();
  if (width == 0 || height == 0) return;
  require(options.transfer != nullptr, "render_volume_dvr: transfer function required");
  const Field& field = grid.point_fields().get(field_name);
  const AABB box = grid.bounds();
  require(!box.is_empty(), "render_volume_dvr: empty grid");

  const Vec3f spacing = grid.spacing();
  const Real base_step = std::min({spacing.x, spacing.y, spacing.z});
  const Real step = base_step * std::max(options.step_scale, Real(0.05f));
  // Opacity correction: per-sample alpha scaled by the step relative to
  // unit-spacing sampling, so step_scale changes resolution, not the
  // integrated optical depth.
  const Real alpha_scale = options.opacity_scale * options.step_scale;

  const CameraFrame frame = camera.frame(width, height);
  const Index n_chunks = plan_chunks(height, kRowGrain);
  cluster::CounterShards shards(n_chunks);
  parallel_for_chunks(0, height, n_chunks, [&](Index chunk, Index y0, Index y1) {
    cluster::PerfCounters& local = shards.at(chunk);
    for (Index py = y0; py < y1; ++py) {
      for (Index px = 0; px < width; ++px) {
        const Ray ray = frame.ray(px, py);
        ++local.rays_cast;
        Real t0, t1;
        if (!clip_ray_to_box(ray, box, camera.znear(), camera.zfar(), t0, t1))
          continue;

        // Front-to-back emission/absorption: accum holds premultiplied
        // rgb, alpha the accumulated opacity.
        Vec3f accum{0, 0, 0};
        Real alpha = 0;
        for (Real t = t0 + step * Real(0.5); t < t1; t += step) {
          ++local.ray_steps;
          const Real v = grid.sample(field, ray.origin + ray.direction * t);
          const Vec4f s = options.transfer->map(v);
          const Real a = clamp(s.w * alpha_scale, Real(0), Real(1));
          if (a > 0) {
            const Real weight = (Real(1) - alpha) * a;
            accum += Vec3f{s.x, s.y, s.z} * weight;
            alpha += weight;
            if (alpha >= options.early_termination_alpha) break;
          }
        }
        if (alpha <= 0) continue;
        image.set_color(px, py, {accum.x, accum.y, accum.z, alpha});
        image.set_depth(px, py, camera.eye_depth(ray.origin + ray.direction * t0));
      }
    }
  });

  cluster::PerfCounters kernel;
  shards.merge_into(kernel);
  kernel.bytes_read += grid.byte_size();
  kernel.flop_estimate +=
      double(kernel.ray_steps) * 40.0 + double(kernel.rays_cast) * 20.0;
  kernel.max_parallel_items = std::max(kernel.max_parallel_items, width * height);
  counters.merge(kernel);
}

} // namespace eth
