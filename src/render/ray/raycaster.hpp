#pragma once
// RaycastRenderer: the geometry-free rendering back-end (paper §III,
// §IV-C). "The raycasting method operates directly on the data": rays
// from the camera through every pixel intersect the dataset without any
// intermediate triangle representation, so per-frame cost is a function
// of the number of RAYS, not the number of data elements — the property
// behind the paper's scaling findings (3, 7).
//
// Three paths:
//  * render_spheres — HACC particles through a SphereBVH (build the
//    structure once per dataset, reuse across the timestep's images).
//  * render_volume_iso — isosurface by ray marching + bisection
//    refinement; per-ray cost ~ data resolution in 1-D (n^(1/3)).
//  * render_volume_slice — O(1) ray/plane intersection + trilinear
//    lookup per pixel.

#include <memory>
#include <span>
#include <vector>

#include "cluster/counters.hpp"
#include "data/image.hpp"
#include "data/point_set.hpp"
#include "data/structured_grid.hpp"
#include "render/camera.hpp"
#include "render/colormap.hpp"
#include "render/ray/bvh.hpp"

namespace eth {

struct SphereRaycastOptions {
  Real world_radius = 0.0f; ///< 0 = auto: bounds diagonal / 500
  Vec4f uniform_color{0.9f, 0.9f, 0.95f, 1.0f};
  const TransferFunction* colormap = nullptr;
  std::string scalar_field;
  Real ambient = 0.25f;
  SphereBVH::SplitMethod split = SphereBVH::SplitMethod::kBinnedSAH;
  /// Sized for the SIMD leaf kernel: larger leaves trade a few extra
  /// sphere tests for far fewer node visits, and the vector kernel
  /// amortizes the tests across full lanes (64 = eight AVX2 packs).
  /// Measured on bench_parallel_render's 200k-particle scene, 64 is the
  /// flattest point for BOTH the scalar and vector paths — past it the
  /// scalar path pays for tests the lanes hide. The tree is identical
  /// for every ETH_SIMD setting, so the scalar↔vector bit-identity
  /// contract is unaffected.
  int max_leaf_size = 64;
};

struct IsoRaycastOptions {
  Real isovalue = 0.5f;
  Vec4f uniform_color{0.9f, 0.6f, 0.3f, 1.0f};
  const TransferFunction* colormap = nullptr; ///< colors by isovalue when set
  Real ambient = 0.25f;
  /// Step length as a fraction of the minimum grid spacing ("the
  /// appropriate sampling along the ray is proportionate to the
  /// resolution of the data in 1-D").
  Real step_scale = 1.0f;
  int bisection_iterations = 6;
};

struct SliceRaycastOptions {
  Vec3f plane_origin;
  Vec3f plane_normal{0, 0, 1};
  const TransferFunction* colormap = nullptr;
  Real ambient = 0.35f;
};

struct DvrRaycastOptions {
  /// Maps field value to color AND opacity (the transfer function's
  /// alpha channel drives absorption).
  const TransferFunction* transfer = nullptr;
  Real step_scale = 1.0f;      ///< step as a fraction of min grid spacing
  Real opacity_scale = 1.0f;   ///< global density multiplier
  Real early_termination_alpha = 0.98f;
};

/// The sphere path's immutable per-dataset setup product: the BVH plus
/// the resolved world radius it was built with. Shareable (shared_ptr)
/// so the artifact cache can own one copy reused across images,
/// timesteps and sweep points.
struct SphereAccel {
  SphereBVH bvh;
  Real radius = 0; ///< resolved (auto already applied)

  Bytes byte_size() const { return bvh.byte_size(); }
};

class RaycastRenderer {
public:
  /// Build (or rebuild) the sphere acceleration structure for `points`.
  /// Separate from rendering so the harness can charge the O(N log N)
  /// setup once per timestep while rendering many images.
  void build_spheres(const PointSet& points, const SphereRaycastOptions& options,
                     cluster::PerfCounters& counters);

  /// Cache-friendly form of build_spheres: build and return the
  /// shareable structure without adopting it. Pure — the result is a
  /// function of (points, geometry options) only.
  static std::shared_ptr<const SphereAccel> build_sphere_accel(
      const PointSet& points, const SphereRaycastOptions& options,
      cluster::PerfCounters& counters);

  /// Adopt a previously built (possibly cache-owned) structure in
  /// place of building one.
  void adopt_spheres(std::shared_ptr<const SphereAccel> accel) {
    spheres_ = std::move(accel);
  }

  bool has_sphere_structure() const { return spheres_ && !spheres_->bvh.empty(); }
  const SphereBVH& sphere_bvh() const {
    static const SphereBVH kEmpty;
    return spheres_ ? spheres_->bvh : kEmpty;
  }

  /// Raycast the prepared spheres. Requires build_spheres() first.
  void render_spheres(const PointSet& points, const Camera& camera, ImageBuffer& image,
                      const SphereRaycastOptions& options,
                      cluster::PerfCounters& counters) const;

  /// Ray-marched isosurface of `field_name` on a structured grid.
  void render_volume_iso(const StructuredGrid& grid, const std::string& field_name,
                         const Camera& camera, ImageBuffer& image,
                         const IsoRaycastOptions& options,
                         cluster::PerfCounters& counters) const;

  /// Slicing plane through a structured grid; scalar through colormap.
  void render_volume_slice(const StructuredGrid& grid, const std::string& field_name,
                           const Camera& camera, ImageBuffer& image,
                           const SliceRaycastOptions& options,
                           cluster::PerfCounters& counters) const;

  /// Single-pass scene render: every primary ray resolves the
  /// isosurface AND all slicing planes in one traversal, keeping the
  /// nearest hit — how a real raycaster composes a multi-object scene,
  /// paying the per-ray setup once instead of once per object.
  void render_volume_scene(const StructuredGrid& grid, const std::string& field_name,
                           const Camera& camera, ImageBuffer& image,
                           const IsoRaycastOptions& iso_options,
                           std::span<const SliceRaycastOptions> slices,
                           cluster::PerfCounters& counters) const;

  /// Direct volume rendering: front-to-back emission/absorption
  /// integration through the transfer function, with early ray
  /// termination. The image's color channel holds PREMULTIPLIED rgba
  /// (so partial images alpha-composite across ranks in view order);
  /// depth records the volume entry point.
  void render_volume_dvr(const StructuredGrid& grid, const std::string& field_name,
                         const Camera& camera, ImageBuffer& image,
                         const DvrRaycastOptions& options,
                         cluster::PerfCounters& counters) const;

private:
  // Shared immutable setup product: built here or adopted from the
  // artifact cache; rendering only reads it.
  std::shared_ptr<const SphereAccel> spheres_;
};

} // namespace eth
