#include "insitu/viz.hpp"

#include <cmath>

#include "common/error.hpp"
#include "common/fingerprint.hpp"
#include "common/string_util.hpp"
#include "common/timer.hpp"
#include "core/artifact_cache.hpp"
#include "data/point_set.hpp"
#include "data/structured_grid.hpp"
#include "data/triangle_mesh.hpp"
#include "parallel/thread_pool.hpp"
#include "pipeline/isosurface.hpp"
#include "pipeline/slice.hpp"
#include "render/colormap.hpp"
#include "render/raster/rasterizer.hpp"
#include "render/ray/raycaster.hpp"

namespace eth::insitu {

const char* to_string(VizAlgorithm algorithm) {
  switch (algorithm) {
    case VizAlgorithm::kRaycastSpheres: return "raycast-spheres";
    case VizAlgorithm::kGaussianSplat: return "gaussian-splat";
    case VizAlgorithm::kVtkPoints: return "vtk-points";
    case VizAlgorithm::kVtkGeometry: return "vtk-geometry";
    case VizAlgorithm::kRaycastVolume: return "raycast-volume";
    case VizAlgorithm::kRaycastDvr: return "raycast-dvr";
  }
  return "?";
}

bool is_particle_algorithm(VizAlgorithm algorithm) {
  return algorithm == VizAlgorithm::kRaycastSpheres ||
         algorithm == VizAlgorithm::kGaussianSplat ||
         algorithm == VizAlgorithm::kVtkPoints;
}

Camera camera_for_image(const Camera& base_camera, Index image, Index images) {
  if (images <= 1) return base_camera;
  // Quarter orbit across the sequence: distinct viewpoints without ever
  // facing the data edge-on.
  const Real angle = Real(1.5707963) * Real(image) / Real(images);
  return base_camera.orbited(angle);
}

namespace {

/// Slide plane `s` of `num_slices` for timestep `t`: planes sweep
/// through the middle half of the volume across the timestep sequence.
Vec3f slice_origin(const AABB& box, int s, int num_slices, Index timestep) {
  const Real phase = Real(0.5) + Real(0.35) * std::sin(Real(0.7) * Real(timestep));
  const Real offset = (Real(s) + Real(0.5) + phase * Real(0.35)) / Real(num_slices + 1);
  return box.lo + box.extent() * clamp(offset, Real(0.1), Real(0.9));
}

Vec3f slice_normal(int s) {
  // Alternate axis-aligned slicing directions.
  switch (s % 3) {
    case 0: return {1, 0, 0};
    case 1: return {0, 0, 1};
    default: return {0, 1, 0};
  }
}

/// The render loop of every algorithm: per image, ready `frame` (cleared
/// to `background`, reallocated only when its size is wrong), let
/// `render` draw the image's camera into it under the "render" timer,
/// then hand it to `sink`.
template <typename RenderFn>
void render_images(const VizConfig& cfg, const Camera& base_camera, Vec4f background,
                   ImageBuffer& frame, const VizImageSink& sink,
                   cluster::PerfCounters& counters, const RenderFn& render) {
  for (Index img = 0; img < cfg.images_per_timestep; ++img) {
    const Camera camera = camera_for_image(base_camera, img, cfg.images_per_timestep);
    if (frame.width() == cfg.image_width && frame.height() == cfg.image_height)
      frame.clear(background);
    else
      frame = ImageBuffer(cfg.image_width, cfg.image_height, background);

    // KernelTimer, not ThreadCpuTimer: the renderers fan out over the
    // pool, and cycles their chunks burn on worker threads must be
    // charged to this rank's "render" phase.
    KernelTimer timer;
    render(camera, frame);
    counters.phases.add("render", timer.elapsed());
    sink(frame);
  }
}

VizRankOutput run_particle(const DataSet& data, const VizConfig& cfg,
                           const Camera& base_camera, ImageBuffer& frame,
                           const VizImageSink& sink) {
  require(data.kind() == DataSetKind::kPointSet,
          "run_viz_rank: particle algorithm needs PointSet input");
  VizRankOutput out;

  // ---- sample
  // Non-owning view of the caller's data; replaced by the sampler's
  // output when sampling is active (avoids cloning multi-GB inputs).
  std::shared_ptr<const DataSet> working(std::shared_ptr<const DataSet>(), &data);
  ArtifactCache* cache = cfg.artifact_cache;
  std::uint64_t working_fp = cfg.input_fingerprint;
  if (cfg.sampling_ratio < 1.0) {
    const CacheLookup sampled =
        SpatialSampler(cfg.sampling_ratio, cfg.sampling_mode, cfg.sampling_seed)
            .run(data, cache, working_fp);
    working = sampled.as<DataSet>();
    working_fp = sampled.content_fp;
    out.counters.merge(sampled.recorded); // carries the "sample" phase
  }
  const auto& points = static_cast<const PointSet&>(*working);
  out.input_elements = data.num_points();
  out.working_elements = points.num_points();

  const TransferFunction* colormap = nullptr;
  TransferFunction scaled_map = TransferFunction::viridis();
  if (!cfg.particle_scalar.empty() && points.point_fields().has(cfg.particle_scalar)) {
    auto [lo, hi] = points.point_fields().get(cfg.particle_scalar).range();
    if (cfg.has_explicit_scalar_range()) {
      lo = cfg.scalar_range_lo;
      hi = cfg.scalar_range_hi;
    }
    scaled_map = TransferFunction::viridis().rescaled(lo, hi);
    colormap = &scaled_map;
  }

  RaycastRenderer raycaster;
  SphereRaycastOptions ray_opts;
  ray_opts.world_radius = cfg.particle_radius;
  ray_opts.colormap = colormap;
  ray_opts.scalar_field = cfg.particle_scalar;
  if (cfg.algorithm == VizAlgorithm::kRaycastSpheres) {
    // The O(N log N) setup phase, once per timestep — and, with the
    // cache, once per (dataset, geometry options) across the sweep.
    const std::string signature =
        strprintf("sphere_bvh r=%a split=%d leaf=%d", double(ray_opts.world_radius),
                  static_cast<int>(ray_opts.split), ray_opts.max_leaf_size);
    const CacheLookup lookup =
        memoize(cache, {working_fp, signature}, [&]() -> CacheArtifact {
          cluster::PerfCounters fresh;
          std::shared_ptr<const SphereAccel> accel =
              RaycastRenderer::build_sphere_accel(points, ray_opts, fresh);
          return CacheArtifact{accel, static_cast<std::size_t>(accel->byte_size()),
                               std::move(fresh), fingerprint_chain(working_fp, signature)};
        });
    raycaster.adopt_spheres(lookup.as<SphereAccel>());
    out.counters.merge(lookup.recorded); // carries "build" (hit and miss)
  }

  RasterRenderer raster;
  const auto render = [&](const Camera& camera, ImageBuffer& image) {
    switch (cfg.algorithm) {
      case VizAlgorithm::kRaycastSpheres:
        raycaster.render_spheres(points, camera, image, ray_opts, out.counters);
        break;
      case VizAlgorithm::kGaussianSplat: {
        SplatRenderOptions opts;
        opts.world_radius = cfg.particle_radius;
        opts.colormap = colormap;
        opts.scalar_field = cfg.particle_scalar;
        raster.render_splats(points, camera, image, opts, out.counters);
        break;
      }
      case VizAlgorithm::kVtkPoints: {
        PointRenderOptions opts;
        opts.point_size = cfg.point_size;
        opts.colormap = colormap;
        opts.scalar_field = cfg.particle_scalar;
        raster.render_points(points, camera, image, opts, out.counters);
        break;
      }
      default:
        fail("run_particle: not a particle algorithm");
    }
  };
  render_images(cfg, base_camera, {0, 0, 0, 1}, frame, sink, out.counters, render);
  return out;
}

VizRankOutput run_volume(const DataSet& data, const VizConfig& cfg,
                         const Camera& base_camera, ImageBuffer& frame,
                         const VizImageSink& sink) {
  require(data.kind() == DataSetKind::kStructuredGrid,
          "run_viz_rank: volume algorithm needs StructuredGrid input");
  VizRankOutput out;

  // Non-owning view of the caller's data; replaced by the sampler's
  // output when sampling is active (avoids cloning multi-GB inputs).
  std::shared_ptr<const DataSet> working(std::shared_ptr<const DataSet>(), &data);
  ArtifactCache* cache = cfg.artifact_cache;
  std::uint64_t working_fp = cfg.input_fingerprint;
  if (cfg.sampling_ratio < 1.0) {
    const CacheLookup sampled =
        SpatialSampler(cfg.sampling_ratio, cfg.sampling_mode, cfg.sampling_seed)
            .run(data, cache, working_fp);
    working = sampled.as<DataSet>();
    working_fp = sampled.content_fp;
    out.counters.merge(sampled.recorded); // carries the "sample" phase
  }
  const auto& grid = static_cast<const StructuredGrid&>(*working);
  const AABB box = grid.bounds();
  out.input_elements = static_cast<const StructuredGrid&>(data).num_cells();
  out.working_elements = grid.num_cells();

  auto [field_lo, field_hi] = grid.point_fields().get(cfg.volume_field).range();
  if (cfg.has_explicit_scalar_range()) {
    field_lo = cfg.scalar_range_lo;
    field_hi = cfg.scalar_range_hi;
  }
  const TransferFunction slice_map =
      TransferFunction::thermal().rescaled(field_lo, field_hi);
  const TransferFunction iso_map =
      TransferFunction::cool_warm().rescaled(field_lo, field_hi);

  RasterRenderer raster;
  RaycastRenderer raycaster;

  // Per-timestep visualization parameters ("two sliding planes and a
  // varying isovalue" across the timestep sequence).
  const Real iso =
      cfg.isovalue +
      cfg.isovalue_variation * std::sin(Real(0.9) * Real(cfg.timestep) + Real(0.4));
  std::vector<Vec3f> plane_origins;
  for (int s = 0; s < cfg.num_slices; ++s)
    plane_origins.push_back(slice_origin(box, s, cfg.num_slices, cfg.timestep));

  // Per-timestep setup: the geometry pipeline extracts once and
  // rasterizes the extract from every camera; the raycasters march the
  // grid itself per image and need no setup.
  std::shared_ptr<const DataSet> iso_mesh;
  std::vector<std::shared_ptr<const DataSet>> slice_meshes;
  if (cfg.algorithm == VizAlgorithm::kVtkGeometry) {
    const CacheLookup extracted =
        IsosurfaceExtractor(cfg.volume_field, iso).run(grid, cache, working_fp);
    iso_mesh = extracted.as<DataSet>();
    out.counters.merge(extracted.recorded); // carries "extract"
    for (int s = 0; s < cfg.num_slices; ++s) {
      const CacheLookup sliced =
          SlicePlaneExtractor(cfg.volume_field, plane_origins[static_cast<std::size_t>(s)],
                              slice_normal(s))
              .run(grid, cache, working_fp);
      slice_meshes.push_back(sliced.as<DataSet>());
      out.counters.merge(sliced.recorded);
    }
  } else if (cfg.algorithm != VizAlgorithm::kRaycastVolume &&
             cfg.algorithm != VizAlgorithm::kRaycastDvr) {
    fail("run_volume: not a volume algorithm");
  }

  // Slice options are per-timestep constants for the raycaster.
  std::vector<SliceRaycastOptions> slice_opts_list;
  for (int s = 0; s < cfg.num_slices; ++s) {
    SliceRaycastOptions slice_opts;
    slice_opts.plane_origin = plane_origins[static_cast<std::size_t>(s)];
    slice_opts.plane_normal = slice_normal(s);
    slice_opts.colormap = &slice_map;
    slice_opts_list.push_back(slice_opts);
  }

  const auto render = [&](const Camera& camera, ImageBuffer& image) {
    if (cfg.algorithm == VizAlgorithm::kVtkGeometry) {
      MeshRenderOptions iso_opts;
      iso_opts.colormap = nullptr;
      iso_opts.uniform_color = iso_map.map(iso);
      raster.render_mesh(static_cast<const TriangleMesh&>(*iso_mesh), camera, image,
                         iso_opts, out.counters);
      MeshRenderOptions slice_opts;
      slice_opts.colormap = &slice_map;
      slice_opts.scalar_field = "scalar";
      for (const auto& mesh : slice_meshes)
        raster.render_mesh(static_cast<const TriangleMesh&>(*mesh), camera, image,
                           slice_opts, out.counters);
    } else if (cfg.algorithm == VizAlgorithm::kRaycastVolume) {
      IsoRaycastOptions iso_opts;
      iso_opts.isovalue = iso;
      iso_opts.uniform_color = iso_map.map(iso);
      raycaster.render_volume_scene(grid, cfg.volume_field, camera, image, iso_opts,
                                    slice_opts_list, out.counters);
    } else {
      DvrRaycastOptions dvr_opts;
      dvr_opts.transfer = &slice_map; // thermal map carries opacity
      raycaster.render_volume_dvr(grid, cfg.volume_field, camera, image, dvr_opts,
                                  out.counters);
    }
  };
  // DVR writes premultiplied output over a transparent background.
  const Vec4f background = cfg.algorithm == VizAlgorithm::kRaycastDvr
                               ? Vec4f{0, 0, 0, 0}
                               : Vec4f{0, 0, 0, 1};
  render_images(cfg, base_camera, background, frame, sink, out.counters, render);
  return out;
}

} // namespace

VizRankOutput run_viz_rank(const DataSet& data, const VizConfig& config,
                           const Camera& base_camera) {
  ImageBuffer frame;
  std::vector<ImageBuffer> images;
  VizRankOutput out = run_viz_rank(data, config, base_camera, frame,
                                   [&](ImageBuffer& image) {
                                     images.push_back(std::move(image));
                                   });
  out.images = std::move(images);
  return out;
}

VizRankOutput run_viz_rank(const DataSet& data, const VizConfig& config,
                           const Camera& base_camera, ImageBuffer& frame,
                           const VizImageSink& sink) {
  require(config.images_per_timestep > 0, "run_viz_rank: need at least one image");
  require(config.image_width > 0 && config.image_height > 0,
          "run_viz_rank: empty image");
  if (is_particle_algorithm(config.algorithm))
    return run_particle(data, config, base_camera, frame, sink);
  return run_volume(data, config, base_camera, frame, sink);
}

} // namespace eth::insitu
