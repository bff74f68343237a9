// bench_parallel_render — wall-clock speedup of the hot visualization
// kernels when the thread pool grows from 1 worker to N.
//
// Unlike the paper-reproduction benches (which time CPU seconds per
// modelled rank), this bench exists to validate the tentpole threading
// work: the same kernels, the same inputs, a 1-worker pool vs pools of
// 2/4/hardware workers, WallTimer around the kernel only. Output is
// bit-identical at every thread count (asserted here via image RMSE ==
// 0 against the 1-thread run), so any wall-clock difference is pure
// scheduling. On a single-core container every pool degrades to ~1x —
// the speedup column is only meaningful where the host actually has
// cores to spread over.

#include <cmath>
#include <cstdio>
#include <functional>
#include <memory>
#include <vector>

#include "bench_common.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "data/point_set.hpp"
#include "data/structured_grid.hpp"
#include "data/triangle_mesh.hpp"
#include "parallel/thread_pool.hpp"
#include "pipeline/isosurface.hpp"
#include "render/colormap.hpp"
#include "render/compositor.hpp"
#include "render/raster/rasterizer.hpp"
#include "render/ray/raycaster.hpp"

namespace eth::bench {
namespace {

constexpr Index kImageDim = 512;
constexpr int kRepeats = 3;

Camera bench_camera() {
  return Camera({0, 0, 10}, {0, 0, 0}, {0, 1, 0}, 0.6f, 0.1f, 100);
}

std::shared_ptr<PointSet> particle_cloud(Index n) {
  auto ps = std::make_shared<PointSet>(n);
  Rng rng(2024);
  Field scalar("speed", n, 1);
  for (Index i = 0; i < n; ++i) {
    ps->set_position(i, {Real(rng.uniform(-3, 3)), Real(rng.uniform(-3, 3)),
                         Real(rng.uniform(-3, 3))});
    scalar.set(i, Real(rng.uniform()));
  }
  ps->point_fields().add(std::move(scalar));
  return ps;
}

std::shared_ptr<StructuredGrid> volume(Index dim) {
  const Real step = Real(6) / Real(dim - 1);
  auto grid = std::make_shared<StructuredGrid>(Vec3i{int(dim), int(dim), int(dim)},
                                               Vec3f{-3, -3, -3},
                                               Vec3f{step, step, step});
  Field& f = grid->add_scalar_field("v");
  for (Index k = 0; k < dim; ++k)
    for (Index j = 0; j < dim; ++j)
      for (Index i = 0; i < dim; ++i) {
        const Vec3f p = grid->point_position(i, j, k);
        f.set(grid->point_index(i, j, k),
              std::sin(p.x * Real(1.3)) * std::cos(p.y) + Real(0.3) * p.z);
      }
  return grid;
}

/// Best-of-kRepeats wall seconds for `kernel` under a `threads`-worker
/// pool; stores the produced image in `out` for the bit-identity check.
double time_kernel(unsigned threads,
                   const std::function<ImageBuffer()>& kernel, ImageBuffer& out) {
  ThreadPool pool(threads);
  set_global_pool(&pool);
  double best = 1e30;
  for (int r = 0; r < kRepeats; ++r) {
    WallTimer timer;
    out = kernel();
    best = std::min(best, timer.elapsed());
  }
  set_global_pool(nullptr);
  return best;
}

struct Scene {
  const char* name;
  std::function<ImageBuffer()> kernel;
};

} // namespace
} // namespace eth::bench

int main() {
  using namespace eth;
  using namespace eth::bench;

  const unsigned hw = default_thread_count();
  print_header("bench_parallel_render", "the tentpole threading work",
               "Wall-clock speedup of the hot render kernels, 1 worker vs N.");
  std::printf("host threads (ETH_THREADS or hardware): %u\n", hw);

  const auto points = particle_cloud(200'000);
  const auto grid = volume(96);
  const TransferFunction viridis = TransferFunction::viridis();
  const TransferFunction thermal = TransferFunction::thermal().rescaled(-2, 2);

  // Shared per-scene setup runs once, outside the timed kernel, exactly
  // as the harness charges build vs render.
  RaycastRenderer raycaster;
  SphereRaycastOptions sphere_opts;
  sphere_opts.world_radius = 0.03f;
  sphere_opts.colormap = &viridis;
  sphere_opts.scalar_field = "speed";
  cluster::PerfCounters setup_counters;
  raycaster.build_spheres(*points, sphere_opts, setup_counters);

  const auto iso_mesh = IsosurfaceExtractor("v", 0.4f).run(*grid).as<DataSet>();

  const std::vector<Scene> scenes = {
      {"raycast_spheres",
       [&] {
         ImageBuffer img(kImageDim, kImageDim);
         img.clear();
         cluster::PerfCounters c;
         raycaster.render_spheres(*points, bench_camera(), img, sphere_opts, c);
         return img;
       }},
      {"raycast_volume",
       [&] {
         ImageBuffer img(kImageDim, kImageDim);
         img.clear();
         cluster::PerfCounters c;
         IsoRaycastOptions iso;
         iso.isovalue = 0.4f;
         raycaster.render_volume_scene(*grid, "v", bench_camera(), img, iso, {}, c);
         return img;
       }},
      {"raster_mesh",
       [&] {
         ImageBuffer img(kImageDim, kImageDim);
         img.clear();
         cluster::PerfCounters c;
         RasterRenderer raster;
         raster.render_mesh(static_cast<const TriangleMesh&>(*iso_mesh),
                            bench_camera(), img, {}, c);
         return img;
       }},
      {"raster_splats",
       [&] {
         ImageBuffer img(kImageDim, kImageDim);
         img.clear();
         cluster::PerfCounters c;
         SplatRenderOptions opts;
         opts.world_radius = 0.03f;
         RasterRenderer raster;
         raster.render_splats(*points, bench_camera(), img, opts, c);
         return img;
       }},
  };

  std::vector<unsigned> thread_counts{1, 2, 4};
  if (hw > 4) thread_counts.push_back(hw);

  ResultTable table({"kernel", "threads", "wall_s", "speedup", "identical"});
  bool all_identical = true;
  for (const Scene& scene : scenes) {
    ImageBuffer golden;
    double serial_s = 0;
    for (const unsigned threads : thread_counts) {
      ImageBuffer img;
      const double wall = time_kernel(threads, scene.kernel, img);
      if (threads == 1) {
        golden = img;
        serial_s = wall;
      }
      const bool identical = image_rmse(golden, img) == 0.0;
      all_identical = all_identical && identical;
      table.begin_row();
      table.add_cell(scene.name);
      table.add_cell(Index(threads));
      table.add_cell(wall, "%.4f");
      table.add_cell(serial_s / wall, "%.2f");
      table.add_cell(identical ? "yes" : "NO");
    }
  }

  std::printf("%s\n", table.to_text().c_str());
  check_shape(all_identical, "N-thread images bit-identical to 1-thread run");
  save_table(table, "parallel_render");
  return 0;
}
