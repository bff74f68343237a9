// Ablation: cost-model inputs (DESIGN.md §4.1).
//
// Two studies:
//  * The volume raycaster's isosurface march on ETH's synthetic
//    asteroid field: time and fine steps per ray.
//  * Rendering-kernel throughput per algorithm — the raw measured
//    quantities (per-thread CPU time) that feed the cluster model.

#include <benchmark/benchmark.h>

#include "common/timer.hpp"
#include "insitu/viz.hpp"
#include "render/ray/raycaster.hpp"
#include "sim/hacc_generator.hpp"
#include "sim/xrage_generator.hpp"

namespace {

using namespace eth;

const StructuredGrid& asteroid() {
  static const std::unique_ptr<StructuredGrid> grid = [] {
    sim::XrageParams params;
    params.dims = {120, 74, 64};
    params.timestep = 6;
    return sim::generate_xrage(params);
  }();
  return *grid;
}

void BM_IsoRaycast(benchmark::State& state) {
  const StructuredGrid& grid = asteroid();
  const Camera camera = Camera::framing(grid.bounds(), {-0.5f, -0.4f, -0.75f});
  RaycastRenderer renderer;
  cluster::PerfCounters counters;
  IsoRaycastOptions options;
  options.isovalue = 0.5f;
  for (auto _ : state) {
    ImageBuffer image(128, 128);
    image.clear();
    renderer.render_volume_iso(grid, "temperature", camera, image, options, counters);
    benchmark::DoNotOptimize(image.colors().data());
  }
  state.SetItemsProcessed(state.iterations() * 128 * 128);
  state.counters["steps/ray"] =
      double(counters.ray_steps) / double(counters.rays_cast);
}
BENCHMARK(BM_IsoRaycast)->Unit(benchmark::kMillisecond);

void BM_VizKernel(benchmark::State& state) {
  const auto algorithm = static_cast<insitu::VizAlgorithm>(state.range(0));
  insitu::VizConfig cfg;
  cfg.algorithm = algorithm;
  cfg.image_width = 128;
  cfg.image_height = 128;
  cfg.images_per_timestep = 2;

  std::unique_ptr<DataSet> data;
  if (insitu::is_particle_algorithm(algorithm)) {
    sim::HaccParams params;
    params.num_particles = 100000;
    data = sim::generate_hacc(params);
  } else {
    data = asteroid().clone();
  }
  const Camera camera = Camera::framing(data->bounds(), {-0.5f, -0.4f, -0.75f});

  double cpu_seconds = 0;
  for (auto _ : state) {
    ThreadCpuTimer timer;
    const auto out = insitu::run_viz_rank(*data, cfg, camera);
    cpu_seconds = timer.elapsed();
    benchmark::DoNotOptimize(out.images.size());
  }
  // The measured-compute model input: per-thread CPU seconds per
  // timestep of this kernel at this data size.
  state.counters["cpu_s_per_step"] = cpu_seconds;
}
BENCHMARK(BM_VizKernel)
    ->Arg(int(insitu::VizAlgorithm::kRaycastSpheres))
    ->Arg(int(insitu::VizAlgorithm::kGaussianSplat))
    ->Arg(int(insitu::VizAlgorithm::kVtkPoints))
    ->Arg(int(insitu::VizAlgorithm::kVtkGeometry))
    ->Arg(int(insitu::VizAlgorithm::kRaycastVolume))
    ->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
