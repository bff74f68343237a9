// Cosmology scenario: compare the three HACC rendering methods of the
// paper (raycast spheres, Gaussian splatter, VTK points) on the same
// synthetic dark-matter timestep, at a configurable particle count and
// sampling ratio — a miniature of the paper's Table I / Table II study.
//
//   ./cosmology_hacc [num_particles] [sampling_ratio]

#include <cstdio>
#include <cstdlib>

#include "core/sweep.hpp"

int main(int argc, char** argv) {
  using namespace eth;

  ExperimentSpec base;
  base.name = "cosmology";
  base.application = Application::kHacc;
  base.hacc.num_particles = argc > 1 ? std::atoll(argv[1]) : 80'000;
  base.hacc.num_halos = 48;
  base.timesteps = 1;
  base.viz.image_width = 192;
  base.viz.image_height = 192;
  base.viz.images_per_timestep = 2;
  base.viz.sampling_ratio = argc > 2 ? std::atof(argv[2]) : 1.0;
  base.layout.coupling = cluster::Coupling::kIntercore;
  base.layout.nodes = 8;
  base.layout.ranks = 4;
  base.artifact_dir = "cosmology_artifacts";

  const std::vector<insitu::VizAlgorithm> algorithms = {
      insitu::VizAlgorithm::kRaycastSpheres,
      insitu::VizAlgorithm::kGaussianSplat,
      insitu::VizAlgorithm::kVtkPoints,
  };

  const auto points = sweep_over<insitu::VizAlgorithm>(
      base, algorithms,
      [](const insitu::VizAlgorithm& a) { return std::string(to_string(a)); },
      [](const insitu::VizAlgorithm& a, ExperimentSpec& spec) {
        spec.viz.algorithm = a;
      });

  std::printf("HACC rendering-method comparison (%lld particles, sampling %.2f)\n",
              static_cast<long long>(base.hacc.num_particles),
              base.viz.sampling_ratio);
  const Harness harness;
  const auto outcomes = run_sweep(harness, points, [](const SweepOutcome& o) {
    std::printf("  %-16s done (%.2f s modelled)\n", o.label.c_str(),
                o.result.exec_seconds);
  });

  std::printf("\n%s\n", metrics_table("algorithm", outcomes).to_text().c_str());

  // Quality: RMSE of each method against its own unsampled reference
  // when sampling is active (Table II's comparison).
  if (base.viz.sampling_ratio < 1.0) {
    std::printf("RMSE vs unsampled reference:\n");
    for (const auto& algorithm : algorithms) {
      ExperimentSpec sampled = base;
      sampled.viz.algorithm = algorithm;
      ExperimentSpec reference = sampled;
      reference.viz.sampling_ratio = 1.0;
      const ImageBuffer img_s = Harness::render_reference(sampled);
      const ImageBuffer img_r = Harness::render_reference(reference);
      std::printf("  %-16s RMSE %.4f\n", to_string(algorithm),
                  image_rmse(img_s, img_r));
    }
  }
  return 0;
}
