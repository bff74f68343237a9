// Coupling explorer: the paper's headline "what if" workflow (§VII).
//
// The job layout lives in a plain config file, the format eth_explore
// reads (core/spec_config.hpp). This example writes one per coupling
// strategy, loads it back exactly like a user editing the file would,
// runs the identical workload under each, and tabulates the trade-off —
// reproducing the decision process behind Figure 11 and Finding 6.
//
//   ./coupling_explorer [num_particles]

#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "core/spec_config.hpp"

int main(int argc, char** argv) {
  using namespace eth;

  const long long particles = argc > 1 ? std::atoll(argv[1]) : 60'000;

  const Harness harness;
  std::vector<SweepOutcome> outcomes;
  for (const char* coupling : {"tight", "intercore", "internode"}) {
    // The §VII workflow: edit the layout lines of a config file, re-run.
    const std::string path = std::string("coupling_") + coupling + ".cfg";
    {
      std::ofstream f(path);
      f << "name coupling-" << coupling << "\n"
        << "application hacc\n"
        << "particles " << particles << "\n"
        << "timesteps 2\n" // internode pipelining only shows with >1 step
        << "algorithm gaussian-splat\n"
        << "image_size 160x160\n"
        << "images 2\n"
        << "# job layout\n"
        << "coupling " << coupling << "\n"
        << "nodes 8\n"
        << "ranks 4\n";
      require(f.good(), "coupling_explorer: cannot write '" + path + "'");
    }
    const std::vector<SweepPoint> points = load_experiment_config(path);
    std::printf("running layout file %s (coupling %s)\n", path.c_str(), coupling);
    outcomes.push_back({coupling, harness.run(points.front().spec)});
  }

  std::printf("\n%s\n", metrics_table("coupling", outcomes).to_text().c_str());

  std::size_t best = 0;
  for (std::size_t i = 1; i < outcomes.size(); ++i)
    if (outcomes[i].result.energy < outcomes[best].result.energy) best = i;
  std::printf("lowest-energy coupling for this workload: %s\n",
              outcomes[best].label.c_str());
  return 0;
}
