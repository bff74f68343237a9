// The process allocator policy (parallel/thread_pool.cpp; DESIGN.md
// "Threading model", "Process memory"): freed frames, packed partials
// and raster scratch stay in the one malloc heap, so a steady run
// faults in no fresh pages. ctest runs each test in its own process,
// which keeps the process-wide fault counter this test reads clean.

#include <sys/resource.h>

#include <gtest/gtest.h>

#include <string>

#include "cache_state_guard.hpp"
#include "core/artifact_cache.hpp"
#include "core/harness.hpp"
#include "parallel/thread_pool.hpp"

namespace eth {
namespace {

long minor_faults() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_minflt;
}

TEST(AllocatorPolicy, SteadyStateRunsFaultInNoFreshPages) {
  if (std::string(allocator_policy_label()) != "glibc-1arena")
    GTEST_SKIP() << "allocator policy is '" << allocator_policy_label()
                 << "': a sanitizer or a non-glibc malloc owns the heap";

  ExperimentSpec spec;
  spec.name = "allocator-policy";
  spec.application = Application::kHacc;
  spec.hacc.num_particles = 40000;
  spec.timesteps = 2;
  spec.viz.algorithm = insitu::VizAlgorithm::kVtkPoints;
  spec.viz.image_width = 256;
  spec.viz.image_height = 256;
  spec.viz.images_per_timestep = 8;
  spec.layout.nodes = 4;
  spec.layout.ranks = 4;

  // Run 1 grows the heap to its high-water mark. Each later run starts
  // from an empty cache, so it allocates everything run 1 did; the
  // frames, partials and scratch must come back from the heap. Before
  // the policy each such run took 8.7-11.8k minor faults.
  CacheStateGuard guard;
  const Harness harness;
  for (int run = 1; run <= 4; ++run) {
    global_artifact_cache().clear();
    const long before = minor_faults();
    harness.run(spec);
    const long faults = minor_faults() - before;
    if (run > 1) {
      EXPECT_LT(faults, 1000) << "run " << run;
    }
  }
}

} // namespace
} // namespace eth
