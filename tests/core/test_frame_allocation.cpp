// Counts the dense frames a harness run allocates. This file replaces the
// global operator new for its whole test binary, which is why it is a
// binary of its own.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "core/harness.hpp"

namespace {

/// Allocations of exactly this many bytes are counted while it is
/// non-zero. Rank threads and pool workers allocate too, so the counter
/// is a global atomic rather than thread-local.
std::atomic<std::size_t> g_counted_size{0};
std::atomic<long> g_counted{0};

} // namespace

void* operator new(std::size_t size) {
  if (size != 0 && size == g_counted_size.load(std::memory_order_relaxed))
    g_counted.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace eth {
namespace {

// 61 x 47 colors take 45872 bytes, a size no other buffer of these runs
// allocates (at 64 x 48, a particle vector's growth also hit 49152).
constexpr Index kWidth = 61;
constexpr Index kHeight = 47;
constexpr int kRanks = 4;
constexpr Index kTimesteps = 2;
constexpr Index kImages = 8;

ExperimentSpec frame_spec(Application application, insitu::VizAlgorithm algorithm) {
  ExperimentSpec spec;
  spec.name = "frame-allocation";
  spec.application = application;
  spec.hacc.num_particles = 3000;
  spec.hacc.num_halos = 8;
  spec.xrage.dims = {20, 16, 16};
  spec.viz.algorithm = algorithm;
  spec.viz.image_width = kWidth;
  spec.viz.image_height = kHeight;
  spec.viz.images_per_timestep = kImages;
  spec.timesteps = kTimesteps;
  spec.layout.coupling = cluster::Coupling::kIntercore;
  spec.layout.nodes = kRanks;
  spec.layout.ranks = kRanks;
  return spec;
}

/// Color blocks of kWidth x kHeight frames allocated by one harness run.
long frames_allocated(const ExperimentSpec& spec) {
  g_counted.store(0);
  g_counted_size.store(static_cast<std::size_t>(kWidth * kHeight) * sizeof(Vec4f));
  const RunResult result = Harness().run(spec);
  g_counted_size.store(0);
  EXPECT_TRUE(result.final_image.has_value());
  EXPECT_EQ(result.timesteps_dropped, 0);
  return g_counted.load();
}

// Rank 0 keeps one frame per image, the merge targets. Every other rank
// renders a timestep's images into one frame and packs each as it is
// rendered.
constexpr long kRankZeroFrames = kTimesteps * kImages;
constexpr long kOtherRankFrames = kTimesteps * (kRanks - 1);

TEST(FrameAllocation, DepthPathAllocatesRankZerosPartialsAndOneFramePerOtherRank) {
  const long frames = frames_allocated(
      frame_spec(Application::kHacc, insitu::VizAlgorithm::kVtkPoints));
  EXPECT_EQ(frames, kRankZeroFrames + kOtherRankFrames); // 22
}

TEST(FrameAllocation, DvrPathAlsoAllocatesOneBlendOutputPerImage) {
  const long frames = frames_allocated(
      frame_spec(Application::kXrage, insitu::VizAlgorithm::kRaycastDvr));
  EXPECT_EQ(frames, kRankZeroFrames + kOtherRankFrames + kTimesteps * kImages); // 38
}

} // namespace
} // namespace eth
