// Ablation: image-compositing strategy (DESIGN.md §4.3).
//
// Two layers:
//  * the measured kernel — depth-merging partial images on the host;
//  * the modelled network — binary swap vs direct-send gather across
//    node counts (the mechanism behind Figure 15's VTK degradation).

#include <benchmark/benchmark.h>

#include "cluster/interconnect.hpp"
#include "common/rng.hpp"
#include "render/compositor.hpp"

namespace {

using namespace eth;

ImageBuffer random_partial(Index size, std::uint64_t seed) {
  ImageBuffer img(size, size);
  img.clear();
  Rng rng(seed);
  for (Index y = 0; y < size; ++y)
    for (Index x = 0; x < size; ++x)
      if (rng.bernoulli(0.4))
        img.depth_test_set(x, y, {Real(rng.uniform()), 0.5f, 0.5f, 1},
                           Real(rng.uniform(1, 100)));
  return img;
}

void BM_DepthComposite(benchmark::State& state) {
  const Index size = state.range(0);
  ImageBuffer dst = random_partial(size, 1);
  const ImageBuffer src = random_partial(size, 2);
  cluster::PerfCounters counters;
  for (auto _ : state) {
    depth_composite(std::span(&src, 1), dst, counters);
    benchmark::DoNotOptimize(dst.colors().data());
  }
  state.SetItemsProcessed(state.iterations() * size * size);
}
BENCHMARK(BM_DepthComposite)->Arg(128)->Arg(256)->Arg(512);

void BM_AlphaComposite(benchmark::State& state) {
  const Index size = state.range(0);
  std::vector<ImageBuffer> partials;
  for (int p = 0; p < 4; ++p) partials.push_back(random_partial(size, 10 + p));
  const std::vector<std::size_t> order{0, 1, 2, 3};
  cluster::PerfCounters counters;
  for (auto _ : state) {
    ImageBuffer out(size, size);
    out.clear({0, 0, 0, 0});
    alpha_composite_premultiplied(partials, order, out, counters);
    benchmark::DoNotOptimize(out.colors().data());
  }
  state.SetItemsProcessed(state.iterations() * size * size * 4);
}
BENCHMARK(BM_AlphaComposite)->Arg(128)->Arg(256);

/// Modelled network cost: binary swap stays ~flat with node count while
/// direct send grows linearly — printed as counters for inspection.
void BM_ModelledCompositeNetwork(benchmark::State& state) {
  const int nodes = static_cast<int>(state.range(0));
  const cluster::InterconnectModel net(cluster::MachineSpec::hikari());
  const Bytes image = 256 * 256 * 20;
  double swap = 0, direct = 0;
  for (auto _ : state) {
    swap = net.binary_swap_time(image, nodes);
    direct = net.incast_time(image, nodes - 1);
    benchmark::DoNotOptimize(swap);
    benchmark::DoNotOptimize(direct);
  }
  state.counters["swap_us"] = swap * 1e6;
  state.counters["direct_us"] = direct * 1e6;
  state.counters["direct/swap"] = direct / swap;
}
BENCHMARK(BM_ModelledCompositeNetwork)->Arg(4)->Arg(64)->Arg(216)->Arg(432);

} // namespace

BENCHMARK_MAIN();
