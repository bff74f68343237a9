// Ablation: spatial-sampling distribution (DESIGN.md §4.4).
//
// The paper's sampler selects "based on some given distribution"; ETH
// ships Bernoulli, stride, and grid-stratified selection. This bench
// compares their throughput and — via a coverage statistic — the
// spatial evenness the stratified mode buys.

#include <benchmark/benchmark.h>

#include "data/point_set.hpp"
#include "pipeline/sampler.hpp"
#include "sim/hacc_generator.hpp"

namespace {

using namespace eth;

std::shared_ptr<const PointSet> particles() {
  static const std::shared_ptr<const PointSet> data = [] {
    sim::HaccParams params;
    params.num_particles = 500000;
    params.num_halos = 32;
    return std::shared_ptr<const PointSet>(sim::generate_hacc(params).release());
  }();
  return data;
}

void BM_Sampler(benchmark::State& state) {
  const auto mode = static_cast<SamplingMode>(state.range(0));
  const double ratio = double(state.range(1)) / 100.0;
  const auto data = particles();
  const SpatialSampler sampler(ratio, mode, 7);
  for (auto _ : state) {
    const auto out = sampler.run(*data).as<DataSet>();
    benchmark::DoNotOptimize(out->num_points());
  }
  state.SetItemsProcessed(state.iterations() * data->num_points());

  // Coverage statistic: fraction of occupied coarse cells that survive
  // sampling (stratified modes should keep sparse regions alive).
  const auto sampled_set = sampler.run(*data).as<PointSet>();
  const PointSet& sampled = *sampled_set;
  const AABB box = data->bounds();
  const auto cell_of = [&](Vec3f p) {
    const Index c = 8;
    const Vec3f rel = (p - box.lo) / eth::max(box.extent(), Vec3f{1e-6f, 1e-6f, 1e-6f});
    const auto axis = [&](Real v) {
      return std::min<Index>(c - 1, static_cast<Index>(v * Real(c)));
    };
    return axis(rel.x) + c * (axis(rel.y) + c * axis(rel.z));
  };
  std::vector<char> full_cells(512, 0), kept_cells(512, 0);
  for (const Vec3f p : data->positions()) full_cells[static_cast<std::size_t>(cell_of(p))] = 1;
  for (const Vec3f p : sampled.positions()) kept_cells[static_cast<std::size_t>(cell_of(p))] = 1;
  Index full = 0, kept = 0;
  for (int c = 0; c < 512; ++c) {
    full += full_cells[static_cast<std::size_t>(c)];
    kept += kept_cells[static_cast<std::size_t>(c)] && full_cells[static_cast<std::size_t>(c)];
  }
  state.counters["cell_coverage"] = double(kept) / double(full);
}
BENCHMARK(BM_Sampler)
    ->ArgsProduct({{int(SamplingMode::kBernoulli), int(SamplingMode::kStride),
                    int(SamplingMode::kStratified)},
                   {50, 10}})
    ->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
