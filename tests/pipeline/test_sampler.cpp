#include "pipeline/sampler.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "data/point_set.hpp"
#include "data/structured_grid.hpp"

namespace eth {
namespace {

std::shared_ptr<PointSet> random_points(Index n, std::uint64_t seed = 1) {
  auto ps = std::make_shared<PointSet>(n);
  Rng rng(seed);
  Field id("id", n, 1);
  for (Index i = 0; i < n; ++i) {
    ps->set_position(i, rng.point_in_box({0, 0, 0}, {10, 10, 10}));
    id.set(i, Real(i));
  }
  ps->point_fields().add(std::move(id));
  return ps;
}

class SamplerRatioTest
    : public ::testing::TestWithParam<std::tuple<double, SamplingMode>> {};

TEST_P(SamplerRatioTest, KeptFractionTracksRatio) {
  const auto [ratio, mode] = GetParam();
  const Index n = 20000;
  const auto out = SpatialSampler(ratio, mode, 77).run(*random_points(n)).as<PointSet>();
  const PointSet& sampled = *out;
  const double kept = double(sampled.num_points()) / double(n);
  EXPECT_NEAR(kept, ratio, 0.02);
}

TEST_P(SamplerRatioTest, OutputIsSubsetWithFieldsIntact) {
  const auto [ratio, mode] = GetParam();
  const auto input = random_points(2000);
  const auto out = SpatialSampler(ratio, mode, 5).run(*input).as<PointSet>();
  const PointSet& sampled = *out;
  const Field& id = sampled.point_fields().get("id");
  for (Index i = 0; i < sampled.num_points(); ++i) {
    // The id field identifies the source particle; its position must
    // match the original exactly.
    const auto src = static_cast<Index>(id.get(i));
    EXPECT_EQ(sampled.position(i), input->position(src));
  }
}

INSTANTIATE_TEST_SUITE_P(
    RatiosAndModes, SamplerRatioTest,
    ::testing::Combine(::testing::Values(0.25, 0.5, 0.75, 1.0),
                       ::testing::Values(SamplingMode::kBernoulli,
                                         SamplingMode::kStride,
                                         SamplingMode::kStratified)));

TEST(SpatialSampler, DeterministicForSeed) {
  const auto a = SpatialSampler(0.5, SamplingMode::kBernoulli, 42)
                     .run(*random_points(1000))
                     .as<PointSet>();
  const auto b = SpatialSampler(0.5, SamplingMode::kBernoulli, 42)
                     .run(*random_points(1000))
                     .as<PointSet>();
  const PointSet& pa = *a;
  const PointSet& pb = *b;
  ASSERT_EQ(pa.num_points(), pb.num_points());
  for (Index i = 0; i < pa.num_points(); ++i)
    EXPECT_EQ(pa.position(i), pb.position(i));
}

TEST(SpatialSampler, SeedChangesSelection) {
  const auto a = SpatialSampler(0.5, SamplingMode::kBernoulli, 1)
                     .run(*random_points(1000))
                     .as<PointSet>();
  const auto b = SpatialSampler(0.5, SamplingMode::kBernoulli, 2)
                     .run(*random_points(1000))
                     .as<PointSet>();
  const PointSet& pa = *a;
  const PointSet& pb = *b;
  // Overwhelmingly unlikely to be identical.
  bool differs = pa.num_points() != pb.num_points();
  if (!differs)
    for (Index i = 0; i < pa.num_points() && !differs; ++i)
      differs = !(pa.position(i) == pb.position(i));
  EXPECT_TRUE(differs);
}

TEST(SpatialSampler, StrideModeIsEvenlySpaced) {
  const auto sampled =
      SpatialSampler(0.25, SamplingMode::kStride, 0).run(*random_points(1000)).as<PointSet>();
  const PointSet& out = *sampled;
  EXPECT_EQ(out.num_points(), 250);
  // Every 4th point exactly.
  const Field& id = out.point_fields().get("id");
  for (Index i = 1; i < out.num_points(); ++i)
    EXPECT_EQ(id.get(i) - id.get(i - 1), 4.0f);
}

TEST(SpatialSampler, FullRatioKeepsEverything) {
  const SpatialSampler sampler(1.0, SamplingMode::kStride, 0);
  EXPECT_EQ(sampler.run(*random_points(123)).as<PointSet>()->num_points(), 123);
}

TEST(SpatialSampler, GridDownsampleKeepsStructureAndSpacing) {
  auto grid = std::make_shared<StructuredGrid>(Vec3i{16, 16, 16}, Vec3f{0, 0, 0},
                                               Vec3f{1, 1, 1});
  Field& f = grid->add_scalar_field("t");
  for (Index i = 0; i < grid->num_points(); ++i) f.set(i, Real(i));

  const SpatialSampler sampler(1.0 / 8.0, SamplingMode::kBernoulli, 0); // stride 2
  const auto out = sampler.run(*grid).as<DataSet>();
  ASSERT_EQ(out->kind(), DataSetKind::kStructuredGrid);
  const auto& g = static_cast<const StructuredGrid&>(*out);
  EXPECT_EQ(g.dims(), (Vec3i{8, 8, 8}));
  EXPECT_EQ(g.spacing(), (Vec3f{2, 2, 2}));
  // Values come from the strided source points.
  const Field& sf = g.point_fields().get("t");
  EXPECT_EQ(sf.get(g.point_index(1, 0, 0)), f.get(grid->point_index(2, 0, 0)));
  EXPECT_EQ(sf.get(g.point_index(0, 1, 1)),
            f.get(grid->point_index(0, 2, 2)));
}

TEST(SpatialSampler, GridKeepsMinimumDims) {
  auto grid = std::make_shared<StructuredGrid>(Vec3i{4, 4, 4}, Vec3f{0, 0, 0},
                                               Vec3f{1, 1, 1});
  grid->add_scalar_field("t");
  const SpatialSampler sampler(0.001, SamplingMode::kBernoulli, 0); // extreme stride
  const auto out = sampler.run(*grid).as<StructuredGrid>();
  const StructuredGrid& g = *out;
  EXPECT_GE(g.dims().x, 2);
  EXPECT_GE(g.dims().y, 2);
  EXPECT_GE(g.dims().z, 2);
}

TEST(SpatialSampler, RejectsBadRatios) {
  EXPECT_THROW(SpatialSampler(0.0), Error);
  EXPECT_THROW(SpatialSampler(1.5), Error);
  EXPECT_THROW(SpatialSampler(-1), Error);
}

TEST(SpatialSampler, CountersRecordWork) {
  const CacheLookup out =
      SpatialSampler(0.5, SamplingMode::kBernoulli, 3).run(*random_points(500));
  EXPECT_EQ(out.recorded.elements_processed, 500);
  EXPECT_GT(out.recorded.bytes_read, 0u);
  EXPECT_GE(out.recorded.phases.get("sample"), 0.0);
}

} // namespace
} // namespace eth
