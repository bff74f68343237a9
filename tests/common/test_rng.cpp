#include "common/rng.hpp"

#include <gtest/gtest.h>

#include <set>
#include <vector>

namespace eth {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next_u64() == b.next_u64()) ++same;
  EXPECT_EQ(same, 0);
}

TEST(Rng, ReseedRestartsStream) {
  Rng a(42);
  std::vector<std::uint64_t> first;
  for (int i = 0; i < 10; ++i) first.push_back(a.next_u64());
  a.reseed(42);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(a.next_u64(), first[static_cast<std::size_t>(i)]);

  // Normals too: an odd count leaves a Box-Muller variate cached, and a
  // discarded normal leaves an uncomputed pair; neither survives reseed.
  std::vector<double> normals;
  a.reseed(42);
  for (int i = 0; i < 5; ++i) normals.push_back(a.normal());
  a.reseed(42);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(a.normal(), normals[static_cast<std::size_t>(i)]);
  a.reseed(42);
  a.discard_normal();
  a.reseed(42);
  EXPECT_EQ(a.normal(), normals[0]);
}

TEST(Rng, DiscardsMatchDrawing) {
  // `skipping` discards where `drawing` draws and ignores the values;
  // every value both later draw must agree.
  const auto expect_same_future = [](Rng skipping, Rng drawing) {
    for (int i = 0; i < 10000; ++i) {
      if (i % 3 == 0) {
        ASSERT_EQ(skipping.uniform(), drawing.uniform()) << "value " << i;
      } else {
        ASSERT_EQ(skipping.normal(), drawing.normal()) << "value " << i;
      }
    }
  };

  // A discarded pair leaves its second variate pending: the next normal
  // computes it, from a copy too (the HACC replay checkpoints copies).
  {
    Rng skipping(7), drawing(7);
    skipping.discard_normal();
    drawing.normal();
    skipping.discard(5); // draws leave the pending variate alone
    for (int i = 0; i < 5; ++i) drawing.uniform();
    const Rng checkpoint = skipping;
    expect_same_future(checkpoint, drawing);
    expect_same_future(skipping, drawing);
  }

  // Random interleavings of discards with draws.
  Rng script(2024);
  for (int trial = 0; trial < 50; ++trial) {
    Rng skipping(1000 + static_cast<std::uint64_t>(trial));
    Rng drawing = skipping;
    for (int op = 0; op < 200; ++op) {
      switch (script.uniform_index(4)) {
        case 0: {
          const std::uint64_t n = script.uniform_index(8);
          skipping.discard(n);
          for (std::uint64_t k = 0; k < n; ++k) drawing.next_u64();
          break;
        }
        case 1:
          skipping.discard_normal();
          drawing.normal();
          break;
        case 2:
          ASSERT_EQ(skipping.uniform(), drawing.uniform());
          break;
        default:
          ASSERT_EQ(skipping.normal(), drawing.normal());
          break;
      }
    }
    expect_same_future(skipping, drawing);
  }
}

TEST(Rng, UniformInHalfOpenUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanNearHalf) {
  Rng rng(13);
  double sum = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.uniform();
  // Standard error ~ 1/(sqrt(12 n)) ~ 0.0009; 5 sigma bound.
  EXPECT_NEAR(sum / n, 0.5, 0.005);
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(17);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform(-3.0, 7.0);
    EXPECT_GE(v, -3.0);
    EXPECT_LT(v, 7.0);
  }
}

TEST(Rng, UniformIndexCoversRangeWithoutBias) {
  Rng rng(19);
  const std::uint64_t n = 10;
  std::vector<int> counts(n, 0);
  const int trials = 100000;
  for (int i = 0; i < trials; ++i) ++counts[rng.uniform_index(n)];
  for (const int c : counts) {
    EXPECT_GT(c, trials / int(n) * 8 / 10);
    EXPECT_LT(c, trials / int(n) * 12 / 10);
  }
}

TEST(Rng, BernoulliFrequencyTracksP) {
  Rng rng(23);
  const int trials = 100000;
  int hits = 0;
  for (int i = 0; i < trials; ++i)
    if (rng.bernoulli(0.3)) ++hits;
  EXPECT_NEAR(double(hits) / trials, 0.3, 0.01);
}

TEST(Rng, NormalMomentsMatch) {
  Rng rng(29);
  const int n = 200000;
  double sum = 0, sum2 = 0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal(2.0, 3.0);
    sum += x;
    sum2 += x * x;
  }
  const double mean = sum / n;
  const double var = sum2 / n - mean * mean;
  EXPECT_NEAR(mean, 2.0, 0.05);
  EXPECT_NEAR(var, 9.0, 0.2);
}

TEST(Rng, UnitVectorHasUnitLengthAndCoversHemispheres) {
  Rng rng(31);
  int up = 0;
  const int n = 10000;
  for (int i = 0; i < n; ++i) {
    const Vec3f v = rng.unit_vector();
    EXPECT_NEAR(length(v), 1.0f, 1e-4);
    if (v.z > 0) ++up;
  }
  EXPECT_NEAR(double(up) / n, 0.5, 0.03);
}

TEST(Rng, PointInBoxStaysInBox) {
  Rng rng(37);
  const Vec3f lo{-1, 2, -3}, hi{1, 5, 0};
  for (int i = 0; i < 1000; ++i) {
    const Vec3f p = rng.point_in_box(lo, hi);
    EXPECT_GE(p.x, lo.x);
    EXPECT_LT(p.x, hi.x);
    EXPECT_GE(p.y, lo.y);
    EXPECT_LT(p.y, hi.y);
    EXPECT_GE(p.z, lo.z);
    EXPECT_LT(p.z, hi.z);
  }
}

TEST(Rng, DeriveSeedGivesDistinctStreams) {
  std::set<std::uint64_t> seeds;
  for (std::uint64_t stream = 0; stream < 1000; ++stream)
    seeds.insert(derive_seed(99, stream));
  EXPECT_EQ(seeds.size(), 1000u);
}

TEST(SplitMix64, KnownSequenceIsStable) {
  // Regression pin: derived constants must not drift (they seed every
  // generator in the project).
  SplitMix64 sm(0);
  const std::uint64_t first = sm.next();
  SplitMix64 sm2(0);
  EXPECT_EQ(sm2.next(), first);
  EXPECT_NE(sm.next(), first);
}

} // namespace
} // namespace eth
