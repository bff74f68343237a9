#include "render/compositor.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <numeric>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/simd.hpp"
#include "parallel/thread_pool.hpp"

namespace eth {
namespace {

ImageBuffer solid(Index w, Index h, Vec4f color, Real depth) {
  ImageBuffer img(w, h);
  img.clear();
  for (Index y = 0; y < h; ++y)
    for (Index x = 0; x < w; ++x) img.depth_test_set(x, y, color, depth);
  return img;
}

TEST(Compositor, PairMergeKeepsNearest) {
  ImageBuffer dst = solid(4, 4, {1, 0, 0, 1}, 5.0f);
  const ImageBuffer near_img = solid(4, 4, {0, 1, 0, 1}, 2.0f);
  cluster::PerfCounters counters;
  depth_composite(std::span(&near_img, 1), dst, counters);
  EXPECT_EQ(dst.color(1, 1), (Vec4f{0, 1, 0, 1}));
  EXPECT_EQ(dst.depth(1, 1), 2.0f);

  const ImageBuffer far_img = solid(4, 4, {0, 0, 1, 1}, 9.0f);
  depth_composite(std::span(&far_img, 1), dst, counters);
  EXPECT_EQ(dst.color(1, 1), (Vec4f{0, 1, 0, 1})); // unchanged
}

TEST(Compositor, DepthCompositeIsOrderIndependent) {
  // Random per-pixel depths; composing in any order yields the same
  // image (the core sort-last property).
  Rng rng(12);
  std::vector<ImageBuffer> partials;
  for (int p = 0; p < 4; ++p) {
    ImageBuffer img(8, 8);
    img.clear();
    for (Index y = 0; y < 8; ++y)
      for (Index x = 0; x < 8; ++x)
        if (rng.bernoulli(0.6))
          img.depth_test_set(x, y, {Real(p) * 0.25f, 0.5f, 1.0f - Real(p) * 0.25f, 1},
                             Real(rng.uniform(1, 20)));
    partials.push_back(std::move(img));
  }

  cluster::PerfCounters counters;
  ImageBuffer forward(8, 8);
  forward.clear();
  depth_composite(partials, forward, counters);

  std::vector<ImageBuffer> reversed(partials.rbegin(), partials.rend());
  ImageBuffer backward(8, 8);
  backward.clear();
  depth_composite(reversed, backward, counters);

  for (Index y = 0; y < 8; ++y)
    for (Index x = 0; x < 8; ++x) {
      EXPECT_EQ(forward.color(x, y), backward.color(x, y));
      EXPECT_EQ(forward.depth(x, y), backward.depth(x, y));
    }
}

TEST(Compositor, EqualDepthTieResolvesToLowestPartialIndex) {
  // Regression: ties used to fall to whichever partial happened to be
  // merged last. The contract is now explicit — equal winning depths
  // resolve to the LOWEST partial index (lowest rank), in every code
  // path.
  std::vector<ImageBuffer> partials;
  for (int p = 0; p < 3; ++p)
    partials.push_back(solid(4, 4, {Real(p), Real(p), Real(p), 1}, 5.0f));

  cluster::PerfCounters counters;
  ImageBuffer out(4, 4);
  out.clear();
  depth_composite(partials, out, counters);
  EXPECT_EQ(out.color(2, 2), (Vec4f{0, 0, 0, 1})); // partial 0 wins

  // Merging into a drawn frame: the frame keeps ties, as rank 0's own
  // partial does in the harness's in-place merge.
  ImageBuffer dst = solid(4, 4, {1, 0, 0, 1}, 5.0f);
  depth_composite(std::span(&partials[2], 1), dst, counters);
  EXPECT_EQ(dst.color(1, 1), (Vec4f{1, 0, 0, 1}));

  // Reduction tree: same answer.
  std::vector<ImageBuffer> tree_partials;
  for (int p = 0; p < 3; ++p)
    tree_partials.push_back(solid(4, 4, {Real(p), Real(p), Real(p), 1}, 5.0f));
  depth_composite_tree(tree_partials, counters);
  EXPECT_EQ(tree_partials[0].color(2, 2), (Vec4f{0, 0, 0, 1}));
}

TEST(Compositor, TreeMatchesSequentialFold) {
  // Random depths quantized to a handful of values, so exact cross-rank
  // ties are common: the pairwise tree must still be bit-identical to
  // the sequential rank-order fold.
  Rng rng(41);
  std::vector<ImageBuffer> partials;
  for (int p = 0; p < 5; ++p) { // deliberately not a power of two
    ImageBuffer img(16, 16);
    img.clear();
    for (Index y = 0; y < 16; ++y)
      for (Index x = 0; x < 16; ++x)
        if (rng.bernoulli(0.8))
          img.depth_test_set(x, y, {Real(p) * 0.25f, 1.0f - Real(p) * 0.25f, 0.5f, 1},
                             Real(int(rng.uniform(1, 5))));
    partials.push_back(std::move(img));
  }

  cluster::PerfCounters counters;
  ImageBuffer folded(16, 16);
  folded.clear();
  depth_composite(partials, folded, counters);

  std::vector<ImageBuffer> tree_partials = partials;
  depth_composite_tree(tree_partials, counters);

  for (Index y = 0; y < 16; ++y)
    for (Index x = 0; x < 16; ++x) {
      EXPECT_EQ(folded.color(x, y), tree_partials[0].color(x, y));
      EXPECT_EQ(folded.depth(x, y), tree_partials[0].depth(x, y));
    }
}

TEST(Compositor, SizeMismatchThrows) {
  ImageBuffer a(4, 4);
  const ImageBuffer b(5, 4);
  cluster::PerfCounters counters;
  EXPECT_THROW(depth_composite(std::span(&b, 1), a, counters), Error);
}

TEST(Compositor, AlphaCompositeRespectsOrder) {
  // Front partial half-transparent red, back partial opaque blue, both
  // premultiplied like the DVR renderer's output.
  ImageBuffer front(2, 2), back(2, 2);
  front.clear({0, 0, 0, 0});
  back.clear({0, 0, 0, 0});
  for (Index y = 0; y < 2; ++y)
    for (Index x = 0; x < 2; ++x) {
      front.set_color(x, y, {0.5f, 0, 0, 0.5f});
      back.set_color(x, y, {0, 0, 1, 1.0f});
    }
  const std::vector<ImageBuffer> partials = [&] {
    std::vector<ImageBuffer> v;
    v.push_back(front);
    v.push_back(back);
    return v;
  }();

  cluster::PerfCounters counters;
  ImageBuffer out(2, 2);
  out.clear({0, 0, 0, 0});
  const std::vector<std::size_t> order{0, 1}; // front first
  alpha_composite_premultiplied(partials, order, out, counters);
  const Vec4f c = out.color(0, 0);
  EXPECT_NEAR(c.x, 0.5f, 1e-5);
  EXPECT_NEAR(c.z, 0.5f, 1e-5);
  EXPECT_NEAR(c.w, 1.0f, 1e-5);

  // Reversed order: blue fully occludes red.
  ImageBuffer out2(2, 2);
  out2.clear({0, 0, 0, 0});
  const std::vector<std::size_t> rev{1, 0};
  alpha_composite_premultiplied(partials, rev, out2, counters);
  EXPECT_NEAR(out2.color(0, 0).z, 1.0f, 1e-5);
  EXPECT_NEAR(out2.color(0, 0).x, 0.0f, 1e-5);
}

TEST(Compositor, AlphaCompositeValidatesOrder) {
  std::vector<ImageBuffer> partials;
  partials.emplace_back(2, 2);
  cluster::PerfCounters counters;
  ImageBuffer out(2, 2);
  const std::vector<std::size_t> bad_size{0, 0};
  EXPECT_THROW(alpha_composite_premultiplied(partials, bad_size, out, counters), Error);
  const std::vector<std::size_t> bad_index{7};
  EXPECT_THROW(alpha_composite_premultiplied(partials, bad_index, out, counters), Error);
  const std::vector<ImageBuffer> wide(1, ImageBuffer(3, 2));
  const std::vector<std::size_t> first{0};
  EXPECT_THROW(alpha_composite_premultiplied(wide, first, out, counters), Error);
}

TEST(Compositor, PackUnpackRoundTrip) {
  Rng rng(31);
  ImageBuffer img(7, 5);
  img.clear();
  for (Index y = 0; y < 5; ++y)
    for (Index x = 0; x < 7; ++x)
      img.depth_test_set(x, y,
                         {Real(rng.uniform()), Real(rng.uniform()),
                          Real(rng.uniform()), 1},
                         Real(rng.uniform(1, 50)));
  const auto bytes = pack_image(img);
  const ImageBuffer restored = unpack_image(bytes);
  ASSERT_EQ(restored.width(), 7);
  ASSERT_EQ(restored.height(), 5);
  for (Index y = 0; y < 5; ++y)
    for (Index x = 0; x < 7; ++x) {
      EXPECT_EQ(restored.color(x, y), img.color(x, y));
      EXPECT_EQ(restored.depth(x, y), img.depth(x, y));
    }
}

TEST(Compositor, UnpackRejectsCorruptBuffers) {
  auto bytes = pack_image(ImageBuffer(3, 3));
  EXPECT_EQ(bytes.size(), packed_image_bytes(ImageBuffer(3, 3)));
  bytes.pop_back();
  EXPECT_THROW(unpack_image(bytes), Error);
  bytes.push_back(0);
  bytes.push_back(0);
  EXPECT_THROW(unpack_image(bytes), Error);

  // Headers claiming frames their payload cannot fill are rejected
  // before anything is allocated: 20000 x 20000 would be a 7.6 GB frame
  // and 2^20 x 2^20 pixels overflow the 20-byte-per-pixel size.
  for (const std::int64_t side : {std::int64_t(20000), std::int64_t(1) << 20}) {
    std::vector<std::uint8_t> header(2 * sizeof(std::int64_t));
    std::memcpy(header.data(), &side, sizeof side);
    std::memcpy(header.data() + sizeof side, &side, sizeof side);
    EXPECT_THROW(unpack_image(header), Error) << side;
  }
}

// ---- Sparse active-rectangle exchange against the dense reference.

constexpr Real kInf = std::numeric_limits<Real>::infinity();
constexpr Real kNaN = std::numeric_limits<Real>::quiet_NaN();

/// Pin the dispatched ISA for one scope; restores the ETH_SIMD
/// environment resolution on exit.
class ScopedIsa {
public:
  explicit ScopedIsa(const char* name) { simd::set_isa_override(name); }
  ~ScopedIsa() { simd::set_isa_override(nullptr); }

  ScopedIsa(const ScopedIsa&) = delete;
  ScopedIsa& operator=(const ScopedIsa&) = delete;
};

/// Swap the global pool for a 4-worker one, so row bands fan out.
class ScopedPool {
public:
  ScopedPool() : pool_(4) { set_global_pool(&pool_); }
  ~ScopedPool() { set_global_pool(nullptr); }

  ScopedPool(const ScopedPool&) = delete;
  ScopedPool& operator=(const ScopedPool&) = delete;

private:
  ThreadPool pool_;
};

enum class Rect { kEmpty, kSinglePixel, kEdgeTouching, kFullFrame, kInterior };

template <typename T>
T pick(Rng& rng, std::initializer_list<T> values) {
  return values.begin()[rng.uniform_index(values.size())];
}

/// A random partial whose active pixels (for `blend`) have exactly the
/// bounding rectangle `rect`. Inactive pixels carry garbage that a merge
/// must never adopt: random colors with +inf or NaN depths (depth), or
/// random colors and depths with alpha 0, -0.0 or negative (blend).
/// Depths and alphas come from small sets, so cross-rank ties are common
/// and -0.0, NaN and +inf appear everywhere. `nan_depths` is off where a
/// NaN depth would make the tree differ from the fold (see below).
ImageBuffer random_partial(Rng& rng, Index w, Index h, PartialBlend blend, Rect rect,
                           bool nan_depths) {
  Index x0 = 0, x1 = 0, y0 = 0, y1 = 0;
  const auto below = [&](Index n) {
    return static_cast<Index>(rng.uniform_index(static_cast<std::uint64_t>(n)));
  };
  switch (rect) {
    case Rect::kEmpty: break;
    case Rect::kSinglePixel:
      x0 = below(w), y0 = below(h), x1 = x0 + 1, y1 = y0 + 1;
      break;
    case Rect::kEdgeTouching:
      x0 = 0, x1 = 1 + below(w), y0 = below(h), y1 = h;
      break;
    case Rect::kFullFrame:
      x1 = w, y1 = h;
      break;
    case Rect::kInterior:
      x0 = 1 + below(w - 2), x1 = x0 + 1 + below(w - 1 - x0);
      y0 = 1 + below(h - 2), y1 = y0 + 1 + below(h - 1 - y0);
      break;
  }
  const auto inside = [&](Index x, Index y) { return x >= x0 && x < x1 && y >= y0 && y < y1; };
  // Two opposite corners are always active, so `rect` is exactly the
  // bounding rectangle.
  const auto corner = [&](Index x, Index y) {
    return inside(x, y) && ((x == x0 && y == y0) || (x == x1 - 1 && y == y1 - 1));
  };
  const auto depth = [&](bool active) {
    if (active) return pick<Real>(rng, {1, 2, 3, 0.0f, -0.0f});
    return nan_depths ? pick<Real>(rng, {kInf, kNaN}) : kInf;
  };
  ImageBuffer img(w, h);
  for (Index y = 0; y < h; ++y)
    for (Index x = 0; x < w; ++x) {
      const bool active = corner(x, y) || (inside(x, y) && rng.bernoulli(0.7));
      Vec4f c{Real(rng.uniform(-1, 2)), Real(rng.uniform(-1, 2)), Real(rng.uniform(-1, 2)),
              Real(rng.uniform(0, 1))};
      if (blend == PartialBlend::kDepth) {
        img.set_depth(x, y, depth(active));
      } else {
        c.w = active ? pick<Real>(rng, {0.25f, 0.5f, 1, 2, kNaN})
                     : pick<Real>(rng, {0.0f, -0.0f, -0.5f});
        img.set_depth(x, y, pick<Real>(rng, {1, 2, 0.0f, -0.0f, kInf, kNaN}));
      }
      img.set_color(x, y, c);
    }
  return img;
}

bool same_bytes(const ImageBuffer& a, const ImageBuffer& b) {
  return a.width() == b.width() && a.height() == b.height() &&
         std::memcmp(a.colors().data(), b.colors().data(),
                     a.colors().size() * sizeof(Vec4f)) == 0 &&
         std::memcmp(a.depths().data(), b.depths().data(),
                     a.depths().size() * sizeof(Real)) == 0;
}

std::vector<std::vector<std::uint8_t>> pack_others(const std::vector<ImageBuffer>& partials,
                                                   PartialBlend blend) {
  std::vector<std::vector<std::uint8_t>> out;
  for (std::size_t k = 1; k < partials.size(); ++k)
    out.push_back(pack_partial(partials[k], blend));
  return out;
}

TEST(Compositor, SparsePartialsMatchDenseReference) {
  const ScopedPool pool;
  Rng rng(2024);
  for (const char* isa : {"scalar", "native"}) {
    const ScopedIsa scoped_isa(isa);
    for (const int M : {1, 2, 3, 5}) {
      for (int trial = 0; trial < 12; ++trial) {
        SCOPED_TRACE(std::string(isa) + " M=" + std::to_string(M) + " trial " +
                     std::to_string(trial));
        const Index w = 13 + trial, h = 29 - trial;
        for (const PartialBlend blend : {PartialBlend::kDepth, PartialBlend::kPremultiplied}) {
          std::vector<ImageBuffer> partials;
          for (int k = 0; k < M; ++k) {
            // The tree keeps a NaN destination, so a NaN depth at a tree
            // subtree root (even k > 0 with a right neighbour) hides that
            // subtree; everywhere else tree and fold agree on NaN.
            const bool nan_ok = k == 0 || k % 2 == 1 || k + 1 == M;
            const Rect rect = static_cast<Rect>((trial + k) % 5);
            partials.push_back(random_partial(rng, w, h, blend, rect, nan_ok));
          }
          const auto packed = pack_others(partials, blend);
          cluster::PerfCounters dense_counters, sparse_counters;
          if (blend == PartialBlend::kDepth) {
            std::vector<ImageBuffer> tree = partials;
            depth_composite_tree(tree, dense_counters);
            ImageBuffer sparse = partials[0];
            depth_composite_partials(sparse, packed, sparse_counters);
            EXPECT_TRUE(same_bytes(sparse, tree[0])) << "depth";
          } else {
            std::vector<std::size_t> order(static_cast<std::size_t>(M));
            std::iota(order.begin(), order.end(), std::size_t(0));
            for (std::size_t i = order.size(); i > 1; --i)
              std::swap(order[i - 1], order[rng.uniform_index(i)]);
            ImageBuffer dense(w, h);
            dense.clear({0, 0, 0, 0});
            alpha_composite_premultiplied(partials, order, dense, dense_counters);
            const ImageBuffer sparse =
                alpha_composite_partials(partials[0], packed, order, sparse_counters);
            EXPECT_TRUE(same_bytes(sparse, dense)) << "premultiplied";
          }
          EXPECT_EQ(sparse_counters.elements_processed, dense_counters.elements_processed);
          EXPECT_EQ(sparse_counters.flop_estimate, dense_counters.flop_estimate);
        }
      }
    }
  }
}

TEST(Compositor, SparsePartialSendsOnlyItsActiveRectangle) {
  ImageBuffer img(10, 7);
  img.clear();
  EXPECT_EQ(pack_partial(img, PartialBlend::kDepth).size(), 6 * sizeof(std::int64_t));
  img.set_depth(3, 2, 1.0f);
  img.set_depth(6, 4, 2.0f);
  const auto bytes = pack_partial(img, PartialBlend::kDepth);
  std::int64_t header[6];
  std::memcpy(header, bytes.data(), sizeof header);
  EXPECT_EQ(std::vector<std::int64_t>(header, header + 6),
            (std::vector<std::int64_t>{10, 7, 3, 7, 2, 5}));
  EXPECT_EQ(bytes.size(), sizeof header + 4 * 3 * (sizeof(Vec4f) + sizeof(Real)));
  // Alpha <= 0 is inactive for the blend; NaN alpha is not.
  img.clear({0, 0, 0, 0});
  img.set_color(9, 6, {0, 0, 0, -0.0f});
  img.set_color(8, 0, {0, 0, 0, -1});
  EXPECT_EQ(pack_partial(img, PartialBlend::kPremultiplied).size(), sizeof header);
  img.set_color(5, 5, {0, 0, 0, kNaN});
  EXPECT_EQ(pack_partial(img, PartialBlend::kPremultiplied).size(),
            sizeof header + sizeof(Vec4f) + sizeof(Real));
}

// A NaN depth where the tree puts a subtree root (partial 2 of 4)
// hides that subtree from the tree, because a pair merge keeps its NaN
// destination. The sparse merge is the sequential fold: the NaN never
// wins a strict `<`, and partial 3's nearer pixel still does.
TEST(Compositor, SparseDepthMergeIsTheSequentialFold) {
  std::vector<ImageBuffer> partials;
  partials.push_back(solid(2, 2, {1, 0, 0, 1}, 5.0f));
  partials.push_back(solid(2, 2, {0, 1, 0, 1}, 6.0f));
  partials.push_back(solid(2, 2, {0, 0, 1, 1}, 7.0f));
  partials[2].set_depth(1, 1, kNaN);
  partials.push_back(solid(2, 2, {1, 1, 1, 1}, 1.0f));
  cluster::PerfCounters counters;
  ImageBuffer sparse = partials[0];
  depth_composite_partials(sparse, pack_others(partials, PartialBlend::kDepth), counters);
  ImageBuffer folded(2, 2);
  folded.clear();
  depth_composite(partials, folded, counters);
  EXPECT_TRUE(same_bytes(sparse, folded));
  EXPECT_EQ(sparse.color(1, 1), (Vec4f{1, 1, 1, 1}));

  std::vector<ImageBuffer> tree = partials;
  depth_composite_tree(tree, counters);
  EXPECT_EQ(tree[0].color(1, 1), (Vec4f{1, 0, 0, 1}));
}

TEST(Compositor, SparsePartialRejectsDamage) {
  ImageBuffer frame(6, 4);
  frame.clear();
  ImageBuffer src = frame;
  src.depth_test_set(2, 1, {1, 0, 0, 1}, 1.0f);
  src.depth_test_set(4, 2, {0, 1, 0, 1}, 2.0f);
  const std::vector<std::uint8_t> good = pack_partial(src, PartialBlend::kDepth);
  const auto with_field = [&](int field, std::int64_t value) {
    std::vector<std::uint8_t> bytes = good;
    std::memcpy(bytes.data() + field * sizeof value, &value, sizeof value);
    return bytes;
  };
  std::vector<std::uint8_t> longer = good;
  longer.push_back(0);
  const std::vector<std::vector<std::uint8_t>> damaged = {
      {},                                                        // no header
      std::vector<std::uint8_t>(good.begin(), good.begin() + 47), // short header
      with_field(0, 5),                                          // width mismatch
      with_field(1, 5),                                          // height mismatch
      with_field(2, -1),                                         // x0 outside
      with_field(3, 7),                                          // x1 outside
      with_field(5, 9),                                          // y1 outside
      with_field(2, 4),                                          // x0 > x1 (x1 = 5)
      std::vector<std::uint8_t>(good.begin(), good.end() - 1),    // one byte short
      longer,                                                    // one byte long
  };
  cluster::PerfCounters counters;
  const std::vector<std::size_t> order{0, 1};
  for (std::size_t i = 0; i < damaged.size(); ++i) {
    SCOPED_TRACE(i);
    const std::vector<std::vector<std::uint8_t>> parts{damaged[i]};
    ImageBuffer dst = frame;
    EXPECT_THROW(depth_composite_partials(dst, parts, counters), Error);
    EXPECT_THROW(alpha_composite_partials(frame, parts, order, counters), Error);
  }
  // The undamaged buffer merges.
  ImageBuffer dst = frame;
  depth_composite_partials(dst, std::vector<std::vector<std::uint8_t>>{good}, counters);
  EXPECT_EQ(dst.depth(2, 1), 1.0f);
  EXPECT_EQ(dst.depth(4, 2), 2.0f);
}

} // namespace
} // namespace eth
