#include "data/image.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <limits>

#include "common/error.hpp"

namespace eth {
namespace {

TEST(ImageBuffer, ConstructionClearsToBackground) {
  ImageBuffer img(4, 3);
  EXPECT_EQ(img.width(), 4);
  EXPECT_EQ(img.height(), 3);
  EXPECT_EQ(img.num_pixels(), 12);
  EXPECT_EQ(img.color(0, 0), (Vec4f{0, 0, 0, 1}));
  EXPECT_TRUE(std::isinf(img.depth(0, 0)));
  img.clear({1, 0, 0, 1});
  EXPECT_EQ(img.color(3, 2), (Vec4f{1, 0, 0, 1}));

  const ImageBuffer transparent(3, 2, {0, 0, 0, 0});
  EXPECT_EQ(transparent.color(2, 1), (Vec4f{0, 0, 0, 0}));
  EXPECT_TRUE(std::isinf(transparent.depth(2, 1)));
}

TEST(ImageBuffer, MovedFromFrameIsEmpty) {
  ImageBuffer a(4, 4);
  a.set_color(1, 2, {1, 0, 0, 1});
  ImageBuffer b = std::move(a);
  EXPECT_EQ(b.num_pixels(), 16);
  EXPECT_EQ(b.color(1, 2), (Vec4f{1, 0, 0, 1}));
  EXPECT_EQ(a.width(), 0);
  EXPECT_EQ(a.height(), 0);
  EXPECT_EQ(a.num_pixels(), 0);
  EXPECT_TRUE(a.colors().empty());
  EXPECT_TRUE(a.depths().empty());

  ImageBuffer c(2, 3);
  c = std::move(b);
  EXPECT_EQ(c.num_pixels(), 16);
  EXPECT_EQ(c.color(1, 2), (Vec4f{1, 0, 0, 1}));
  EXPECT_EQ(b.num_pixels(), 0);
  EXPECT_EQ(b.byte_size(), 0u);

  // A moved-from frame takes a new one.
  b = ImageBuffer(2, 2);
  EXPECT_EQ(b.num_pixels(), 4);
  EXPECT_EQ(b.colors().size(), 4u);
}

TEST(ImageBuffer, DepthTestSetKeepsNearest) {
  ImageBuffer img(2, 2);
  EXPECT_TRUE(img.depth_test_set(0, 0, {1, 0, 0, 1}, 5.0f));
  EXPECT_FALSE(img.depth_test_set(0, 0, {0, 1, 0, 1}, 7.0f)); // behind
  EXPECT_EQ(img.color(0, 0), (Vec4f{1, 0, 0, 1}));
  EXPECT_TRUE(img.depth_test_set(0, 0, {0, 0, 1, 1}, 2.0f)); // in front
  EXPECT_EQ(img.color(0, 0), (Vec4f{0, 0, 1, 1}));
  EXPECT_EQ(img.depth(0, 0), 2.0f);
  // Equal depth does not overwrite (first-wins determinism).
  EXPECT_FALSE(img.depth_test_set(0, 0, {1, 1, 1, 1}, 2.0f));
}

TEST(ImageBuffer, RmseIdentical) {
  ImageBuffer a(8, 8), b(8, 8);
  a.clear({0.5f, 0.5f, 0.5f, 1});
  b.clear({0.5f, 0.5f, 0.5f, 1});
  EXPECT_DOUBLE_EQ(image_rmse(a, b), 0.0);
}

TEST(ImageBuffer, RmseKnownDifference) {
  ImageBuffer a(4, 4), b(4, 4);
  a.clear({0, 0, 0, 1});
  b.clear({0.5f, 0.5f, 0.5f, 1});
  EXPECT_NEAR(image_rmse(a, b), 0.5, 1e-6);
}

TEST(ImageBuffer, RmseClampsOutOfRangeColors) {
  ImageBuffer a(1, 1), b(1, 1);
  a.set_color(0, 0, {-5, 0, 0, 1});
  b.set_color(0, 0, {0, 0, 0, 1});
  EXPECT_DOUBLE_EQ(image_rmse(a, b), 0.0); // -5 clamps to 0
}

TEST(ImageBuffer, MetricsRejectSizeMismatch) {
  ImageBuffer a(2, 2), b(3, 2);
  EXPECT_THROW(image_rmse(a, b), Error);
}

TEST(ImageBuffer, WritePpmProducesValidHeaderAndSize) {
  ImageBuffer img(5, 3);
  img.clear({1, 0, 0, 1});
  const std::string path = "/tmp/eth_test_image.ppm";
  img.write_ppm(path);
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  char magic[3] = {};
  ASSERT_EQ(std::fscanf(f, "%2s", magic), 1);
  EXPECT_STREQ(magic, "P6");
  int w = 0, h = 0, maxval = 0;
  ASSERT_EQ(std::fscanf(f, "%d %d %d", &w, &h, &maxval), 3);
  EXPECT_EQ(w, 5);
  EXPECT_EQ(h, 3);
  EXPECT_EQ(maxval, 255);
  std::fclose(f);
  EXPECT_EQ(std::filesystem::file_size(path) > 15u, true);
  std::filesystem::remove(path);
}

TEST(ImageBuffer, WritePpmFailsOnBadPath) {
  const ImageBuffer img(2, 2);
  EXPECT_THROW(img.write_ppm("/nonexistent_dir_xyz/out.ppm"), Error);
}

// write_ppm's gamma table must give the pow expression's byte for every
// float. Check every float within 2^16 bit patterns of each threshold
// (the least float in [0, 1] whose byte reaches k), a stride-97 sample of
// [0, 1], and the values clamping and NaN handle.
TEST(ImageBuffer, PpmGammaTableMatchesPowPath) {
  constexpr std::uint32_t kOne = 0x3F800000u; // bit pattern of 1.0f
  constexpr std::uint32_t kWindow = 1u << 16;
  Index mismatches = 0;
  std::uint32_t first_mismatch = 0;
  const auto check = [&](std::uint32_t bits) {
    const Real v = std::bit_cast<Real>(bits);
    if (ppm_channel_byte(v) == ppm_channel_byte_pow(v)) return;
    if (mismatches++ == 0) first_mismatch = bits;
  };
  for (int k = 1; k <= 255; ++k) {
    std::uint32_t lo = 0, hi = kOne; // byte(lo) < k <= byte(hi)
    while (hi - lo > 1) {
      const std::uint32_t mid = lo + (hi - lo) / 2;
      (ppm_channel_byte_pow(std::bit_cast<Real>(mid)) >= k ? hi : lo) = mid;
    }
    for (std::uint32_t b = hi > kWindow ? hi - kWindow : 0; b <= std::min(kOne, hi + kWindow);
         ++b)
      check(b);
  }
  for (std::uint32_t b = 0; b <= kOne; b += 97) check(b);
  EXPECT_EQ(mismatches, 0) << "first at bit pattern " << std::hex << first_mismatch;

  EXPECT_EQ(ppm_channel_byte(0.0f), 0);
  EXPECT_EQ(ppm_channel_byte(-0.0f), 0);
  EXPECT_EQ(ppm_channel_byte(-0.5f), 0);
  EXPECT_EQ(ppm_channel_byte(1.0f), 255);
  EXPECT_EQ(ppm_channel_byte(1.5f), 255);
  EXPECT_EQ(ppm_channel_byte(std::numeric_limits<Real>::infinity()), 255);
  EXPECT_EQ(ppm_channel_byte(-std::numeric_limits<Real>::infinity()), 0);
  for (const Real v : {0.0f, -0.0f, -0.5f, 1.0f, 1.5f, std::numeric_limits<Real>::infinity(),
                       -std::numeric_limits<Real>::infinity(),
                       std::numeric_limits<Real>::quiet_NaN()})
    EXPECT_EQ(ppm_channel_byte(v), ppm_channel_byte_pow(v)) << v;
}

} // namespace
} // namespace eth
