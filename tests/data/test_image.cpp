#include "data/image.hpp"

#include <gtest/gtest.h>

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
  EXPECT_NEAR(image_mae(a, b), 0.5, 1e-6);
  EXPECT_NEAR(image_diff_fraction(a, b, 0.1f), 1.0, 1e-12);
  EXPECT_NEAR(image_diff_fraction(a, b, 0.9f), 0.0, 1e-12);
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
  EXPECT_THROW(image_mae(a, b), Error);
  EXPECT_THROW(image_diff_fraction(a, b, 0.1f), Error);
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

} // namespace
} // namespace eth
