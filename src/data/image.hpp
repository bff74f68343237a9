#pragma once
// ImageBuffer: the framebuffer both rendering back-ends write into and
// the artifact ETH stores to disk. Carries RGBA color and a depth
// channel; depth is what makes parallel (per-rank) images composable.
//
// Also hosts the image-quality metric the paper uses (RMSE, Table II)
// and PPM output for eyeballing results.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/types.hpp"
#include "common/vec.hpp"

namespace eth {

class ImageBuffer {
public:
  ImageBuffer() = default;
  /// A width x height frame cleared to `background` with depth = +inf.
  ImageBuffer(Index width, Index height, Vec4f background = {0, 0, 0, 1});

  ImageBuffer(const ImageBuffer&) = default;
  ImageBuffer& operator=(const ImageBuffer&) = default;
  /// A moved-from frame is empty (0 x 0), so its size never claims
  /// pixels its arrays no longer hold.
  ImageBuffer(ImageBuffer&& other) noexcept
      : width_(std::exchange(other.width_, 0)),
        height_(std::exchange(other.height_, 0)),
        color_(std::exchange(other.color_, {})),
        depth_(std::exchange(other.depth_, {})) {}
  ImageBuffer& operator=(ImageBuffer&& other) noexcept {
    width_ = std::exchange(other.width_, 0);
    height_ = std::exchange(other.height_, 0);
    color_ = std::exchange(other.color_, {});
    depth_ = std::exchange(other.depth_, {});
    return *this;
  }

  Index width() const { return width_; }
  Index height() const { return height_; }
  Index num_pixels() const { return width_ * height_; }

  /// Reset to `background` color with depth = +inf.
  void clear(Vec4f background = {0, 0, 0, 1});

  Vec4f color(Index x, Index y) const { return color_[pixel(x, y)]; }
  Real depth(Index x, Index y) const { return depth_[pixel(x, y)]; }
  void set_color(Index x, Index y, Vec4f c) { color_[pixel(x, y)] = c; }
  void set_depth(Index x, Index y, Real d) { depth_[pixel(x, y)] = d; }

  /// Depth-tested write: stores (c, d) iff d is nearer than the stored
  /// depth. Returns true when the pixel was updated.
  bool depth_test_set(Index x, Index y, Vec4f c, Real d);

  std::vector<Vec4f>& colors() { return color_; }
  const std::vector<Vec4f>& colors() const { return color_; }
  std::vector<Real>& depths() { return depth_; }
  const std::vector<Real>& depths() const { return depth_; }

  Bytes byte_size() const {
    return color_.size() * sizeof(Vec4f) + depth_.size() * sizeof(Real);
  }

  /// Binary PPM (P6) dump; each channel encoded by ppm_channel_byte.
  void write_ppm(const std::string& path) const;

private:
  std::size_t pixel(Index x, Index y) const {
    return static_cast<std::size_t>(y * width_ + x);
  }

  Index width_ = 0;
  Index height_ = 0;
  std::vector<Vec4f> color_;
  std::vector<Real> depth_;
};

/// One color channel as a PPM byte: clamped to [0, 1], gamma 2.2,
/// rounded. ppm_channel_byte looks the byte up in a table built once
/// from ppm_channel_byte_pow, the pow expression it replaces; both give
/// the same byte for every float (NaN takes the pow path).
std::uint8_t ppm_channel_byte(Real c);
std::uint8_t ppm_channel_byte_pow(Real c);

/// Root-mean-square error over RGB channels between two same-size
/// images, the quality metric of the paper's Table II. Colors are
/// clamped to [0,1] first so RMSE is in [0, 1].
double image_rmse(const ImageBuffer& a, const ImageBuffer& b);

/// Structural similarity (SSIM) over the luma channel, mean of 8x8
/// windows with the standard stabilizing constants (K1=0.01, K2=0.03,
/// L=1). Returns 1 for identical images, lower for structural
/// differences — the "more sophisticated metric explicitly targeted at
/// measuring the perception quality of an image" the paper defers to
/// future work (§VI-A).
double image_ssim(const ImageBuffer& a, const ImageBuffer& b);

} // namespace eth
