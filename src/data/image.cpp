#include "data/image.hpp"

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <memory>

#include "common/error.hpp"

namespace eth {

ImageBuffer::ImageBuffer(Index width, Index height, Vec4f background)
    : width_(width), height_(height) {
  require(width >= 0 && height >= 0, "ImageBuffer: negative dimensions");
  color_.assign(static_cast<std::size_t>(width * height), background);
  depth_.assign(static_cast<std::size_t>(width * height),
                std::numeric_limits<Real>::infinity());
}

void ImageBuffer::clear(Vec4f background) {
  for (Vec4f& c : color_) c = background;
  for (Real& d : depth_) d = std::numeric_limits<Real>::infinity();
}

bool ImageBuffer::depth_test_set(Index x, Index y, Vec4f c, Real d) {
  const std::size_t p = pixel(x, y);
  if (d >= depth_[p]) return false;
  depth_[p] = d;
  color_[p] = c;
  return true;
}

std::uint8_t ppm_channel_byte_pow(Real c) {
  const Real v = clamp(c, Real(0), Real(1));
  const Real srgb = std::pow(v, Real(1.0 / 2.2));
  return static_cast<std::uint8_t>(srgb * Real(255) + Real(0.5));
}

namespace {

/// ppm_channel_byte_pow as a lookup. The quantized gamma never
/// decreases on [0, 1], so a value's byte is the number of thresholds
/// at or below it, where threshold k is the least float whose byte is
/// at least k. Consecutive thresholds lie more than 2^16 float bit
/// patterns apart, so the bucket of a value's top bits holds at most
/// one of them: the byte is the bucket's base count plus one compare.
class GammaTable {
public:
  GammaTable() {
    constexpr std::uint32_t kOne = 0x3F800000u; // bit pattern of 1.0f
    for (int k = 1; k <= 255; ++k) {
      // Bisect the bit patterns of [0, 1]: byte(lo) < k <= byte(hi).
      std::uint32_t lo = 0, hi = kOne;
      while (hi - lo > 1) {
        const std::uint32_t mid = lo + (hi - lo) / 2;
        (ppm_channel_byte_pow(std::bit_cast<Real>(mid)) >= k ? hi : lo) = mid;
      }
      threshold_[k] = hi;
      require(k == 1 || (hi >> kShift) > (threshold_[k - 1] >> kShift),
              "ppm gamma table: two thresholds share a bucket");
    }
    threshold_[256] = ~std::uint32_t(0); // no byte above 255
    std::uint8_t k = 0;
    for (std::uint32_t b = 0; b < base_.size(); ++b) {
      while (k < 255 && threshold_[k + 1] <= b << kShift) ++k;
      base_[b] = k;
    }
  }

  std::uint8_t encode(Real c) const {
    const Real v = clamp(c, Real(0), Real(1));
    if (std::isnan(v)) return ppm_channel_byte_pow(c);
    const std::uint32_t bits = std::bit_cast<std::uint32_t>(v) & 0x7FFFFFFFu; // -0 -> +0
    const std::uint8_t k = base_[bits >> kShift];
    return static_cast<std::uint8_t>(k + (bits >= threshold_[k + 1] ? 1 : 0));
  }

private:
  static constexpr int kShift = 16;
  std::array<std::uint32_t, 257> threshold_{};
  std::array<std::uint8_t, (0x3F800000u >> kShift) + 1> base_{};
};

const GammaTable& gamma_table() {
  static const GammaTable table;
  return table;
}

} // namespace

std::uint8_t ppm_channel_byte(Real c) { return gamma_table().encode(c); }

void ImageBuffer::write_ppm(const std::string& path) const {
  std::unique_ptr<std::FILE, int (*)(std::FILE*)> f(std::fopen(path.c_str(), "wb"),
                                                    &std::fclose);
  require(f != nullptr, "write_ppm: cannot open '" + path + "'");
  std::fprintf(f.get(), "P6\n%lld %lld\n255\n", static_cast<long long>(width_),
               static_cast<long long>(height_));
  const GammaTable& gamma = gamma_table();
  std::vector<unsigned char> row(static_cast<std::size_t>(width_) * 3);
  for (Index y = 0; y < height_; ++y) {
    for (Index x = 0; x < width_; ++x) {
      const Vec4f c = color(x, y);
      for (int ch = 0; ch < 3; ++ch)
        row[static_cast<std::size_t>(x) * 3 + static_cast<std::size_t>(ch)] =
            gamma.encode(c[ch]);
    }
    if (std::fwrite(row.data(), 1, row.size(), f.get()) != row.size())
      fail("write_ppm: short write to '" + path + "'");
  }
}

namespace {
void check_same_size(const ImageBuffer& a, const ImageBuffer& b, const char* what) {
  require(a.width() == b.width() && a.height() == b.height(),
          std::string(what) + ": image size mismatch");
}
} // namespace

double image_rmse(const ImageBuffer& a, const ImageBuffer& b) {
  check_same_size(a, b, "image_rmse");
  if (a.num_pixels() == 0) return 0.0;
  double acc = 0.0;
  for (Index y = 0; y < a.height(); ++y)
    for (Index x = 0; x < a.width(); ++x) {
      const Vec4f ca = a.color(x, y);
      const Vec4f cb = b.color(x, y);
      for (int ch = 0; ch < 3; ++ch) {
        const double d = double(clamp(ca[ch], Real(0), Real(1))) -
                         double(clamp(cb[ch], Real(0), Real(1)));
        acc += d * d;
      }
    }
  return std::sqrt(acc / (3.0 * double(a.num_pixels())));
}

double image_ssim(const ImageBuffer& a, const ImageBuffer& b) {
  check_same_size(a, b, "image_ssim");
  if (a.num_pixels() == 0) return 1.0;

  const auto luma = [](Vec4f c) {
    return 0.2126 * double(clamp(c.x, Real(0), Real(1))) +
           0.7152 * double(clamp(c.y, Real(0), Real(1))) +
           0.0722 * double(clamp(c.z, Real(0), Real(1)));
  };
  constexpr double kC1 = 0.01 * 0.01; // (K1 * L)^2 with L = 1
  constexpr double kC2 = 0.03 * 0.03;
  constexpr Index kWindow = 8;

  double ssim_sum = 0;
  Index windows = 0;
  for (Index wy = 0; wy < a.height(); wy += kWindow) {
    for (Index wx = 0; wx < a.width(); wx += kWindow) {
      const Index x1 = std::min(wx + kWindow, a.width());
      const Index y1 = std::min(wy + kWindow, a.height());
      const double n = double((x1 - wx) * (y1 - wy));
      double mu_a = 0, mu_b = 0;
      for (Index y = wy; y < y1; ++y)
        for (Index x = wx; x < x1; ++x) {
          mu_a += luma(a.color(x, y));
          mu_b += luma(b.color(x, y));
        }
      mu_a /= n;
      mu_b /= n;
      double var_a = 0, var_b = 0, cov = 0;
      for (Index y = wy; y < y1; ++y)
        for (Index x = wx; x < x1; ++x) {
          const double da = luma(a.color(x, y)) - mu_a;
          const double db = luma(b.color(x, y)) - mu_b;
          var_a += da * da;
          var_b += db * db;
          cov += da * db;
        }
      var_a /= n;
      var_b /= n;
      cov /= n;
      ssim_sum += ((2 * mu_a * mu_b + kC1) * (2 * cov + kC2)) /
                  ((mu_a * mu_a + mu_b * mu_b + kC1) * (var_a + var_b + kC2));
      ++windows;
    }
  }
  return ssim_sum / double(windows);
}

} // namespace eth
