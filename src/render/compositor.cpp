#include "render/compositor.hpp"

#include <algorithm>
#include <cstring>
#include <limits>

#include "common/error.hpp"
#include "common/simd_kernels.hpp"
#include "common/trace.hpp"
#include "data/serialize.hpp"
#include "parallel/thread_pool.hpp"

namespace eth {

namespace {

// Vec4f is four contiguous floats, so pixel runs view as flat rgba for
// the SIMD blend kernels (DESIGN.md §14).
static_assert(sizeof(Vec4f) == 4 * sizeof(Real));

constexpr std::size_t kPixelBytes = sizeof(Vec4f) + sizeof(Real);
constexpr std::size_t kPartialHeaderBytes = 6 * sizeof(std::int64_t);
static_assert(kPartialHeaderBytes % 16 == 0 && sizeof(Vec4f) == 16,
              "a sparse partial's color and depth blocks start 16-byte aligned");

/// Row grain of the row-banded merges.
constexpr Index kRowGrain = 8;

float* rgba_ptr(std::vector<Vec4f>& colors, std::size_t p) {
  return reinterpret_cast<float*>(colors.data() + p);
}
const float* rgba_ptr(const std::vector<Vec4f>& colors, std::size_t p) {
  return reinterpret_cast<const float*>(colors.data() + p);
}

/// Depth-test merge of one pixel run, the inner loop of every depth
/// composite. Strict `<` keeps `dst` on equal depth — with the lower
/// partial index always on the dst side, ties deterministically resolve
/// to the lower index.
void depth_merge_run(const simd::KernelTable* table, float* dst_rgba, Real* dst_depth,
                     const float* src_rgba, const Real* src_depth, Index n) {
  if (table != nullptr) {
    table->depth_merge(dst_rgba, dst_depth, src_rgba, src_depth, n);
    return;
  }
  for (Index p = 0; p < n; ++p) {
    if (src_depth[p] < dst_depth[p]) {
      dst_depth[p] = src_depth[p];
      std::memcpy(dst_rgba + 4 * p, src_rgba + 4 * p, sizeof(Vec4f));
    }
  }
}

/// Premultiplied front-to-back blend of one pixel run onto `out`: the
/// inner loop of both premultiplied composites.
void premul_blend_run(const simd::KernelTable* table, float* out_rgba, Real* out_depth,
                      const float* src_rgba, const Real* src_depth, Index n) {
  if (table != nullptr) {
    table->premul_blend(out_rgba, out_depth, src_rgba, src_depth, n);
    return;
  }
  for (Index p = 0; p < n; ++p) {
    const float* s = src_rgba + 4 * p;
    if (s[3] <= 0) continue;
    float* d = out_rgba + 4 * p;
    const Real trans = Real(1) - d[3];
    for (int c = 0; c < 4; ++c) d[c] = d[c] + s[c] * trans;
    if (src_depth[p] < out_depth[p]) out_depth[p] = src_depth[p];
  }
}

void merge_pair_range(ImageBuffer& dst, const ImageBuffer& src, std::size_t p0,
                      std::size_t p1) {
  depth_merge_run(simd::active_kernels(), rgba_ptr(dst.colors(), p0),
                  dst.depths().data() + p0, rgba_ptr(src.colors(), p0),
                  src.depths().data() + p0, static_cast<Index>(p1 - p0));
}

/// True when `bytes` holds exactly `w * h` pixels of kPixelBytes each.
/// Overflow-free: it divides instead of multiplying the claimed sizes.
bool holds_exact_pixels(std::uint64_t w, std::uint64_t h, std::size_t bytes) {
  if (bytes % kPixelBytes != 0) return false;
  const std::uint64_t pixels = bytes / kPixelBytes;
  return w == 0 ? pixels == 0 : pixels % w == 0 && pixels / w == h;
}

/// The rectangle [x0, x1) x [y0, y1) of a partial that pack_partial
/// sends, seen in place: the rows of its colors and depths, `stride`
/// pixels apart. An empty rectangle has y0 == y1.
struct PartialView {
  Index x0 = 0, x1 = 0, y0 = 0, y1 = 0;
  const float* rgba = nullptr; ///< pixel (x0, y0)
  const Real* depth = nullptr;
  Index stride = 0;

  bool has_row(Index y) const { return y >= y0 && y < y1 && x0 < x1; }
  const float* rgba_row(Index y) const { return rgba + 4 * (y - y0) * stride; }
  const Real* depth_row(Index y) const { return depth + (y - y0) * stride; }
};

bool is_active(const ImageBuffer& image, PartialBlend blend, std::size_t p) {
  return blend == PartialBlend::kDepth
             ? image.depths()[p] < std::numeric_limits<Real>::infinity()
             : !(image.colors()[p].w <= 0);
}

/// Bounding rectangle of `image`'s active pixels, viewed in place.
PartialView active_view(const ImageBuffer& image, PartialBlend blend) {
  const Index w = image.width();
  PartialView v{w, 0, 0, 0};
  for (Index y = 0; y < image.height(); ++y) {
    const auto row = static_cast<std::size_t>(y * w);
    Index first = 0;
    while (first < w && !is_active(image, blend, row + static_cast<std::size_t>(first)))
      ++first;
    if (first == w) continue;
    Index last = w;
    while (!is_active(image, blend, row + static_cast<std::size_t>(last - 1))) --last;
    if (v.y1 == 0) v.y0 = y;
    v.y1 = y + 1;
    v.x0 = std::min(v.x0, first);
    v.x1 = std::max(v.x1, last);
  }
  if (v.y1 == 0) return {};
  const auto p0 = static_cast<std::size_t>(v.y0 * w + v.x0);
  v.rgba = rgba_ptr(image.colors(), p0);
  v.depth = image.depths().data() + p0;
  v.stride = w;
  return v;
}

/// Validate a received sparse partial against the frame it merges into
/// and view its rectangle in place.
PartialView parse_partial(std::span<const std::uint8_t> bytes, const ImageBuffer& frame) {
  require(bytes.size() >= kPartialHeaderBytes, "composite partial: short header");
  std::int64_t h[6];
  std::memcpy(h, bytes.data(), sizeof h);
  require(h[0] == frame.width() && h[1] == frame.height(),
          "composite partial: frame size mismatch");
  PartialView v{h[2], h[3], h[4], h[5]};
  require(0 <= v.x0 && v.x0 <= v.x1 && v.x1 <= frame.width() && 0 <= v.y0 &&
              v.y0 <= v.y1 && v.y1 <= frame.height(),
          "composite partial: active rectangle outside the frame");
  const auto w = static_cast<std::uint64_t>(v.x1 - v.x0);
  const auto rows = static_cast<std::uint64_t>(v.y1 - v.y0);
  require(holds_exact_pixels(w, rows, bytes.size() - kPartialHeaderBytes),
          "composite partial: byte count does not match its rectangle");
  // Vector storage comes from operator new, so both blocks are 16-byte
  // aligned and are read in place as floats, like the data plane's
  // borrowed arrays (WireReader::get_array).
  const std::uint8_t* colors = bytes.data() + kPartialHeaderBytes;
  v.rgba = reinterpret_cast<const float*>(colors);
  v.depth = reinterpret_cast<const Real*>(colors + w * rows * sizeof(Vec4f));
  v.stride = v.x1 - v.x0;
  return v;
}

} // namespace

void depth_composite(std::span<const ImageBuffer> partials, ImageBuffer& out,
                     cluster::PerfCounters& counters) {
  const trace::Span span("composite");
  for (const ImageBuffer& partial : partials)
    require(partial.width() == out.width() && partial.height() == out.height(),
            "depth_composite: size mismatch");
  // Pixel-parallel ordered fold: each pixel scans the partials in
  // ascending index order (strict `<`, so the lowest index wins depth
  // ties) — identical to merging the partials sequentially, for every
  // partition of the pixel range.
  const Index n = out.num_pixels();
  const simd::KernelTable* table = simd::active_kernels();
  parallel_for(0, n, 16384, [&](Index b, Index e) {
    const auto sb = static_cast<std::size_t>(b);
    for (const ImageBuffer& partial : partials)
      depth_merge_run(table, rgba_ptr(out.colors(), sb), out.depths().data() + b,
                      rgba_ptr(partial.colors(), sb), partial.depths().data() + b, e - b);
  });
  counters.elements_processed += n * static_cast<Index>(partials.size());
  counters.flop_estimate += double(n) * 2.0 * double(partials.size());
}

void depth_composite_tree(std::vector<ImageBuffer>& partials,
                          cluster::PerfCounters& counters) {
  const trace::Span span("composite");
  if (partials.empty()) return;
  const Index n = partials[0].num_pixels();
  for (const ImageBuffer& partial : partials)
    require(partial.width() == partials[0].width() &&
                partial.height() == partials[0].height(),
            "depth_composite_tree: size mismatch");

  // Level `stride` merges partials[i + stride] into partials[i] for
  // every i that is a multiple of 2*stride: the destination index is
  // always the lower one, so the dst-wins-ties pair merge preserves
  // "lowest index wins" at every level, making the tree bit-identical
  // to the sequential fold. Pair merges of one level are independent
  // (disjoint src/dst buffers) and run in parallel; the final level has
  // a single pair, which is merged pixel-parallel instead.
  const auto M = static_cast<Index>(partials.size());
  Index merges = 0;
  for (Index stride = 1; stride < M; stride *= 2) {
    std::vector<std::pair<Index, Index>> pairs;
    for (Index i = 0; i + stride < M; i += 2 * stride)
      pairs.emplace_back(i, i + stride);
    merges += static_cast<Index>(pairs.size());
    if (pairs.size() == 1) {
      ImageBuffer& dst = partials[static_cast<std::size_t>(pairs[0].first)];
      const ImageBuffer& src = partials[static_cast<std::size_t>(pairs[0].second)];
      parallel_for(0, n, 16384, [&](Index b, Index e) {
        merge_pair_range(dst, src, static_cast<std::size_t>(b),
                         static_cast<std::size_t>(e));
      });
    } else {
      parallel_for(0, static_cast<Index>(pairs.size()), 1, [&](Index b, Index e) {
        for (Index k = b; k < e; ++k)
          merge_pair_range(partials[static_cast<std::size_t>(pairs[static_cast<std::size_t>(k)].first)],
                           partials[static_cast<std::size_t>(pairs[static_cast<std::size_t>(k)].second)],
                           0, static_cast<std::size_t>(n));
      });
    }
  }
  counters.elements_processed += n * merges;
  counters.flop_estimate += double(n) * 2.0 * double(merges);
}

void alpha_composite_premultiplied(std::span<const ImageBuffer> partials,
                                   std::span<const std::size_t> order,
                                   ImageBuffer& out,
                                   cluster::PerfCounters& counters) {
  const trace::Span span("composite");
  require(order.size() == partials.size(),
          "alpha_composite_premultiplied: order size mismatch");
  for (const std::size_t idx : order) {
    require(idx < partials.size(),
            "alpha_composite_premultiplied: order index out of range");
    require(partials[idx].width() == out.width() &&
                partials[idx].height() == out.height(),
            "alpha_composite_premultiplied: size mismatch");
  }
  const Index width = out.width();
  const simd::KernelTable* table = simd::active_kernels();
  // Per pixel the partial order is unchanged (pixels are independent,
  // so hoisting `idx` above `x` is exact).
  parallel_for(0, out.height(), kRowGrain, [&](Index y0, Index y1) {
    for (Index y = y0; y < y1; ++y) {
      const auto row = static_cast<std::size_t>(y * width);
      for (const std::size_t idx : order)
        premul_blend_run(table, rgba_ptr(out.colors(), row), out.depths().data() + row,
                         rgba_ptr(partials[idx].colors(), row),
                         partials[idx].depths().data() + row, width);
    }
  });
  counters.elements_processed += out.num_pixels() * static_cast<Index>(partials.size());
  counters.flop_estimate += double(out.num_pixels()) * 8.0 * double(partials.size());
}

std::vector<std::uint8_t> pack_image(const ImageBuffer& image) {
  const trace::Span span("pack_image");
  ByteWriter w;
  w.put_i64(image.width());
  w.put_i64(image.height());
  w.put_bytes(image.colors().data(), image.colors().size() * sizeof(Vec4f));
  w.put_bytes(image.depths().data(), image.depths().size() * sizeof(Real));
  return w.take();
}

ImageBuffer unpack_image(std::span<const std::uint8_t> bytes) {
  WireReader r(bytes);
  const Index width = r.get_i64();
  const Index height = r.get_i64();
  require(width >= 0 && height >= 0, "unpack_image: negative dimensions");
  // Check the claimed size against the payload BEFORE allocating: a
  // damaged header must not allocate a frame its bytes cannot fill.
  require(holds_exact_pixels(static_cast<std::uint64_t>(width),
                             static_cast<std::uint64_t>(height), r.remaining()),
          "unpack_image: payload does not match its dimensions");
  ImageBuffer image(width, height);
  r.get_bytes(image.colors().data(), image.colors().size() * sizeof(Vec4f));
  r.get_bytes(image.depths().data(), image.depths().size() * sizeof(Real));
  return image;
}

Bytes packed_image_bytes(const ImageBuffer& image) {
  return 2 * sizeof(std::int64_t) + image.byte_size();
}

std::vector<std::uint8_t> pack_partial(const ImageBuffer& image, PartialBlend blend) {
  const trace::Span span("composite.pack");
  const PartialView v = active_view(image, blend);
  const auto w = static_cast<std::size_t>(v.x1 - v.x0);
  const auto area = w * static_cast<std::size_t>(v.y1 - v.y0);
  std::vector<std::uint8_t> bytes(kPartialHeaderBytes + area * kPixelBytes);
  const std::int64_t header[6] = {image.width(), image.height(), v.x0, v.x1, v.y0, v.y1};
  std::memcpy(bytes.data(), header, sizeof header);
  std::uint8_t* colors = bytes.data() + kPartialHeaderBytes;
  std::uint8_t* depths = colors + area * sizeof(Vec4f);
  for (Index y = v.y0; y < v.y1; ++y) {
    const auto row = static_cast<std::size_t>(y - v.y0) * w;
    std::memcpy(colors + row * sizeof(Vec4f), v.rgba_row(y), w * sizeof(Vec4f));
    std::memcpy(depths + row * sizeof(Real), v.depth_row(y), w * sizeof(Real));
  }
  return bytes;
}

void depth_composite_partials(ImageBuffer& image,
                              std::span<const std::vector<std::uint8_t>> partials,
                              cluster::PerfCounters& counters) {
  const trace::Span span("composite");
  std::vector<PartialView> views;
  views.reserve(partials.size());
  for (const std::vector<std::uint8_t>& bytes : partials)
    views.push_back(parse_partial(bytes, image));
  // Row bands own disjoint pixels; within a row the partials merge in
  // ascending rank order, so every pixel sees the sequential fold.
  const Index width = image.width();
  const simd::KernelTable* table = simd::active_kernels();
  parallel_for(0, image.height(), kRowGrain, [&](Index y0, Index y1) {
    for (Index y = y0; y < y1; ++y)
      for (const PartialView& v : views) {
        if (!v.has_row(y)) continue;
        const auto p = static_cast<std::size_t>(y * width + v.x0);
        depth_merge_run(table, rgba_ptr(image.colors(), p), image.depths().data() + p,
                        v.rgba_row(y), v.depth_row(y), v.x1 - v.x0);
      }
  });
  const Index n = image.num_pixels();
  counters.elements_processed += n * static_cast<Index>(partials.size());
  counters.flop_estimate += double(n) * 2.0 * double(partials.size());
}

ImageBuffer alpha_composite_partials(const ImageBuffer& own,
                                     std::span<const std::vector<std::uint8_t>> partials,
                                     std::span<const std::size_t> order,
                                     cluster::PerfCounters& counters) {
  const trace::Span span("composite");
  std::vector<PartialView> views;
  views.reserve(partials.size() + 1);
  views.push_back(active_view(own, PartialBlend::kPremultiplied));
  for (const std::vector<std::uint8_t>& bytes : partials)
    views.push_back(parse_partial(bytes, own));
  require(order.size() == views.size(), "alpha_composite_partials: order size mismatch");
  for (const std::size_t idx : order)
    require(idx < views.size(), "alpha_composite_partials: order index out of range");

  ImageBuffer out(own.width(), own.height(), {0, 0, 0, 0});
  const Index width = out.width();
  const simd::KernelTable* table = simd::active_kernels();
  parallel_for(0, out.height(), kRowGrain, [&](Index y0, Index y1) {
    for (Index y = y0; y < y1; ++y)
      for (const std::size_t idx : order) {
        const PartialView& v = views[idx];
        if (!v.has_row(y)) continue;
        const auto p = static_cast<std::size_t>(y * width + v.x0);
        premul_blend_run(table, rgba_ptr(out.colors(), p), out.depths().data() + p,
                         v.rgba_row(y), v.depth_row(y), v.x1 - v.x0);
      }
  });
  counters.elements_processed += out.num_pixels() * static_cast<Index>(views.size());
  counters.flop_estimate += double(out.num_pixels()) * 8.0 * double(views.size());
  return out;
}

} // namespace eth
