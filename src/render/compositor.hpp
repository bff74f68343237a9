#pragma once
// Parallel image compositing.
//
// Each rank renders its spatial partition of the data into a full-size
// image with an eye-space depth channel; the compositor merges the
// per-rank images into the final artifact. For opaque geometry and
// surfaces this is sort-last depth compositing (nearest depth wins per
// pixel); for semi-transparent ray-marched output the per-rank images
// must be blended in front-to-back order of their partitions.

#include <cstdint>
#include <span>
#include <vector>

#include "cluster/counters.hpp"
#include "data/image.hpp"

namespace eth {

/// Depth-composite `partials` into `out` (all same size). `out` should
/// start cleared to the background. Tie-breaking is deterministic:
/// where several partials share the winning depth, the LOWEST partial
/// index wins (ranks composite in rank order, so lower rank wins) — the
/// same pixel therefore resolves identically regardless of schedule or
/// thread count.
void depth_composite(std::span<const ImageBuffer> partials, ImageBuffer& out,
                     cluster::PerfCounters& counters);

/// Pairwise-reduction-tree variant: merges `partials` down to
/// `partials[0]` in ceil(log2 N) levels, with the pair merges of each
/// level running in parallel on the thread pool. The merge operation
/// (nearest depth wins, tie -> lower partial index) is associative, and
/// every pair merge keeps the lower-index side on the destination, so
/// the tree composites bit-identically to the sequential fold — and to
/// itself under any worker schedule. NaN depths are the exception: a
/// pair merge keeps a NaN destination, so a NaN at a subtree root hides
/// the rest of that subtree, which the fold would still merge.
/// `partials` is consumed (merged in place) to avoid copying full
/// framebuffers at every level.
void depth_composite_tree(std::vector<ImageBuffer>& partials,
                          cluster::PerfCounters& counters);

/// Alpha-composite PREMULTIPLIED-alpha partials (the DVR renderer's
/// output) front to back: `order` lists partial indices front to back
/// (e.g. partitions sorted by view distance), and out += partial *
/// (1 - out.alpha) in that order. `out` must start fully transparent.
/// Depth keeps the nearest partial's entry depth per pixel.
void alpha_composite_premultiplied(std::span<const ImageBuffer> partials,
                                   std::span<const std::size_t> order,
                                   ImageBuffer& out, cluster::PerfCounters& counters);

/// Serialize / deserialize a whole image (color + depth, little-endian):
/// the dense exchange format, which the cluster model still charges
/// (`packed_image_bytes`) and tests use as a reference.
std::vector<std::uint8_t> pack_image(const ImageBuffer& image);
ImageBuffer unpack_image(std::span<const std::uint8_t> bytes);

/// pack_image(image).size(), without packing.
Bytes packed_image_bytes(const ImageBuffer& image);

// ---- Sparse partials (IceT-style active rectangles, DESIGN.md §4.3).
// A partial only sends the bounding rectangle of the pixels a merge can
// change, and rank 0 merges the received buffers in place.

/// Which merge a partial feeds, and so which of its pixels are active:
/// the depth merge adopts a pixel only when its depth is strictly
/// nearer, so only depths `< +inf` are active; the premultiplied blend
/// skips `alpha <= 0`, so only `!(alpha <= 0)` is active (NaN included).
/// Leaving inactive pixels out is therefore exact.
enum class PartialBlend { kDepth, kPremultiplied };

/// Sparse partial: six int64s (width, height, x0, x1, y0, y1), then the
/// colors, then the depths of the active rectangle [x0, x1) x [y0, y1),
/// row-major. The six-int64 header keeps both float blocks 16-byte
/// aligned. An image with no active pixel packs to the header alone.
std::vector<std::uint8_t> pack_partial(const ImageBuffer& image, PartialBlend blend);

/// Depth-merge sparse partials (pack_partial kDepth of ranks 1..M-1, in
/// rank order) into `image`, rank 0's own partial, in place. Ascending
/// rank order with strict `<` is the sequential fold `depth_composite`
/// computes, so the lowest rank wins ties. Each buffer is read in place;
/// a damaged header, a frame-size mismatch or a wrong byte count throws
/// eth::Error before any pixel is merged.
void depth_composite_partials(ImageBuffer& image,
                              std::span<const std::vector<std::uint8_t>> partials,
                              cluster::PerfCounters& counters);

/// Blend `own` (partial 0) and the sparse partials (pack_partial
/// kPremultiplied; partial k is `partials[k - 1]`) front to back in
/// `order` into a transparent frame, with the arithmetic of
/// alpha_composite_premultiplied. Buffers are validated and read as in
/// depth_composite_partials.
ImageBuffer alpha_composite_partials(const ImageBuffer& own,
                                     std::span<const std::vector<std::uint8_t>> partials,
                                     std::span<const std::size_t> order,
                                     cluster::PerfCounters& counters);

} // namespace eth
