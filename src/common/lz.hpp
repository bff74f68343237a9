#pragma once
// In-repo LZ4-class byte-oriented LZ codec (DESIGN.md §15).
//
// The wire path needs an optional lossless per-segment compressor with
// no external dependencies, so this implements the classic token-coded
// LZ77 block format popularised by LZ4: each sequence is
//
//   token | [literal-length 255-run] | literals
//         | offset (2 bytes LE) | [match-length 255-run]
//
// with the literal length in the token's high nibble, the match length
// minus `kMinMatch` in the low nibble, and nibble value 15 meaning
// "extended by 255-run bytes". The final sequence of a block is
// literals-only (no offset/match), which is how the decoder detects a
// well-formed end of stream.
//
// The decoder is written for untrusted input: every read is bounds
// checked and failures throw TransportError — kTruncated when the
// input ends before its encoding says it should, kCorruptFrame when
// offsets or lengths are inconsistent with the declared output size.
// Compression is deterministic (greedy matcher, fixed hash table), so
// the same input always yields the same coded bytes — required by the
// golden wire fixtures and the sweep determinism contract.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace eth::lz {

/// Smallest back-reference the token format can express.
inline constexpr std::size_t kMinMatch = 4;

/// Largest back-reference distance (2-byte little-endian offset).
inline constexpr std::size_t kMaxOffset = 65535;

/// Upper bound on `compress(src).size()` for an input of `n` bytes
/// (worst case: incompressible data stored as one literal run).
std::size_t max_compressed_size(std::size_t n);

/// Compress `src` into the block format above. Deterministic. The
/// result is allocated at its exact size.
std::vector<std::uint8_t> compress(std::span<const std::uint8_t> src);

/// Decompress `src` into exactly `dst.size()` bytes. Throws
/// TransportError{kTruncated|kCorruptFrame} on malformed input; on
/// return every byte of `dst` has been produced by the stream.
void decompress(std::span<const std::uint8_t> src,
                std::span<std::uint8_t> dst);

/// Element size of the byte-plane shuffle: serialized payloads are
/// dominated by f32 arrays (see the wire-width contract in
/// data/compression.hpp). Part of the ETHZ frame format — both ends
/// must agree.
inline constexpr std::size_t kShuffleStride = 4;

/// Byte-plane shuffle preconditioner (the trick Blosc uses): regroup
/// the byte stream so byte k of every `kShuffleStride`-byte element
/// lands in plane k. Scientific float payloads rarely repeat whole f32
/// values, but their high (exponent) bytes repeat heavily once grouped,
/// which is what makes byte-LZ effective on them. A trailing
/// `size % kShuffleStride` remainder is appended unshuffled. Lossless:
/// `byte_unshuffle` restores the input exactly.
///
/// The stream is the concatenation of `parts` (a scatter-gather
/// payload's segments, of any lengths), shuffled straight into `out`,
/// which must hold exactly their total size.
void byte_shuffle(std::span<const std::span<const std::uint8_t>> parts,
                  std::span<std::uint8_t> out);
std::vector<std::uint8_t> byte_unshuffle(std::span<const std::uint8_t> src);

} // namespace eth::lz
