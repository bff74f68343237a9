// LzCodec: the in-repo LZ4-class block codec (DESIGN.md §15).
//
// The suite pins the three contracts the wire path depends on:
// lossless round trips over adversarially-shaped inputs (empty, tiny,
// incompressible, highly repetitive, overlapping matches), strict
// classified rejection of malformed streams (kTruncated vs
// kCorruptFrame, never a crash or an out-of-bounds read), and bit
// determinism of the coded bytes (golden wire fixtures assume the
// same input always compresses to the same stream).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <span>
#include <vector>

#include "common/error.hpp"
#include "common/fingerprint.hpp"
#include "common/lz.hpp"
#include "common/rng.hpp"
#include "data/serialize.hpp"
#include "insitu/transport.hpp"
#include "sim/xrage_generator.hpp"

namespace eth {
namespace {

std::vector<std::uint8_t> roundtrip(const std::vector<std::uint8_t>& src) {
  const std::vector<std::uint8_t> coded = lz::compress(src);
  EXPECT_LE(coded.size(), lz::max_compressed_size(src.size()));
  std::vector<std::uint8_t> out(src.size());
  lz::decompress(coded, out);
  return out;
}

/// The shuffle of one contiguous stream (a payload of one segment).
std::vector<std::uint8_t> shuffle_flat(std::span<const std::uint8_t> src) {
  std::vector<std::uint8_t> out(src.size());
  lz::byte_shuffle({&src, 1}, out);
  return out;
}

TEST(LzCodec, EmptyInputRoundTrips) {
  const std::vector<std::uint8_t> src;
  EXPECT_EQ(roundtrip(src), src);
}

TEST(LzCodec, TinyInputsRoundTrip) {
  // Below the matcher's minimum useful size everything is one literal
  // run; each length from 1 to 20 exercises the token edge cases.
  for (std::size_t n = 1; n <= 20; ++n) {
    std::vector<std::uint8_t> src(n);
    std::iota(src.begin(), src.end(), std::uint8_t(7));
    EXPECT_EQ(roundtrip(src), src) << "n=" << n;
  }
}

TEST(LzCodec, IncompressibleRandomRoundTrips) {
  Rng rng(42);
  std::vector<std::uint8_t> src(10000);
  for (auto& b : src) b = std::uint8_t(rng.next_u64());
  EXPECT_EQ(roundtrip(src), src);
  // Random bytes must not explode: the stored bound holds.
  EXPECT_LE(lz::compress(src).size(), lz::max_compressed_size(src.size()));
}

TEST(LzCodec, HighlyRepetitiveCompressesHard) {
  const std::vector<std::uint8_t> src(100000, std::uint8_t(0xAB));
  const std::vector<std::uint8_t> coded = lz::compress(src);
  EXPECT_LT(coded.size(), src.size() / 50);
  std::vector<std::uint8_t> out(src.size());
  lz::decompress(coded, out);
  EXPECT_EQ(out, src);
}

TEST(LzCodec, OverlappingMatchesRoundTrip) {
  // Period-1/2/3 runs force offset < match length, the classic RLE
  // overlap case the decoder must copy byte-wise.
  for (const std::size_t period : {std::size_t(1), std::size_t(2), std::size_t(3)}) {
    std::vector<std::uint8_t> src;
    for (std::size_t i = 0; i < 5000; ++i)
      src.push_back(std::uint8_t('A' + i % period));
    EXPECT_EQ(roundtrip(src), src) << "period=" << period;
  }
}

TEST(LzCodec, LongLiteralAndMatchRunsRoundTrip) {
  // > 15 + several 255-runs in both the literal and match nibbles.
  Rng rng(7);
  std::vector<std::uint8_t> src;
  for (std::size_t i = 0; i < 2000; ++i) src.push_back(std::uint8_t(rng.next_u64()));
  src.insert(src.end(), 4000, std::uint8_t(0x11)); // long match run
  for (std::size_t i = 0; i < 1000; ++i) src.push_back(std::uint8_t(rng.next_u64()));
  EXPECT_EQ(roundtrip(src), src);
}

TEST(LzCodec, MixedStructuredPayloadRoundTrips) {
  // Float-like payload: slowly-varying values whose shuffled byte
  // planes repeat — the wire path's actual workload shape.
  std::vector<std::uint8_t> src;
  for (std::size_t i = 0; i < 20000; ++i) {
    const float v = 1.0f + 1e-4f * float(i % 977);
    const auto* p = reinterpret_cast<const std::uint8_t*>(&v);
    src.insert(src.end(), p, p + sizeof(float));
  }
  const std::vector<std::uint8_t> shuffled = shuffle_flat(src);
  const std::vector<std::uint8_t> coded = lz::compress(shuffled);
  EXPECT_LT(coded.size(), src.size());
  std::vector<std::uint8_t> out(shuffled.size());
  lz::decompress(coded, out);
  EXPECT_EQ(lz::byte_unshuffle(out), src);
}

TEST(LzCodec, CompressionIsDeterministic) {
  Rng rng(123);
  std::vector<std::uint8_t> src(50000);
  for (std::size_t i = 0; i < src.size(); ++i)
    src[i] = std::uint8_t(i % 251 == 0 ? rng.next_u64() : i / 97);
  EXPECT_EQ(lz::compress(src), lz::compress(src));
}

// Seeded payload that reaches every encoder edge the token format has:
// a literal run and match runs past 15 + 255 (255-run bytes in both
// nibbles), offset-1 and offset-3 matches longer than their offset
// (overlapping copies), and a final match that runs into the input's
// last bytes, so it must stop exactly at the last-literals limit.
std::vector<std::uint8_t> golden_edge_payload() {
  Rng rng(2024);
  std::vector<std::uint8_t> src;
  const auto random_run = [&](std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) src.push_back(std::uint8_t(rng.next_u64()));
  };
  random_run(300);
  src.insert(src.end(), 700, std::uint8_t(0x11));
  for (std::size_t i = 0; i < 600; ++i) src.push_back(std::uint8_t('a' + i % 3));
  random_run(280);
  const std::vector<std::uint8_t> head(src.begin(), src.begin() + 120);
  src.insert(src.end(), head.begin(), head.end());
  return src;
}

// Coded bytes pinned before any rewrite of the encoder: the greedy
// parse and the fixed hash table make the stream a pure function of
// the input, and the golden wire frames depend on it staying so.
TEST(LzCodec, GoldenCompressedDigest) {
  sim::XrageParams params = sim::XrageParams::small_problem();
  params.timestep = 1;
  const auto [lo, hi] = sim::grid_block_range(params.dims, 5, 16);
  const std::vector<std::uint8_t> grid_payload =
      shuffle_flat(serialize_dataset(*sim::generate_xrage_block(params, lo, hi)));
  const std::vector<std::uint8_t> edge_payload = golden_edge_payload();

  struct Golden {
    const char* name;
    const std::vector<std::uint8_t>& src;
    std::size_t coded_size;
    std::uint64_t coded_digest;
  };
  const Golden goldens[] = {
      {"shuffled xrage block", grid_payload, 80317, 0x1153418830e5270bull},
      {"edge payload", edge_payload, 610, 0x726c50a88a43f140ull},
  };
  for (const Golden& g : goldens) {
    const std::vector<std::uint8_t> coded = lz::compress(g.src);
    EXPECT_EQ(coded.size(), g.coded_size) << g.name;
    EXPECT_EQ(fingerprint_bytes(coded), g.coded_digest) << g.name;
    std::vector<std::uint8_t> out(g.src.size());
    lz::decompress(coded, out);
    EXPECT_EQ(out, g.src) << g.name;
  }
  // The final sequence is exactly the five last literals: the match
  // before it was cut at the last-literals limit, not earlier.
  const std::vector<std::uint8_t> coded = lz::compress(edge_payload);
  ASSERT_GE(coded.size(), 6u);
  EXPECT_EQ(coded[coded.size() - 6], 0x50);
  EXPECT_TRUE(std::equal(coded.end() - 5, coded.end(), edge_payload.end() - 5));
}

// ---- shuffle preconditioner

TEST(LzCodec, ShuffleIsLosslessIncludingRemainderTail) {
  Rng rng(9);
  for (const std::size_t n : {std::size_t(0), std::size_t(1), std::size_t(3),
                              std::size_t(4), std::size_t(5), std::size_t(17),
                              std::size_t(4096), std::size_t(4097)}) {
    std::vector<std::uint8_t> src(n);
    for (auto& b : src) b = std::uint8_t(rng.next_u64());
    const auto shuffled = shuffle_flat(src);
    ASSERT_EQ(shuffled.size(), src.size()) << "n=" << n;
    EXPECT_EQ(lz::byte_unshuffle(shuffled), src) << "n=" << n;
  }
}

TEST(LzCodec, ShuffleGroupsBytePlanes) {
  // 3 elements of stride 4 plus a 2-byte tail: planes then tail.
  const std::vector<std::uint8_t> src{0x00, 0x01, 0x02, 0x03,  //
                                      0x10, 0x11, 0x12, 0x13,  //
                                      0x20, 0x21, 0x22, 0x23,  //
                                      0xFE, 0xFF};
  const std::vector<std::uint8_t> expected{0x00, 0x10, 0x20, 0x01, 0x11, 0x21,
                                           0x02, 0x12, 0x22, 0x03, 0x13, 0x23,
                                           0xFE, 0xFF};
  EXPECT_EQ(shuffle_flat(src), expected);
  EXPECT_EQ(lz::byte_unshuffle(expected), src);
}

// The ETHZ encoder shuffles straight from a payload's segments, so any
// split of one byte stream must give the frame of the flat stream:
// segments of every length mod 4 (f32 elements straddle boundaries),
// empty parts, and a 1-3 byte remainder tail. The coded bytes must be
// compress(shuffle_flat(stream)), allocated at their exact size.
TEST(LzCodec, SegmentedPayloadFramesMatchFlatFrame) {
  Rng rng(77);
  for (std::size_t tail = 0; tail < 4; ++tail) {
    std::vector<std::uint8_t> flat;
    for (std::size_t i = 0; i < 3000; ++i) {
      const float v = 2.0f + 1e-3f * float(i % 211);
      const auto* p = reinterpret_cast<const std::uint8_t*>(&v);
      flat.insert(flat.end(), p, p + sizeof v);
    }
    for (std::size_t i = 0; i < tail; ++i) flat.push_back(std::uint8_t(0xA0 + i));

    const std::vector<std::uint8_t> coded = lz::compress(shuffle_flat(flat));
    EXPECT_EQ(coded.size(), coded.capacity());
    const std::vector<std::uint8_t> flat_frame =
        insitu::frame_encode(flat, insitu::WireCodec::kLz4);
    ASSERT_EQ(flat_frame.size(), insitu::kLzFrameHeaderBytes + coded.size()) << "tail " << tail;
    EXPECT_TRUE(std::equal(coded.begin(), coded.end(),
                           flat_frame.begin() + insitu::kLzFrameHeaderBytes));

    for (int split = 0; split < 8; ++split) {
      // Lengths cycle through every residue mod 4; one part is empty.
      std::vector<std::span<const std::uint8_t>> parts;
      std::size_t at = 0;
      for (std::size_t residue = 0; at < flat.size(); residue = (residue + 1) % 4) {
        const std::size_t len = std::min(flat.size() - at, 4 * rng.uniform_index(40) + residue);
        parts.emplace_back(flat.data() + at, len);
        if (parts.size() == 3) parts.emplace_back(flat.data() + at, 0);
        at += len;
      }
      std::vector<std::uint8_t> shuffled(flat.size());
      lz::byte_shuffle(parts, shuffled);
      EXPECT_EQ(shuffled, shuffle_flat(flat)) << "tail " << tail << " split " << split;

      WireMessage msg;
      for (const std::span<const std::uint8_t> part : parts) msg.append_borrowed(part);
      ASSERT_GT(msg.segments().size(), 3u);
      EXPECT_EQ(insitu::frame_encode_msg(msg, insitu::WireCodec::kLz4).flatten(), flat_frame)
          << "tail " << tail << " split " << split;
    }
  }
}

// ---- untrusted-input rejection

TEST(LzCodec, TruncatedStreamsThrowClassified) {
  std::vector<std::uint8_t> src;
  for (std::size_t i = 0; i < 3000; ++i) src.push_back(std::uint8_t(i % 7));
  const std::vector<std::uint8_t> coded = lz::compress(src);
  std::vector<std::uint8_t> out(src.size());
  // Every strict prefix must throw a TransportError — decode never
  // succeeds, crashes or reads past the span.
  for (std::size_t cut = 0; cut < coded.size(); ++cut) {
    const std::span<const std::uint8_t> prefix(coded.data(), cut);
    EXPECT_THROW(lz::decompress(prefix, out), TransportError) << "cut=" << cut;
  }
}

TEST(LzCodec, WrongDeclaredSizeThrowsCorrupt) {
  std::vector<std::uint8_t> src(1000, std::uint8_t(0x5A));
  const std::vector<std::uint8_t> coded = lz::compress(src);
  // Output buffer smaller than the stream produces -> kCorruptFrame.
  std::vector<std::uint8_t> small(src.size() - 1);
  try {
    lz::decompress(coded, small);
    FAIL() << "undersized output accepted";
  } catch (const TransportError& e) {
    EXPECT_EQ(e.code(), TransportErrorCode::kCorruptFrame);
  }
  // Output buffer larger than the stream produces -> also corrupt
  // (declared size disagrees with the stream's content).
  std::vector<std::uint8_t> big(src.size() + 1);
  try {
    lz::decompress(coded, big);
    FAIL() << "oversized output accepted";
  } catch (const TransportError& e) {
    EXPECT_EQ(e.code(), TransportErrorCode::kCorruptFrame);
  }
}

TEST(LzCodec, BadOffsetThrowsCorrupt) {
  // Hand-built stream: one literal, then a match whose offset points
  // before the start of the output.
  const std::vector<std::uint8_t> stream{
      0x14, 'x',        // token: 1 literal, match len 4+... ; literal 'x'
      0x09, 0x00,       // offset 9 > bytes produced (1) -> corrupt
  };
  std::vector<std::uint8_t> out(16);
  try {
    lz::decompress(stream, out);
    FAIL() << "bad offset accepted";
  } catch (const TransportError& e) {
    EXPECT_EQ(e.code(), TransportErrorCode::kCorruptFrame);
  }
}

TEST(LzCodec, ZeroOffsetThrowsCorrupt) {
  const std::vector<std::uint8_t> stream{
      0x14, 'x',        // 1 literal + match
      0x00, 0x00,       // offset 0 is never valid
  };
  std::vector<std::uint8_t> out(16);
  try {
    lz::decompress(stream, out);
    FAIL() << "zero offset accepted";
  } catch (const TransportError& e) {
    EXPECT_EQ(e.code(), TransportErrorCode::kCorruptFrame);
  }
}

TEST(LzCodec, RandomGarbageNeverCrashes) {
  Rng rng(31337);
  std::vector<std::uint8_t> out(4096);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<std::uint8_t> garbage(1 + std::size_t(rng.next_u64() % 512));
    for (auto& b : garbage) b = std::uint8_t(rng.next_u64());
    try {
      lz::decompress(garbage, out);
      // A garbage stream that happens to decode exactly out.size()
      // bytes is legal; anything else must have thrown.
    } catch (const TransportError&) {
      // expected for nearly all garbage
    }
  }
}

} // namespace
} // namespace eth
