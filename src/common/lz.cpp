#include "common/lz.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <memory>

#include "common/error.hpp"

namespace eth::lz {
namespace {

// LZ4's end-of-block rules: the last 5 bytes are always literals, and a
// match may not start within the last 12 bytes. Inputs shorter than
// kMfLimit are emitted as a single literal run.
constexpr std::size_t kLastLiterals = 5;
constexpr std::size_t kMfLimit = 12;
constexpr int kHashLog = 16;
constexpr std::uint32_t kEmptySlot = 0xFFFFFFFFu;

std::uint32_t read32(const std::uint8_t* p) {
  std::uint32_t v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

std::uint64_t read64(const std::uint8_t* p) {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

std::uint32_t hash4(std::uint32_t v) {
  return (v * 2654435761u) >> (32 - kHashLog);
}

/// Hash table slot: the last position whose 4 bytes hashed here, and
/// those bytes. Keeping the bytes spares the miss test a read of the
/// input at the candidate; which candidate each position sees is the
/// same as with positions alone.
struct Slot {
  std::uint32_t pos;
  std::uint32_t bytes;
};

/// Length of the match at `i` against `cand` (they share their first
/// kMinMatch bytes), extended up to `limit`: 8 bytes at a time while a
/// word fits, then byte by byte. Both stop on the first differing byte,
/// so the length is the byte loop's.
std::size_t match_length(const std::uint8_t* in, std::size_t cand, std::size_t i,
                         std::size_t limit) {
  std::size_t len = kMinMatch;
  while (i + len + 8 <= limit) {
    const std::uint64_t diff = read64(in + cand + len) ^ read64(in + i + len);
    if (diff != 0) {
      const int bits = std::endian::native == std::endian::little ? std::countr_zero(diff)
                                                                   : std::countl_zero(diff);
      return len + static_cast<std::size_t>(bits) / 8;
    }
    len += 8;
  }
  while (i + len < limit && in[cand + len] == in[i + len]) ++len;
  return len;
}

std::uint8_t* emit_run_length(std::uint8_t* op, std::size_t len) {
  while (len >= 255) {
    *op++ = 255;
    len -= 255;
  }
  *op++ = static_cast<std::uint8_t>(len);
  return op;
}

/// Copy `count` whole elements from `src` into plane slots
/// [first, first + count) of `out`, whose planes hold `elems` bytes
/// each. The constant stride lets the compiler vectorize it.
void shuffle_elements(const std::uint8_t* src, std::size_t count, std::uint8_t* out,
                      std::size_t elems, std::size_t first) {
  for (std::size_t plane = 0; plane < kShuffleStride; ++plane) {
    std::uint8_t* o = out + plane * elems + first;
    for (std::size_t e = 0; e < count; ++e) o[e] = src[e * kShuffleStride + plane];
  }
}

/// Inverse of shuffle_elements over all `elems` elements, element by
/// element, so the output is written in order, a whole word per element.
void unshuffle_elements(const std::uint8_t* src, std::size_t elems, std::uint8_t* out) {
  for (std::size_t e = 0; e < elems; ++e)
    for (std::size_t plane = 0; plane < kShuffleStride; ++plane)
      out[e * kShuffleStride + plane] = src[plane * elems + e];
}

} // namespace

std::size_t max_compressed_size(std::size_t n) {
  // One literal run: token + ceil((n - 15) / 255) run bytes + n literals.
  return n + n / 255 + 16;
}

std::vector<std::uint8_t> compress(std::span<const std::uint8_t> src) {
  const std::size_t n = src.size();
  const std::uint8_t* const in = src.data();
  // The encoder writes through a pointer into a bound-sized buffer; the
  // pages past the coded length are never touched, and the result is
  // copied out at its exact size.
  const auto coded = std::make_unique_for_overwrite<std::uint8_t[]>(max_compressed_size(n));
  std::uint8_t* op = coded.get();

  const auto emit_literals = [&](std::size_t start, std::size_t len,
                                 std::uint8_t match_nibble) {
    const std::uint8_t lit_nibble =
        static_cast<std::uint8_t>(std::min<std::size_t>(len, 15));
    *op++ = static_cast<std::uint8_t>(lit_nibble << 4) | match_nibble;
    if (lit_nibble == 15) op = emit_run_length(op, len - 15);
    if (len != 0) std::memcpy(op, in + start, len);
    op += len;
  };

  std::size_t anchor = 0;
  if (n >= kMfLimit) {
    std::vector<Slot> table(std::size_t{1} << kHashLog, Slot{kEmptySlot, 0});
    const std::size_t match_limit = n - kMfLimit;
    const std::size_t extend_limit = n - kLastLiterals;
    std::size_t i = 0;
    while (i < match_limit) {
      const std::uint32_t bytes = read32(in + i);
      Slot& slot = table[hash4(bytes)];
      const Slot cand = slot;
      slot = {static_cast<std::uint32_t>(i), bytes};
      // One branch on the conjunction (non-short-circuit &): the three
      // tests are data-dependent, and separate branches mispredict.
      const bool hit = (cand.pos != kEmptySlot) & (i - cand.pos <= kMaxOffset) &
                       (cand.bytes == bytes);
      if (!hit) {
        ++i;
        continue;
      }
      const std::size_t len = match_length(in, cand.pos, i, extend_limit);
      const std::size_t match_code = len - kMinMatch;
      const std::uint8_t match_nibble =
          static_cast<std::uint8_t>(std::min<std::size_t>(match_code, 15));
      emit_literals(anchor, i - anchor, match_nibble);
      const std::size_t offset = i - cand.pos;
      *op++ = static_cast<std::uint8_t>(offset & 0xFF);
      *op++ = static_cast<std::uint8_t>(offset >> 8);
      if (match_nibble == 15) op = emit_run_length(op, match_code - 15);
      i += len;
      anchor = i;
    }
  }
  emit_literals(anchor, n - anchor, 0);
  return std::vector<std::uint8_t>(coded.get(), op);
}

void decompress(std::span<const std::uint8_t> src,
                std::span<std::uint8_t> dst) {
  std::size_t ip = 0;
  std::size_t op = 0;
  const std::size_t in_size = src.size();
  const std::size_t out_size = dst.size();

  // Called once or more per sequence: test before building the message.
  const auto need = [&](std::size_t k, const char* what) {
    if (in_size - ip < k)
      throw TransportError(TransportErrorCode::kTruncated,
                           std::string("lz: compressed stream ends inside ") + what);
  };
  const auto read_run = [&](std::size_t base) {
    std::size_t len = base;
    if (base == 15) {
      std::uint8_t b;
      do {
        need(1, "a 255-run length");
        b = src[ip++];
        len += b;
      } while (b == 255);
    }
    return len;
  };

  while (true) {
    need(1, "a sequence token");
    const std::uint8_t token = src[ip++];

    const std::size_t lit_len = read_run(token >> 4);
    need(lit_len, "a literal run");
    require_transport(out_size - op >= lit_len,
                      TransportErrorCode::kCorruptFrame,
                      "lz: literal run overflows the declared raw size");
    if (lit_len > 0) {
      std::memcpy(dst.data() + op, src.data() + ip, lit_len);
      ip += lit_len;
      op += lit_len;
    }
    if (ip == in_size) break; // literals-only terminator sequence

    need(2, "a match offset");
    const std::size_t offset = static_cast<std::size_t>(src[ip]) |
                               (static_cast<std::size_t>(src[ip + 1]) << 8);
    ip += 2;
    require_transport(offset >= 1 && offset <= op,
                      TransportErrorCode::kCorruptFrame,
                      "lz: match offset reaches before the output start");
    const std::size_t match_len = read_run(token & 0x0F) + kMinMatch;
    require_transport(out_size - op >= match_len,
                      TransportErrorCode::kCorruptFrame,
                      "lz: match run overflows the declared raw size");
    if (offset >= match_len) {
      std::memcpy(dst.data() + op, dst.data() + op - offset, match_len);
    } else {
      // Overlap (offset < match_len) is the run-length case: copy byte
      // by byte so the leading bytes replicate.
      for (std::size_t k = 0; k < match_len; ++k) dst[op + k] = dst[op - offset + k];
    }
    op += match_len;
  }
  require_transport(op == out_size, TransportErrorCode::kCorruptFrame,
                    "lz: stream produced fewer bytes than the declared "
                    "raw size");
}

void byte_shuffle(std::span<const std::span<const std::uint8_t>> parts,
                  std::span<std::uint8_t> out) {
  const std::size_t elems = out.size() / kShuffleStride;
  const std::size_t body = elems * kShuffleStride;
  // Bytes of an element split across parts, and the remainder tail,
  // move one at a time; whole elements inside a part move in bulk.
  std::size_t g = 0; // position of the next input byte in the stream
  const auto put_byte = [&](std::uint8_t v) {
    out[g < body ? (g % kShuffleStride) * elems + g / kShuffleStride : g] = v;
    ++g;
  };
  for (const std::span<const std::uint8_t> part : parts) {
    require(part.size() <= out.size() - g, "lz: shuffle input exceeds its output");
    std::size_t k = 0;
    for (; k < part.size() && g % kShuffleStride != 0; ++k) put_byte(part[k]);
    const std::size_t whole =
        std::min(part.size() - k, g < body ? body - g : 0) / kShuffleStride;
    shuffle_elements(part.data() + k, whole, out.data(), elems, g / kShuffleStride);
    k += whole * kShuffleStride;
    g += whole * kShuffleStride;
    for (; k < part.size(); ++k) put_byte(part[k]);
  }
  require(g == out.size(), "lz: shuffle input is shorter than its output");
}

std::vector<std::uint8_t> byte_unshuffle(std::span<const std::uint8_t> src) {
  std::vector<std::uint8_t> out(src.size());
  const std::size_t elems = src.size() / kShuffleStride;
  unshuffle_elements(src.data(), elems, out.data());
  const std::size_t body = elems * kShuffleStride;
  std::copy(src.begin() + static_cast<std::ptrdiff_t>(body), src.end(),
            out.begin() + static_cast<std::ptrdiff_t>(body));
  return out;
}

} // namespace eth::lz
