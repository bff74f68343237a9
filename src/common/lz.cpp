#include "common/lz.hpp"

#include <algorithm>
#include <cstring>

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

std::uint32_t hash4(std::uint32_t v) {
  return (v * 2654435761u) >> (32 - kHashLog);
}

void emit_run_length(std::vector<std::uint8_t>& out, std::size_t len) {
  while (len >= 255) {
    out.push_back(255);
    len -= 255;
  }
  out.push_back(static_cast<std::uint8_t>(len));
}

} // namespace

std::size_t max_compressed_size(std::size_t n) {
  // One literal run: token + ceil((n - 15) / 255) run bytes + n literals.
  return n + n / 255 + 16;
}

std::vector<std::uint8_t> compress(std::span<const std::uint8_t> src) {
  const std::size_t n = src.size();
  std::vector<std::uint8_t> out;
  out.reserve(n / 2 + 16);

  const auto emit_literals = [&](std::size_t start, std::size_t len,
                                 std::uint8_t match_nibble) {
    const std::uint8_t lit_nibble =
        static_cast<std::uint8_t>(std::min<std::size_t>(len, 15));
    out.push_back(static_cast<std::uint8_t>(lit_nibble << 4) | match_nibble);
    if (lit_nibble == 15) emit_run_length(out, len - 15);
    out.insert(out.end(), src.begin() + static_cast<std::ptrdiff_t>(start),
               src.begin() + static_cast<std::ptrdiff_t>(start + len));
  };

  if (n < kMfLimit) {
    emit_literals(0, n, 0);
    return out;
  }

  std::vector<std::uint32_t> table(std::size_t{1} << kHashLog, kEmptySlot);
  const std::size_t match_limit = n - kMfLimit;
  const std::size_t extend_limit = n - kLastLiterals;
  std::size_t anchor = 0;
  std::size_t i = 0;
  while (i < match_limit) {
    const std::uint32_t h = hash4(read32(&src[i]));
    const std::uint32_t cand = table[h];
    table[h] = static_cast<std::uint32_t>(i);
    if (cand == kEmptySlot || i - cand > kMaxOffset ||
        read32(&src[cand]) != read32(&src[i])) {
      ++i;
      continue;
    }
    std::size_t len = kMinMatch;
    while (i + len < extend_limit && src[cand + len] == src[i + len]) ++len;

    const std::size_t match_code = len - kMinMatch;
    const std::uint8_t match_nibble =
        static_cast<std::uint8_t>(std::min<std::size_t>(match_code, 15));
    emit_literals(anchor, i - anchor, match_nibble);
    const std::size_t offset = i - cand;
    out.push_back(static_cast<std::uint8_t>(offset & 0xFF));
    out.push_back(static_cast<std::uint8_t>(offset >> 8));
    if (match_nibble == 15) emit_run_length(out, match_code - 15);
    i += len;
    anchor = i;
  }
  emit_literals(anchor, n - anchor, 0);
  return out;
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
    // Byte-wise copy on purpose: offset < match_len overlaps are the
    // run-length encoding case and must replicate the leading bytes.
    for (std::size_t k = 0; k < match_len; ++k) {
      dst[op + k] = dst[op - offset + k];
    }
    op += match_len;
  }
  require_transport(op == out_size, TransportErrorCode::kCorruptFrame,
                    "lz: stream produced fewer bytes than the declared "
                    "raw size");
}

std::vector<std::uint8_t> byte_shuffle(std::span<const std::uint8_t> src,
                                       std::size_t stride) {
  require(stride >= 1, "lz: shuffle stride must be >= 1");
  std::vector<std::uint8_t> out(src.size());
  const std::size_t elems = src.size() / stride;
  for (std::size_t plane = 0; plane < stride; ++plane) {
    std::uint8_t* o = out.data() + plane * elems;
    for (std::size_t e = 0; e < elems; ++e) o[e] = src[e * stride + plane];
  }
  const std::size_t body = elems * stride;
  std::copy(src.begin() + static_cast<std::ptrdiff_t>(body), src.end(),
            out.begin() + static_cast<std::ptrdiff_t>(body));
  return out;
}

std::vector<std::uint8_t> byte_unshuffle(std::span<const std::uint8_t> src,
                                         std::size_t stride) {
  require(stride >= 1, "lz: shuffle stride must be >= 1");
  std::vector<std::uint8_t> out(src.size());
  const std::size_t elems = src.size() / stride;
  for (std::size_t plane = 0; plane < stride; ++plane) {
    const std::uint8_t* s = src.data() + plane * elems;
    for (std::size_t e = 0; e < elems; ++e) out[e * stride + plane] = s[e];
  }
  const std::size_t body = elems * stride;
  std::copy(src.begin() + static_cast<std::ptrdiff_t>(body), src.end(),
            out.begin() + static_cast<std::ptrdiff_t>(body));
  return out;
}

} // namespace eth::lz
