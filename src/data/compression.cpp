#include "data/compression.hpp"

#include <cmath>

#include "common/error.hpp"
#include "data/point_set.hpp"
#include "data/serialize.hpp"
#include "data/structured_grid.hpp"

namespace eth {

namespace {

constexpr std::uint32_t kMagic = 0x45544851; // "ETHQ"

void check_bits(int bits) {
  require(bits >= 1 && bits <= 24, "compression: bits must be in [1, 24]");
}

/// Append the raw little-endian bit stream of `code` (lowest `bits`).
class BitWriter {
public:
  explicit BitWriter(std::vector<std::uint8_t>& out) : out_(out) {}

  void put(std::uint32_t code, int bits) {
    acc_ |= std::uint64_t(code) << fill_;
    fill_ += bits;
    while (fill_ >= 8) {
      out_.push_back(static_cast<std::uint8_t>(acc_));
      acc_ >>= 8;
      fill_ -= 8;
    }
  }

  void flush() {
    if (fill_ > 0) {
      out_.push_back(static_cast<std::uint8_t>(acc_));
      acc_ = 0;
      fill_ = 0;
    }
  }

private:
  std::vector<std::uint8_t>& out_;
  std::uint64_t acc_ = 0;
  int fill_ = 0;
};

class BitReader {
public:
  BitReader(std::span<const std::uint8_t> in, std::size_t offset)
      : in_(in), pos_(offset) {}

  std::uint32_t get(int bits) {
    while (fill_ < bits) {
      require_transport(pos_ < in_.size(), TransportErrorCode::kTruncated,
                        "compression: truncated bit stream");
      acc_ |= std::uint64_t(in_[pos_++]) << fill_;
      fill_ += 8;
    }
    const auto code = static_cast<std::uint32_t>(acc_ & ((std::uint64_t(1) << bits) - 1));
    acc_ >>= bits;
    fill_ -= bits;
    return code;
  }

  std::size_t byte_position() const { return pos_; }

private:
  std::span<const std::uint8_t> in_;
  std::size_t pos_;
  std::uint64_t acc_ = 0;
  int fill_ = 0;
};

/// Range of the FINITE values only. A NaN at element 0 used to poison
/// both bounds (std::min/std::max propagate it) and abort the run at
/// quantize_pack's `hi >= lo` contract; Inf would stretch the range
/// until every finite value quantized to one code. Non-finite inputs
/// are instead mapped to a deterministic code by quantize_pack below.
/// All-non-finite (or empty) input yields the degenerate range {0, 0}.
std::pair<Real, Real> value_range(std::span<const Real> values) {
  bool seen = false;
  Real lo = 0, hi = 0;
  for (const Real v : values) {
    if (!std::isfinite(v)) continue;
    if (!seen) {
      lo = hi = v;
      seen = true;
      continue;
    }
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  return {lo, hi};
}

} // namespace

std::size_t quantize_pack(std::span<const Real> values, int bits, Real lo, Real hi,
                          std::vector<std::uint8_t>& out) {
  check_bits(bits);
  require(std::isfinite(lo) && std::isfinite(hi),
          "quantize_pack: range bounds must be finite");
  require(hi >= lo, "quantize_pack: inverted range");
  const std::size_t before = out.size();
  const auto levels = (std::uint32_t(1) << bits) - 1;
  const Real span = hi - lo;
  const Real scale = span > 0 ? Real(levels) / span : Real(0);
  BitWriter writer(out);
  for (const Real v : values) {
    // Non-finite values get the deterministic code 0 (they are outside
    // any finite range anyway; lround on a NaN is UB otherwise). They
    // reconstruct as `lo` — lossy, like every other value here.
    if (!std::isfinite(v)) {
      writer.put(0u, bits);
      continue;
    }
    const Real t = clamp((v - lo) * scale, Real(0), Real(levels));
    writer.put(static_cast<std::uint32_t>(std::lround(t)), bits);
  }
  writer.flush();
  return out.size() - before;
}

std::size_t unpack_dequantize(std::span<const std::uint8_t> in, std::size_t offset,
                              Index count, int bits, Real lo, Real hi,
                              std::span<Real> values) {
  check_bits(bits);
  require(count >= 0, "unpack_dequantize: negative count");
  require(values.size() == static_cast<std::size_t>(count),
          "unpack_dequantize: output span size mismatch");
  // Untrusted-input contract: validate that the packed stream actually
  // carries `count` codes before reading any of them, so a truncated
  // payload is rejected up front (TransportError, like the frame
  // decoder) rather than read past. The division avoids overflow of
  // count * bits for adversarial counts.
  require_transport(offset <= in.size(), TransportErrorCode::kTruncated,
                    "unpack_dequantize: offset past end of packed payload");
  const std::uint64_t capacity_codes =
      std::uint64_t(in.size() - offset) * 8 / std::uint64_t(bits);
  require_transport(static_cast<std::uint64_t>(count) <= capacity_codes,
                    TransportErrorCode::kTruncated,
                    "unpack_dequantize: packed payload shorter than its "
                    "declared code count");
  const auto levels = (std::uint32_t(1) << bits) - 1;
  const Real step = levels > 0 ? (hi - lo) / Real(levels) : Real(0);
  BitReader reader(in, offset);
  for (Index i = 0; i < count; ++i)
    values[static_cast<std::size_t>(i)] = lo + Real(reader.get(bits)) * step;
  return reader.byte_position();
}

Real quantization_error_bound(Real lo, Real hi, int bits) {
  check_bits(bits);
  const auto levels = (std::uint32_t(1) << bits) - 1;
  return (hi - lo) / Real(levels) * Real(0.5);
}

namespace {

// Wire-width contract: the quantization header stores each array's
// reconstruction range as IEEE-754 binary32 via put_f32/get_f32. That
// is exact while Real == float; a Real = double build would silently
// narrow lo/hi here and corrupt every reconstructed value. Widening the
// wire format is a golden-fixture break, so until that is done
// deliberately, refuse to compile with a wider Real. (See the matching
// contract note in data/compression.hpp.)
static_assert(sizeof(Real) == sizeof(float),
              "quantization header stores lo/hi as f32; widen the wire "
              "format (and regenerate golden fixtures) before making "
              "Real wider than float");

void compress_array(std::span<const Real> values, int bits, ByteWriter& header,
                    std::vector<std::uint8_t>& payload) {
  const auto [lo, hi] = value_range(values);
  header.put_f32(lo);
  header.put_f32(hi);
  header.put_i64(static_cast<Index>(values.size()));
  quantize_pack(values, bits, lo, hi, payload);
}

std::size_t decompress_array(WireReader& header, std::span<const std::uint8_t> payload,
                             std::size_t offset, int bits, std::vector<Real>& out) {
  const Real lo = header.get_f32();
  const Real hi = header.get_f32();
  const Index count = header.get_i64();
  require_transport(count >= 0, TransportErrorCode::kCorruptFrame,
                    "compression: negative array length");
  require_transport(std::isfinite(lo) && std::isfinite(hi) && hi >= lo,
                    TransportErrorCode::kCorruptFrame,
                    "compression: corrupt reconstruction range");
  // Validate the payload carries this array BEFORE allocating `count`
  // elements — an adversarial length must not trigger a huge resize.
  require_transport(offset <= payload.size(), TransportErrorCode::kTruncated,
                    "compression: packed payload offset out of bounds");
  require_transport(static_cast<std::uint64_t>(count) <=
                        std::uint64_t(payload.size() - offset) * 8 /
                            std::uint64_t(bits),
                    TransportErrorCode::kTruncated,
                    "compression: packed payload shorter than its declared "
                    "array length");
  out.resize(static_cast<std::size_t>(count));
  return unpack_dequantize(payload, offset, count, bits, lo, hi, out);
}

} // namespace

std::vector<std::uint8_t> compress_dataset(const DataSet& ds, int bits) {
  check_bits(bits);
  require(ds.kind() == DataSetKind::kPointSet ||
              ds.kind() == DataSetKind::kStructuredGrid,
          "compress_dataset: supported for PointSet and StructuredGrid payloads");

  ByteWriter header;
  header.put_u32(kMagic);
  header.put_u8(static_cast<std::uint8_t>(ds.kind()));
  header.put_u8(static_cast<std::uint8_t>(bits));

  std::vector<std::uint8_t> payload;
  if (ds.kind() == DataSetKind::kPointSet) {
    const auto& ps = static_cast<const PointSet&>(ds);
    // Positions as one interleaved float array.
    const std::span<const Real> xyz(reinterpret_cast<const Real*>(ps.positions().data()),
                                    ps.positions().size() * 3);
    compress_array(xyz, bits, header, payload);
  } else {
    const auto& grid = static_cast<const StructuredGrid&>(ds);
    for (int a = 0; a < 3; ++a) header.put_i64(grid.dims()[a]);
    for (int a = 0; a < 3; ++a) header.put_f32(grid.origin()[a]);
    for (int a = 0; a < 3; ++a) header.put_f32(grid.spacing()[a]);
  }

  header.put_u32(static_cast<std::uint32_t>(ds.point_fields().size()));
  for (const Field& f : ds.point_fields()) {
    header.put_string(f.name());
    header.put_u32(static_cast<std::uint32_t>(f.components()));
    compress_array(f.values(), bits, header, payload);
  }

  std::vector<std::uint8_t> out = header.take();
  const std::uint64_t header_size = out.size();
  // Prefix with the header size so the reader can find the payload.
  std::vector<std::uint8_t> framed;
  framed.reserve(8 + out.size() + payload.size());
  for (int i = 0; i < 8; ++i)
    framed.push_back(static_cast<std::uint8_t>(header_size >> (8 * i)));
  framed.insert(framed.end(), out.begin(), out.end());
  framed.insert(framed.end(), payload.begin(), payload.end());
  return framed;
}

namespace {

std::unique_ptr<DataSet> decompress_dataset_body(
    std::span<const std::uint8_t> bytes, std::uint64_t header_size);

} // namespace

std::unique_ptr<DataSet> decompress_dataset(std::span<const std::uint8_t> bytes) {
  // Untrusted-input contract: `bytes` may arrive off the wire, so every
  // malformed shape — truncation, oversized lengths, trailing bytes —
  // is rejected as a classified TransportError (like the frame
  // decoder), never read past or surfaced as a crash. Parse errors
  // raised as generic eth::Error inside the readers are translated to
  // kCorruptFrame by the wrapper below.
  require_transport(bytes.size() >= 8, TransportErrorCode::kTruncated,
                    "decompress_dataset: truncated frame");
  std::uint64_t header_size = 0;
  for (int i = 0; i < 8; ++i) header_size |= std::uint64_t(bytes[static_cast<std::size_t>(i)]) << (8 * i);
  require_transport(header_size <= bytes.size() - 8,
                    TransportErrorCode::kTruncated,
                    "decompress_dataset: corrupt header size");
  try {
    return decompress_dataset_body(bytes, header_size);
  } catch (const TransportError&) {
    throw;
  } catch (const Error& error) {
    throw TransportError(TransportErrorCode::kCorruptFrame, error.what());
  }
}

namespace {

std::unique_ptr<DataSet> decompress_dataset_body(
    std::span<const std::uint8_t> bytes, std::uint64_t header_size) {
  WireReader header(bytes.subspan(8, header_size));
  const std::span<const std::uint8_t> payload = bytes.subspan(8 + header_size);
  require_transport(header.remaining() >= 4 && header.get_u32() == kMagic,
                    TransportErrorCode::kCorruptFrame,
                    "decompress_dataset: bad magic");
  const auto kind = static_cast<DataSetKind>(header.get_u8());
  const int bits = header.get_u8();
  check_bits(bits);

  std::unique_ptr<DataSet> ds;
  std::size_t offset = 0;
  std::vector<Real> scratch;
  if (kind == DataSetKind::kPointSet) {
    offset = decompress_array(header, payload, offset, bits, scratch);
    require(scratch.size() % 3 == 0, "decompress_dataset: position array not xyz");
    auto ps = std::make_unique<PointSet>(static_cast<Index>(scratch.size() / 3));
    for (Index i = 0; i < ps->num_points(); ++i)
      ps->set_position(i, {scratch[static_cast<std::size_t>(3 * i)],
                           scratch[static_cast<std::size_t>(3 * i + 1)],
                           scratch[static_cast<std::size_t>(3 * i + 2)]});
    ds = std::move(ps);
  } else if (kind == DataSetKind::kStructuredGrid) {
    Vec3i dims;
    for (int a = 0; a < 3; ++a) dims[a] = header.get_i64();
    Vec3f origin, spacing;
    for (int a = 0; a < 3; ++a) origin[a] = header.get_f32();
    for (int a = 0; a < 3; ++a) spacing[a] = header.get_f32();
    ds = std::make_unique<StructuredGrid>(dims, origin, spacing);
  } else {
    fail("decompress_dataset: unsupported dataset kind");
  }

  const std::uint32_t num_fields = header.get_u32();
  for (std::uint32_t f = 0; f < num_fields; ++f) {
    const std::string name = header.get_string();
    const int components = static_cast<int>(header.get_u32());
    offset = decompress_array(header, payload, offset, bits, scratch);
    require(components > 0 && scratch.size() % static_cast<std::size_t>(components) == 0,
            "decompress_dataset: field shape mismatch");
    Field field(name, static_cast<Index>(scratch.size()) / components, components);
    std::copy(scratch.begin(), scratch.end(), field.values().begin());
    ds->point_fields().add(std::move(field));
  }
  // Oversized payloads are as suspect as truncated ones: every header
  // and payload byte must be accounted for by the arrays just parsed.
  require_transport(header.at_end(), TransportErrorCode::kCorruptFrame,
                    "decompress_dataset: trailing header bytes");
  require_transport(offset == payload.size(), TransportErrorCode::kCorruptFrame,
                    "decompress_dataset: trailing payload bytes");
  return ds;
}

} // namespace

} // namespace eth
