#include "data/serialize.hpp"

#include <bit>
#include <cstring>
#include <limits>
#include <optional>


namespace eth {

const char* to_string(DataSetKind kind) {
  switch (kind) {
    case DataSetKind::kPointSet: return "PointSet";
    case DataSetKind::kStructuredGrid: return "StructuredGrid";
    case DataSetKind::kTriangleMesh: return "TriangleMesh";
  }
  return "Unknown";
}

namespace {

// std::byteswap is C++23; these fold to single bswap instructions.
constexpr std::uint32_t bswap32(std::uint32_t v) {
  return ((v & 0x000000FFu) << 24) | ((v & 0x0000FF00u) << 8) |
         ((v & 0x00FF0000u) >> 8) | ((v & 0xFF000000u) >> 24);
}

constexpr std::uint64_t bswap64(std::uint64_t v) {
  return (std::uint64_t(bswap32(static_cast<std::uint32_t>(v))) << 32) |
         bswap32(static_cast<std::uint32_t>(v >> 32));
}

} // namespace

// ---------------------------------------------------------------- writer

void ByteWriter::put_u32(std::uint32_t v) {
  if constexpr (std::endian::native == std::endian::big) v = bswap32(v);
  const std::size_t at = buf_.size();
  buf_.resize(at + sizeof v);
  std::memcpy(buf_.data() + at, &v, sizeof v);
}

void ByteWriter::put_u64(std::uint64_t v) {
  if constexpr (std::endian::native == std::endian::big) v = bswap64(v);
  const std::size_t at = buf_.size();
  buf_.resize(at + sizeof v);
  std::memcpy(buf_.data() + at, &v, sizeof v);
}

void ByteWriter::put_f32(float v) {
  std::uint32_t bits;
  std::memcpy(&bits, &v, sizeof bits);
  put_u32(bits);
}

void ByteWriter::put_f64(double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof bits);
  put_u64(bits);
}

void ByteWriter::put_string(std::string_view s) {
  put_u32(static_cast<std::uint32_t>(s.size()));
  put_bytes(s.data(), s.size());
}

void ByteWriter::put_bytes(const void* data, std::size_t n) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  buf_.insert(buf_.end(), p, p + n);
}

// ----------------------------------------------------------- wire reader

WireReader::WireReader(const WireMessage& msg)
    : segments_(msg.segments()), total_(msg.total_bytes()) {}

WireReader::WireReader(std::span<const std::uint8_t> data, Keepalive keepalive)
    : total_(data.size()) {
  if (!data.empty()) segments_.push_back({data, std::move(keepalive)});
}

void WireReader::advance(std::size_t n) {
  consumed_ += n;
  off_ += n;
  while (seg_ < segments_.size() && off_ >= segments_[seg_].bytes.size()) {
    off_ -= segments_[seg_].bytes.size();
    ++seg_;
  }
}

void WireReader::copy_out(void* out, std::size_t n) {
  auto* dst = static_cast<std::uint8_t*>(out);
  while (n > 0) {
    const WireMessage::Segment& seg = segments_[seg_];
    const std::size_t take = std::min(n, seg.bytes.size() - off_);
    std::memcpy(dst, seg.bytes.data() + off_, take);
    dst += take;
    n -= take;
    advance(take);
  }
}

std::uint8_t WireReader::get_u8() {
  require(remaining() >= 1, "WireReader: truncated input (u8)");
  const std::uint8_t v = segments_[seg_].bytes[off_];
  advance(1);
  return v;
}

std::uint32_t WireReader::get_u32() {
  require(remaining() >= 4, "WireReader: truncated input (u32)");
  std::uint32_t v;
  copy_out(&v, sizeof v);
  if constexpr (std::endian::native == std::endian::big) v = bswap32(v);
  return v;
}

std::uint64_t WireReader::get_u64() {
  require(remaining() >= 8, "WireReader: truncated input (u64)");
  std::uint64_t v;
  copy_out(&v, sizeof v);
  if constexpr (std::endian::native == std::endian::big) v = bswap64(v);
  return v;
}

float WireReader::get_f32() {
  const std::uint32_t bits = get_u32();
  float v;
  std::memcpy(&v, &bits, sizeof v);
  return v;
}

double WireReader::get_f64() {
  const std::uint64_t bits = get_u64();
  double v;
  std::memcpy(&v, &bits, sizeof v);
  return v;
}

std::string WireReader::get_string() {
  const std::uint32_t n = get_u32();
  require(remaining() >= n, "WireReader: truncated input (string)");
  std::string s(static_cast<std::size_t>(n), '\0');
  copy_out(s.data(), n);
  return s;
}

void WireReader::get_bytes(void* out, std::size_t n) {
  require(remaining() >= n, "WireReader: truncated input (bytes)");
  copy_out(out, n);
}

// ---------------------------------------------------------------- fields

namespace {

/// Elements in `count` groups of `per` T, for a count read from the
/// payload: checked against the bytes left before multiplying, so a
/// damaged count cannot wrap the product.
template <typename T>
std::size_t array_length(const WireReader& r, Index count, std::size_t per) {
  require(count >= 0 && static_cast<std::uint64_t>(count) <= r.remaining() / sizeof(T) / per,
          "deserialize: array length exceeds the payload");
  return static_cast<std::size_t>(count) * per;
}

Field deserialize_field(WireReader& r) {
  const std::string name = r.get_string();
  const int components = static_cast<int>(r.get_u32());
  const FieldAssociation assoc =
      r.get_u8() == 0 ? FieldAssociation::kPoint : FieldAssociation::kCell;
  const Index tuples = r.get_i64();
  require(components > 0 && tuples >= 0, "deserialize_field: corrupt header");
  Field f(name, 0, components, assoc);
  f.adopt_values(r.get_array<Real>(
      array_length<Real>(r, tuples, static_cast<std::size_t>(components))));
  return f;
}

// --------------------------------------------------------------- dataset

constexpr std::uint32_t kMagic = 0x45544844; // "ETHD"

/// Accumulates the scatter-gather form: typed puts go into a pending
/// header writer; add_bulk() seals the pending header into an owned
/// segment and appends the bulk bytes as a borrowed segment. The
/// flattened result is byte-identical to writing everything through one
/// ByteWriter.
class WireBuilder {
public:
  ByteWriter& header() { return header_; }

  void add_bulk(const void* data, std::size_t n, const Keepalive& keep) {
    flush_header();
    msg_.append_borrowed({static_cast<const std::uint8_t*>(data), n}, keep);
  }

  WireMessage take() {
    flush_header();
    return std::move(msg_);
  }

private:
  void flush_header() {
    if (header_.size() != 0) msg_.append_owned(Buffer::adopt(header_.take()));
  }

  ByteWriter header_;
  WireMessage msg_;
};

void wire_field(WireBuilder& b, const Field& f, const Keepalive& keep) {
  ByteWriter& w = b.header();
  w.put_string(f.name());
  w.put_u32(static_cast<std::uint32_t>(f.components()));
  w.put_u8(f.association() == FieldAssociation::kPoint ? 0 : 1);
  w.put_i64(f.tuples());
  b.add_bulk(f.values().data(), f.values().size() * sizeof(Real), keep);
}

void wire_field_collection(WireBuilder& b, const FieldCollection& fc,
                           const Keepalive& keep) {
  b.header().put_u32(static_cast<std::uint32_t>(fc.size()));
  for (const Field& f : fc) wire_field(b, f, keep);
}

void wire_point_set(WireBuilder& b, const PointSet& ps, const Keepalive& keep) {
  b.header().put_i64(ps.num_points());
  b.add_bulk(ps.positions().data(), ps.positions().size() * sizeof(Vec3f), keep);
}

std::unique_ptr<PointSet> deserialize_point_set(WireReader& r) {
  const Index n = r.get_i64();
  require(n >= 0, "deserialize: negative point count");
  auto ps = std::make_unique<PointSet>();
  ps->adopt_positions(r.get_array<Vec3f>(static_cast<std::size_t>(n)));
  return ps;
}

void wire_grid(WireBuilder& b, const StructuredGrid& g, const Keepalive&) {
  ByteWriter& w = b.header();
  for (int a = 0; a < 3; ++a) w.put_i64(g.dims()[a]);
  for (int a = 0; a < 3; ++a) w.put_f32(g.origin()[a]);
  for (int a = 0; a < 3; ++a) w.put_f32(g.spacing()[a]);
}

std::unique_ptr<StructuredGrid> deserialize_grid(WireReader& r) {
  Vec3i dims;
  Index points = 1;
  for (int a = 0; a < 3; ++a) {
    dims[a] = r.get_i64();
    // Bounding the product keeps num_points() and every index from wrapping.
    require(dims[a] >= 1 && dims[a] <= std::numeric_limits<Index>::max() / points,
            "deserialize: corrupt grid dims");
    points *= dims[a];
  }
  Vec3f origin, spacing;
  for (int a = 0; a < 3; ++a) origin[a] = r.get_f32();
  for (int a = 0; a < 3; ++a) spacing[a] = r.get_f32();
  return std::make_unique<StructuredGrid>(dims, origin, spacing);
}

void wire_mesh(WireBuilder& b, const TriangleMesh& m, const Keepalive& keep) {
  ByteWriter& w = b.header();
  w.put_i64(m.num_points());
  w.put_u8(m.has_normals() ? 1 : 0);
  w.put_i64(m.num_triangles());
  b.add_bulk(m.vertices().data(), m.vertices().size() * sizeof(Vec3f), keep);
  if (m.has_normals())
    b.add_bulk(m.normals().data(), m.normals().size() * sizeof(Vec3f), keep);
  b.add_bulk(m.indices().data(), m.indices().size() * sizeof(Index), keep);
}

std::unique_ptr<TriangleMesh> deserialize_mesh(WireReader& r) {
  const Index nv = r.get_i64();
  const bool has_normals = r.get_u8() != 0;
  const Index nt = r.get_i64();
  require(nv >= 0 && nt >= 0, "deserialize: negative mesh counts");
  auto m = std::make_unique<TriangleMesh>();
  ArrayChunk<Vec3f> vertices = r.get_array<Vec3f>(static_cast<std::size_t>(nv));
  ArrayChunk<Vec3f> normals;
  if (has_normals) normals = r.get_array<Vec3f>(static_cast<std::size_t>(nv));
  ArrayChunk<Index> indices = r.get_array<Index>(array_length<Index>(r, nt, 3));
  for (const Index i : indices.view)
    require(i >= 0 && i < nv, "deserialize: triangle vertex index out of range");
  m->adopt_vertices(std::move(vertices));
  if (has_normals) m->adopt_normals(std::move(normals));
  m->adopt_indices(std::move(indices));
  return m;
}

WireMessage wire_message_impl(const DataSet& ds, const Keepalive& keep) {
  WireBuilder b;
  b.header().put_u32(kMagic);
  b.header().put_u8(static_cast<std::uint8_t>(ds.kind()));
  switch (ds.kind()) {
    case DataSetKind::kPointSet:
      wire_point_set(b, static_cast<const PointSet&>(ds), keep);
      break;
    case DataSetKind::kStructuredGrid:
      wire_grid(b, static_cast<const StructuredGrid&>(ds), keep);
      break;
    case DataSetKind::kTriangleMesh:
      wire_mesh(b, static_cast<const TriangleMesh&>(ds), keep);
      break;
  }
  wire_field_collection(b, ds.point_fields(), keep);
  wire_field_collection(b, ds.cell_fields(), keep);
  return b.take();
}

/// Cells a dataset's cell fields index: none for a point set.
std::optional<Index> cell_count(const DataSet& ds) {
  switch (ds.kind()) {
    case DataSetKind::kPointSet: return std::nullopt;
    case DataSetKind::kStructuredGrid: return static_cast<const StructuredGrid&>(ds).num_cells();
    case DataSetKind::kTriangleMesh: return static_cast<const TriangleMesh&>(ds).num_triangles();
  }
  return std::nullopt;
}

std::unique_ptr<DataSet> deserialize_dataset_impl(WireReader& r) {
  require(r.get_u32() == kMagic, "deserialize_dataset: bad magic");
  const auto kind = static_cast<DataSetKind>(r.get_u8());
  std::unique_ptr<DataSet> ds;
  switch (kind) {
    case DataSetKind::kPointSet: ds = deserialize_point_set(r); break;
    case DataSetKind::kStructuredGrid: ds = deserialize_grid(r); break;
    case DataSetKind::kTriangleMesh: ds = deserialize_mesh(r); break;
    default: fail("deserialize_dataset: unknown dataset kind");
  }
  // Consumers index a field by the topology, so its length must match.
  // A point set has no cells; its cell fields are free-form.
  const std::optional<Index> cells = cell_count(*ds);
  const std::uint32_t n_point = r.get_u32();
  for (std::uint32_t i = 0; i < n_point; ++i) {
    const Field& f = ds->point_fields().add(deserialize_field(r));
    require(f.tuples() == ds->num_points(), "deserialize_dataset: point field length mismatch");
  }
  const std::uint32_t n_cell = r.get_u32();
  for (std::uint32_t i = 0; i < n_cell; ++i) {
    const Field& f = ds->cell_fields().add(deserialize_field(r));
    require(!cells || f.tuples() == *cells, "deserialize_dataset: cell field length mismatch");
  }
  require(r.at_end(), "deserialize_dataset: trailing bytes");
  return ds;
}

} // namespace

WireMessage wire_message_for_dataset(const DataSet& ds) {
  return wire_message_impl(ds, {});
}

WireMessage wire_message_for_dataset(std::shared_ptr<const DataSet> ds) {
  require(ds != nullptr, "wire_message_for_dataset: null dataset");
  const DataSet& ref = *ds;
  return wire_message_impl(ref, Keepalive(std::move(ds)));
}

std::vector<std::uint8_t> serialize_dataset(const DataSet& ds) {
  // Single source of truth for the wire format: the legacy contiguous
  // path is the scatter-gather path, flattened.
  return wire_message_for_dataset(ds).flatten();
}

std::unique_ptr<DataSet> deserialize_dataset(std::span<const std::uint8_t> bytes) {
  WireReader r(bytes); // no keepalive: every bulk array is copied
  return deserialize_dataset_impl(r);
}

std::unique_ptr<DataSet> deserialize_dataset(const WireMessage& msg) {
  WireReader r(msg);
  return deserialize_dataset_impl(r);
}

} // namespace eth
