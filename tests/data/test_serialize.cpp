#include "data/serialize.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <memory>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "data/vtk_io.hpp"
#include "insitu/transport.hpp"

namespace eth {
namespace {

/// The same bytes read two ways: through one span, and through a
/// message of owned segments cut at `cuts` (ascending offsets).
std::vector<WireReader> readers_over(std::span<const std::uint8_t> bytes,
                                     std::initializer_list<std::size_t> cuts) {
  WireMessage msg;
  std::size_t from = 0;
  for (const std::size_t cut : cuts) {
    msg.append_owned(Buffer::copy_of(bytes.subspan(from, cut - from)));
    from = cut;
  }
  msg.append_owned(Buffer::copy_of(bytes.subspan(from)));
  EXPECT_EQ(msg.segments().size(), cuts.size() + 1);
  std::vector<WireReader> readers;
  readers.emplace_back(bytes);
  readers.emplace_back(msg);
  return readers;
}

TEST(WireReader, PodRoundTrip) {
  ByteWriter w;
  w.put_u8(7);                      // [0, 1)
  w.put_u32(0xDEADBEEF);            // [1, 5)
  w.put_u64(0x0123456789ABCDEFull); // [5, 13)
  w.put_i64(-42);                   // [13, 21)
  w.put_f32(3.25f);                 // [21, 25)
  w.put_f64(-1.5e300);              // [25, 33)
  w.put_string("hello");            // length [33, 37), bytes [37, 42)
  const auto buf = w.take();
  ASSERT_EQ(buf.size(), 42u);

  // Every cut lands inside a value: each u32, u64 and the string's
  // length and bytes straddle a segment boundary.
  for (WireReader& r : readers_over(buf, {3, 9, 17, 23, 29, 35, 39})) {
    EXPECT_EQ(r.get_u8(), 7);
    EXPECT_EQ(r.get_u32(), 0xDEADBEEF);
    EXPECT_EQ(r.get_u64(), 0x0123456789ABCDEFull);
    EXPECT_EQ(r.get_i64(), -42);
    EXPECT_EQ(r.get_f32(), 3.25f);
    EXPECT_EQ(r.get_f64(), -1.5e300);
    EXPECT_EQ(r.get_string(), "hello");
    EXPECT_TRUE(r.at_end());
    EXPECT_EQ(r.consumed(), buf.size());
  }
}

TEST(WireReader, TruncatedInputThrows) {
  ByteWriter w;
  w.put_u32(5);
  const auto buf = w.take();
  for (WireReader& r : readers_over(buf, {2})) {
    r.get_u32();
    EXPECT_THROW(r.get_u8(), Error);
  }
  for (WireReader& r : readers_over(buf, {2})) EXPECT_THROW(r.get_u64(), Error);

  // String header promising more bytes than remain.
  ByteWriter w3;
  w3.put_u32(1000);
  w3.put_string("abc");
  const auto buf3 = w3.take();
  for (WireReader& r : readers_over(buf3, {2, 6})) EXPECT_THROW(r.get_string(), Error);
}

TEST(WireReader, GetArrayBorrowsOnlyAlignedKeptAliveContiguousRuns) {
  const std::vector<float> values{1.5f, -2.0f, 3.25f, 8.0f};
  const std::span<const std::uint8_t> bytes{
      reinterpret_cast<const std::uint8_t*>(values.data()), values.size() * sizeof(float)};
  const auto expect_read = [&](WireReader& r, bool borrowed, const std::uint8_t* at) {
    const DataPlaneCounters before = data_plane_counters();
    const ArrayChunk<float> chunk = r.get_array<float>(values.size());
    const DataPlaneCounters after = data_plane_counters();
    EXPECT_EQ(chunk.borrowed, borrowed);
    EXPECT_EQ(chunk.keepalive != nullptr, borrowed);
    EXPECT_TRUE(std::equal(chunk.view.begin(), chunk.view.end(), values.begin()));
    if (borrowed) {
      EXPECT_EQ(reinterpret_cast<const std::uint8_t*>(chunk.view.data()), at);
    }
    EXPECT_EQ(after.bytes_borrowed - before.bytes_borrowed, borrowed ? bytes.size() : 0u);
    EXPECT_EQ(after.bytes_copied - before.bytes_copied, borrowed ? 0u : bytes.size());
    EXPECT_TRUE(r.at_end());
  };

  // Contiguous, kept alive and aligned: borrowed in place.
  const Buffer aligned = Buffer::copy_of(bytes);
  WireReader kept(aligned.span(), aligned.handle());
  expect_read(kept, true, aligned.data());

  // No keepalive: nothing pins the bytes past the read, so they are copied.
  WireReader unowned(aligned.span());
  expect_read(unowned, false, nullptr);

  // Misaligned for float (one leading byte): copied.
  std::vector<std::uint8_t> shifted{0xAA};
  shifted.insert(shifted.end(), bytes.begin(), bytes.end());
  const Buffer odd = Buffer::copy_of(shifted);
  WireReader misaligned(odd.span(), odd.handle());
  EXPECT_EQ(misaligned.get_u8(), 0xAA);
  expect_read(misaligned, false, nullptr);

  // Split across two kept-alive segments: copied.
  WireMessage split;
  split.append_owned(Buffer::copy_of(bytes.first(6)));
  split.append_owned(Buffer::copy_of(bytes.subspan(6)));
  WireReader straddling(split);
  expect_read(straddling, false, nullptr);
}

PointSet make_point_set() {
  PointSet ps(10);
  Rng rng(5);
  for (Index i = 0; i < 10; ++i) ps.set_position(i, rng.point_in_box({0, 0, 0}, {1, 1, 1}));
  Field id("id", 10, 1);
  for (Index i = 0; i < 10; ++i) id.set(i, Real(i));
  ps.point_fields().add(std::move(id));
  return ps;
}

TEST(SerializeDataset, PointSetRoundTrip) {
  const PointSet ps = make_point_set();
  const auto bytes = serialize_dataset(ps);
  const auto restored = deserialize_dataset(bytes);
  ASSERT_EQ(restored->kind(), DataSetKind::kPointSet);
  const auto& r = static_cast<const PointSet&>(*restored);
  ASSERT_EQ(r.num_points(), 10);
  for (Index i = 0; i < 10; ++i) {
    EXPECT_EQ(r.position(i), ps.position(i));
    EXPECT_EQ(r.point_fields().get("id").get(i), Real(i));
  }
}

TEST(SerializeDataset, StructuredGridRoundTrip) {
  StructuredGrid g({4, 3, 2}, {1, 2, 3}, {0.5f, 0.5f, 0.5f});
  Field& f = g.add_scalar_field("t");
  for (Index i = 0; i < g.num_points(); ++i) f.set(i, Real(i) * 0.25f);
  const auto bytes = serialize_dataset(g);
  const auto restored = deserialize_dataset(bytes);
  ASSERT_EQ(restored->kind(), DataSetKind::kStructuredGrid);
  const auto& r = static_cast<const StructuredGrid&>(*restored);
  EXPECT_EQ(r.dims(), (Vec3i{4, 3, 2}));
  EXPECT_EQ(r.origin(), (Vec3f{1, 2, 3}));
  EXPECT_EQ(r.spacing(), (Vec3f{0.5f, 0.5f, 0.5f}));
  for (Index i = 0; i < r.num_points(); ++i)
    EXPECT_EQ(r.point_fields().get("t").get(i), Real(i) * 0.25f);
}

TEST(SerializeDataset, CellVectorFieldRoundTrip) {
  // A 3-component cell field (4 tuples on a 2x2x1-cell grid) survives
  // both readers: the flat span and the keepalive message.
  auto g = std::make_shared<StructuredGrid>(Vec3i{3, 3, 2}, Vec3f{0, 0, 0},
                                            Vec3f{1, 1, 1});
  ASSERT_EQ(g->num_cells(), 4);
  Field f("velocity", 4, 3, FieldAssociation::kCell);
  Rng rng(3);
  for (Index t = 0; t < 4; ++t)
    for (int c = 0; c < 3; ++c) f.set(t, c, Real(rng.uniform(-10, 10)));
  g->cell_fields().add(f);

  const auto from_span = deserialize_dataset(serialize_dataset(*g));
  const auto from_msg =
      deserialize_dataset(wire_message_for_dataset(std::shared_ptr<const DataSet>(g)));
  for (const auto* restored : {from_span.get(), from_msg.get()}) {
    const Field& r = restored->cell_fields().get("velocity");
    EXPECT_EQ(r.components(), 3);
    EXPECT_EQ(r.tuples(), 4);
    EXPECT_EQ(r.association(), FieldAssociation::kCell);
    for (Index t = 0; t < 4; ++t)
      for (int c = 0; c < 3; ++c) EXPECT_EQ(r.get(t, c), f.get(t, c));
  }
}

TEST(SerializeDataset, TriangleMeshRoundTripWithNormals) {
  TriangleMesh m;
  m.add_vertex({0, 0, 0}, {0, 0, 1});
  m.add_vertex({1, 0, 0}, {0, 1, 0});
  m.add_vertex({0, 1, 0}, {1, 0, 0});
  m.add_triangle(0, 1, 2);
  Field s("scalar", 3, 1);
  s.set(0, 5);
  m.point_fields().add(std::move(s));

  const auto bytes = serialize_dataset(m);
  const auto restored = deserialize_dataset(bytes);
  ASSERT_EQ(restored->kind(), DataSetKind::kTriangleMesh);
  const auto& r = static_cast<const TriangleMesh&>(*restored);
  EXPECT_EQ(r.num_points(), 3);
  EXPECT_EQ(r.num_triangles(), 1);
  ASSERT_TRUE(r.has_normals());
  EXPECT_EQ(r.normals()[1], (Vec3f{0, 1, 0}));
  EXPECT_EQ(r.point_fields().get("scalar").get(0), 5);
}

TEST(SerializeDataset, TriangleMeshWithoutNormals) {
  TriangleMesh m;
  m.add_vertex({0, 0, 0});
  m.add_vertex({1, 0, 0});
  m.add_vertex({0, 1, 0});
  m.add_triangle(0, 1, 2);
  const auto bytes = serialize_dataset(m);
  const auto restored = deserialize_dataset(bytes);
  EXPECT_FALSE(static_cast<const TriangleMesh&>(*restored).has_normals());
}

// ---------------------------------------------------- property tests
// Randomized round trips: serialize(deserialize(bytes)) must reproduce
// `bytes` exactly for arbitrary datasets, and any single-byte damage to
// a framed message must be caught by the transport frame checksum.

Field random_field(Rng& rng, const std::string& name, Index tuples) {
  const int components = 1 + int(rng.uniform_index(3));
  Field f(name, tuples, components);
  for (Index t = 0; t < tuples; ++t)
    for (int c = 0; c < components; ++c) f.set(t, c, Real(rng.uniform(-1e6, 1e6)));
  return f;
}

TEST(SerializeProperty, RandomPointSetsRoundTripByteExact) {
  Rng rng(1001);
  for (int trial = 0; trial < 20; ++trial) {
    const Index n = 1 + Index(rng.uniform_index(64));
    PointSet ps(n);
    for (Index i = 0; i < n; ++i)
      ps.set_position(i, rng.point_in_box({-5, -5, -5}, {5, 5, 5}));
    const int num_fields = int(rng.uniform_index(3));
    for (int f = 0; f < num_fields; ++f)
      ps.point_fields().add(random_field(rng, "f" + std::to_string(f), n));

    const auto bytes = serialize_dataset(ps);
    const auto restored = deserialize_dataset(bytes);
    EXPECT_EQ(serialize_dataset(*restored), bytes) << "trial " << trial;
  }
}

TEST(SerializeProperty, RandomStructuredGridsRoundTripByteExact) {
  Rng rng(1002);
  for (int trial = 0; trial < 20; ++trial) {
    const Vec3i dims{Index(1 + rng.uniform_index(6)), Index(1 + rng.uniform_index(6)),
                     Index(1 + rng.uniform_index(6))};
    StructuredGrid g(dims, rng.point_in_box({-2, -2, -2}, {2, 2, 2}),
                     rng.point_in_box({0.1f, 0.1f, 0.1f}, {2, 2, 2}));
    const int num_fields = 1 + int(rng.uniform_index(2));
    for (int f = 0; f < num_fields; ++f)
      g.point_fields().add(random_field(rng, "f" + std::to_string(f), g.num_points()));

    const auto bytes = serialize_dataset(g);
    const auto restored = deserialize_dataset(bytes);
    EXPECT_EQ(serialize_dataset(*restored), bytes) << "trial " << trial;
  }
}

TEST(SerializeProperty, RandomTriangleMeshesRoundTripByteExact) {
  Rng rng(1003);
  for (int trial = 0; trial < 20; ++trial) {
    TriangleMesh m;
    const Index verts = 3 + Index(rng.uniform_index(40));
    const bool with_normals = rng.bernoulli(0.5);
    for (Index v = 0; v < verts; ++v) {
      const Vec3f p = rng.point_in_box({-1, -1, -1}, {1, 1, 1});
      if (with_normals)
        m.add_vertex(p, rng.unit_vector());
      else
        m.add_vertex(p);
    }
    const Index tris = 1 + Index(rng.uniform_index(60));
    for (Index t = 0; t < tris; ++t)
      m.add_triangle(Index(rng.uniform_index(std::uint64_t(verts))),
                     Index(rng.uniform_index(std::uint64_t(verts))),
                     Index(rng.uniform_index(std::uint64_t(verts))));
    if (rng.bernoulli(0.5))
      m.point_fields().add(random_field(rng, "scalar", verts));

    const auto bytes = serialize_dataset(m);
    const auto restored = deserialize_dataset(bytes);
    EXPECT_EQ(serialize_dataset(*restored), bytes) << "trial " << trial;
  }
}

TEST(SerializeProperty, AnySingleByteCorruptionIsCaughtByFrameChecksum) {
  // Frame a serialized dataset and damage one byte anywhere — header or
  // payload, any bit pattern. The framing layer must always classify
  // the damage as a TransportError; it never hands corrupt bytes to the
  // deserializer.
  const auto payload = serialize_dataset(make_point_set());
  const auto frame = insitu::frame_encode(payload);
  ASSERT_EQ(insitu::frame_decode(frame), payload); // intact frame passes
  Rng rng(1004);
  for (int trial = 0; trial < 128; ++trial) {
    auto damaged = frame;
    const std::size_t pos = std::size_t(rng.uniform_index(damaged.size()));
    damaged[pos] ^= std::uint8_t(1 + rng.uniform_index(255));
    EXPECT_THROW(insitu::frame_decode(damaged), TransportError)
        << "corruption at byte " << pos << " escaped the checksum";
  }
}

TEST(SerializeDataset, CorruptMagicThrows) {
  auto bytes = serialize_dataset(make_point_set());
  bytes[0] ^= 0xFF;
  EXPECT_THROW(deserialize_dataset(bytes), Error);
}

TEST(SerializeDataset, TrailingBytesThrow) {
  auto bytes = serialize_dataset(make_point_set());
  bytes.push_back(0);
  EXPECT_THROW(deserialize_dataset(bytes), Error);
}

TEST(SerializeDataset, TruncatedPayloadThrows) {
  auto bytes = serialize_dataset(make_point_set());
  bytes.resize(bytes.size() / 2);
  EXPECT_THROW(deserialize_dataset(bytes), Error);
}

TEST(SerializeDataset, UnknownKindsThrow) {
  // The kind byte follows the 4-byte magic. 4 was the retired
  // tetrahedral mesh kind.
  const auto valid = serialize_dataset(make_point_set());
  for (const std::uint8_t kind : {std::uint8_t(0), std::uint8_t(4), std::uint8_t(255)}) {
    auto bytes = valid;
    bytes[4] = kind;
    EXPECT_THROW(deserialize_dataset(bytes), Error) << "span reader, kind " << int(kind);
    WireMessage msg;
    msg.append_owned(Buffer::copy_of(bytes));
    EXPECT_THROW(deserialize_dataset(msg), Error) << "message reader, kind " << int(kind);
  }

  // A dump file of the retired kind: its header and payload both name it.
  const std::string path =
      (std::filesystem::temp_directory_path() / "eth_serialize_tet_dump.eth").string();
  auto payload = valid;
  payload[4] = 4;
  {
    std::ofstream f(path, std::ios::binary);
    f << "# eth DataFile v1\nkind TetMesh\nbytes " << payload.size() << "\n";
    f.write(reinterpret_cast<const char*>(payload.data()),
            static_cast<std::streamsize>(payload.size()));
  }
  EXPECT_THROW(read_dataset(path), Error);
  std::filesystem::remove(path);
}

} // namespace
} // namespace eth
