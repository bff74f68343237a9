#pragma once
// Flat byte-buffer serialization of datasets.
//
// This is the wire format the in-situ transports move between the
// simulation proxy and the visualization proxy (in-process channel or
// the socket layer), and the payload the cluster model charges against
// the interconnect. Little-endian POD layout; no compression (the paper
// treats compression as a separate technique outside ETH's pipelines).
//
// One serializer, wire_message_for_dataset, builds the scatter-gather
// form: small headers become owned segments, bulk arrays (field values,
// positions, mesh vertex/index arrays) become borrowed segments aliasing
// the live dataset. One reader, WireReader, parses it back:
// deserialize_dataset(WireMessage) adopts bulk arrays straight out of
// the receive buffer (copy-on-write on first mutation). The segment
// structure is invisible on the wire. serialize_dataset and
// deserialize_dataset(span) are one-call flat adapters over the two for
// callers that hold one contiguous buffer (dump files, golden tests).

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/buffer.hpp"
#include "data/dataset.hpp"
#include "data/point_set.hpp"
#include "data/structured_grid.hpp"
#include "data/triangle_mesh.hpp"

namespace eth {

/// Append-only byte sink with typed put operations.
class ByteWriter {
public:
  void put_u8(std::uint8_t v) { buf_.push_back(v); }
  void put_u32(std::uint32_t v);
  void put_u64(std::uint64_t v);
  void put_i64(std::int64_t v) { put_u64(static_cast<std::uint64_t>(v)); }
  void put_f32(float v);
  void put_f64(double v);
  void put_string(std::string_view s);
  void put_bytes(const void* data, std::size_t n);

  const std::vector<std::uint8_t>& buffer() const { return buf_; }
  std::vector<std::uint8_t> take() { return std::move(buf_); }
  std::size_t size() const { return buf_.size(); }

private:
  std::vector<std::uint8_t> buf_;
};

/// Bounds-checked cursor over a scatter-gather WireMessage (or a single
/// span): typed little-endian getters mirroring ByteWriter's puts, which
/// throw eth::Error on truncated input (a malformed transport message
/// must not crash a run), plus zero-copy bulk array reads: get_array()
/// borrows a view into the underlying segment when the bytes are
/// contiguous, refcounted (keepalive present) and aligned for the
/// element type, and falls back to a private copy otherwise. Either way
/// the read is counted against the data-plane bytes_borrowed /
/// bytes_copied tallies.
class WireReader {
public:
  explicit WireReader(const WireMessage& msg);
  explicit WireReader(std::span<const std::uint8_t> data, Keepalive keepalive = {});

  std::uint8_t get_u8();
  std::uint32_t get_u32();
  std::uint64_t get_u64();
  std::int64_t get_i64() { return static_cast<std::int64_t>(get_u64()); }
  float get_f32();
  double get_f64();
  std::string get_string();
  void get_bytes(void* out, std::size_t n);

  /// Read `count` elements of T as a borrowed view or a private copy.
  template <typename T>
  ArrayChunk<T> get_array(std::size_t count);

  std::size_t remaining() const { return total_ - consumed_; }
  std::size_t consumed() const { return consumed_; }
  bool at_end() const { return consumed_ == total_; }

private:
  void copy_out(void* out, std::size_t n); ///< raw copy, not counted
  void advance(std::size_t n);

  std::vector<WireMessage::Segment> segments_;
  std::size_t seg_ = 0;    ///< current segment
  std::size_t off_ = 0;    ///< offset within current segment
  std::size_t consumed_ = 0;
  std::size_t total_ = 0;
};

template <typename T>
ArrayChunk<T> WireReader::get_array(std::size_t count) {
  // Compare before multiplying: a damaged count must not wrap.
  require(count <= remaining() / sizeof(T), "WireReader: truncated input (array)");
  const std::size_t nbytes = count * sizeof(T);
  ArrayChunk<T> chunk;
  if (nbytes > 0) {
    const WireMessage::Segment& seg = segments_[seg_];
    const std::uint8_t* p = seg.bytes.data() + off_;
    if (seg.keepalive && seg.bytes.size() - off_ >= nbytes &&
        reinterpret_cast<std::uintptr_t>(p) % alignof(T) == 0) {
      chunk.view = {reinterpret_cast<const T*>(p), count};
      chunk.keepalive = seg.keepalive;
      chunk.borrowed = true;
      advance(nbytes);
      note_bytes_borrowed(nbytes);
      return chunk;
    }
  }
  chunk.storage.resize(count);
  copy_out(chunk.storage.data(), nbytes);
  note_bytes_copied(nbytes);
  chunk.view = chunk.storage;
  return chunk;
}

/// Serialize any concrete DataSet (type tag included) into one flat
/// vector: wire_message_for_dataset(ds), flattened (copies every bulk
/// array).
std::vector<std::uint8_t> serialize_dataset(const DataSet& ds);

/// Scatter-gather serialization: headers are owned segments, bulk
/// arrays are borrowed segments aliasing `ds`'s live storage. The
/// CALLER must keep `ds` alive until the message has been sent (or
/// flattened); queueing transports copy unowned segments on enqueue.
WireMessage wire_message_for_dataset(const DataSet& ds);

/// As above, but bulk segments carry `ds` as keepalive, so the message
/// can cross queues and back receiver-side arrays with zero copies.
WireMessage wire_message_for_dataset(std::shared_ptr<const DataSet> ds);

/// Reconstruct the concrete dataset from serialize_dataset output: the
/// WireMessage reader over one unowned span, so every bulk array is
/// copied into fresh owned storage.
std::unique_ptr<DataSet> deserialize_dataset(std::span<const std::uint8_t> bytes);

/// Alias-on-receive reconstruction: bulk arrays borrow the message's
/// refcounted segments where alignment allows, copying otherwise. The
/// returned dataset keeps the backing buffers alive and copies-on-write
/// when first mutated.
std::unique_ptr<DataSet> deserialize_dataset(const WireMessage& msg);

} // namespace eth
