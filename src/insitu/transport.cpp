#include "insitu/transport.hpp"

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>

#include "common/crc32.hpp"
#include "common/error.hpp"
#include "common/lz.hpp"
#include "common/string_util.hpp"
#include "common/timer.hpp"
#include "common/trace.hpp"
#include "data/serialize.hpp"

namespace eth::insitu {

// -------------------------------------------------- wire codec default
// Mirrors the ETH_SIMD resolution in common/simd.cpp: the process
// default is resolved once from the environment on first use, cached in
// an atomic, and re-pinnable through the override hook (tests, tools).

const char* to_string(WireCodec codec) {
  return codec == WireCodec::kLz4 ? "lz4" : "none";
}

WireCodec codec_from_string(const std::string& name) {
  if (name == "none") return WireCodec::kNone;
  if (name == "lz4") return WireCodec::kLz4;
  fail(strprintf("unknown wire codec '%s' (valid: none, lz4)", name.c_str()));
}

namespace {

std::atomic<int> g_codec{-1}; // -1 = unresolved
std::mutex g_codec_mutex;

void apply_codec(WireCodec codec) {
  g_codec.store(static_cast<int>(codec), std::memory_order_release);
}

void resolve_codec_from_env() {
  const char* env = std::getenv("ETH_WIRE_CODEC");
  apply_codec((env != nullptr && *env != '\0') ? codec_from_string(env)
                                               : WireCodec::kNone);
}

WireCodec ensure_codec_resolved() {
  int v = g_codec.load(std::memory_order_acquire);
  if (v < 0) {
    std::lock_guard<std::mutex> lock(g_codec_mutex);
    v = g_codec.load(std::memory_order_acquire);
    if (v < 0) {
      resolve_codec_from_env();
      v = g_codec.load(std::memory_order_acquire);
    }
  }
  return static_cast<WireCodec>(v);
}

} // namespace

WireCodec resolved_wire_codec() { return ensure_codec_resolved(); }

void set_wire_codec_override(const char* name) {
  std::lock_guard<std::mutex> lock(g_codec_mutex);
  if (name == nullptr) {
    resolve_codec_from_env();
  } else {
    apply_codec(codec_from_string(name));
  }
}

const char* wire_codec_label() { return to_string(ensure_codec_resolved()); }

// ------------------------------------------------------------- framing

void check_message_length(std::uint64_t length) {
  require_transport(length <= kMaxMessageBytes, TransportErrorCode::kMessageTooLarge,
                    strprintf("message length %llu exceeds kMaxMessageBytes (%llu)",
                              static_cast<unsigned long long>(length),
                              static_cast<unsigned long long>(kMaxMessageBytes)));
}

namespace {

void put_u32_le(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void put_u64_le(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

std::uint32_t get_u32_le(std::span<const std::uint8_t> in, std::size_t at) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= std::uint32_t(in[at + std::size_t(i)]) << (8 * i);
  return v;
}

std::uint64_t get_u64_le(std::span<const std::uint8_t> in, std::size_t at) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= std::uint64_t(in[at + std::size_t(i)]) << (8 * i);
  return v;
}

/// CRC32 of the logical byte stream, computed incrementally segment by
/// segment — the whole point of scatter-gather framing: integrity never
/// requires a contiguous copy.
std::uint32_t crc32_of_message(const WireMessage& msg) {
  std::uint32_t crc = 0;
  for (const WireMessage::Segment& seg : msg.segments()) crc = crc32(seg.bytes, crc);
  return crc;
}

/// Gather a message into one vector WITHOUT touching the data-plane
/// copy counters: this copy is internal to the codec (charged to
/// compress_cpu_seconds), not a data-plane ownership decision, and the
/// copied/borrowed tallies must not depend on the codec setting. Only
/// a compressed payload that arrives in several segments needs it.
std::vector<std::uint8_t> gather_message(const WireMessage& msg) {
  std::vector<std::uint8_t> out(msg.total_bytes());
  std::size_t at = 0;
  for (const WireMessage::Segment& seg : msg.segments()) {
    if (!seg.bytes.empty())
      std::memcpy(out.data() + at, seg.bytes.data(), seg.bytes.size());
    at += seg.bytes.size();
  }
  return out;
}

/// Ceiling on how much a well-formed LZ stream can expand while
/// decoding: each coded byte yields at most ~255 output bytes (a
/// match-length 255-run byte), so a header promising more than this is
/// corrupt — reject it before allocating the declared raw size.
std::uint64_t max_plausible_raw_size(std::uint64_t coded_len) {
  return coded_len * 256 + 64;
}

} // namespace

WireMessage frame_encode_msg(const WireMessage& payload, WireCodec codec) {
  check_message_length(payload.total_bytes());
  if (codec == WireCodec::kLz4) {
    std::vector<std::uint8_t> coded;
    {
      const trace::Span span("transport.compress");
      const ThreadCpuTimer cpu;
      // Shuffle straight from the payload's segments: no gathered copy.
      std::vector<std::span<const std::uint8_t>> parts;
      for (const WireMessage::Segment& seg : payload.segments()) parts.push_back(seg.bytes);
      const std::size_t n = payload.total_bytes();
      const auto shuffled = std::make_unique_for_overwrite<std::uint8_t[]>(n);
      lz::byte_shuffle(parts, {shuffled.get(), n});
      coded = lz::compress({shuffled.get(), n});
      note_compress_cpu_seconds(cpu.elapsed());
    }
    if (coded.size() < payload.total_bytes()) {
      std::vector<std::uint8_t> header;
      header.reserve(kLzFrameHeaderBytes);
      put_u32_le(header, kFrameMagicLz);
      put_u32_le(header, crc32(coded, 0));
      put_u64_le(header, coded.size());
      put_u64_le(header, payload.total_bytes());
      WireMessage frame;
      frame.append_owned(Buffer::adopt(std::move(header)));
      frame.append_owned(Buffer::adopt(std::move(coded)));
      return frame;
    }
    // Adaptive fallback: compression did not shrink this payload, so
    // emit the stored format — a codec-on wire is never larger than
    // codec-off, and tiny/incompressible messages skip the decode cost.
  }
  std::vector<std::uint8_t> header;
  header.reserve(kFrameHeaderBytes);
  put_u32_le(header, kFrameMagic);
  put_u32_le(header, crc32_of_message(payload));
  put_u64_le(header, payload.total_bytes());
  WireMessage frame;
  frame.append_owned(Buffer::adopt(std::move(header)));
  frame.append_message(payload);
  return frame;
}

namespace {

/// Stored (ETHF) frame validation — the pre-codec path, byte-for-byte.
WireMessage decode_stored_frame(const WireMessage& frame,
                                const std::uint8_t* header) {
  const std::uint32_t expected_crc = get_u32_le({header, kFrameHeaderBytes}, 4);
  const std::uint64_t length = get_u64_le({header, kFrameHeaderBytes}, 8);
  check_message_length(length);
  require_transport(frame.total_bytes() - kFrameHeaderBytes >= length,
                    TransportErrorCode::kTruncated,
                    strprintf("frame promises %llu payload bytes but carries %zu",
                              static_cast<unsigned long long>(length),
                              frame.total_bytes() - kFrameHeaderBytes));
  require_transport(frame.total_bytes() - kFrameHeaderBytes == length,
                    TransportErrorCode::kCorruptFrame,
                    "frame carries trailing bytes past its declared payload");
  WireMessage payload = frame.slice(kFrameHeaderBytes);
  require_transport(crc32_of_message(payload) == expected_crc,
                    TransportErrorCode::kCorruptFrame,
                    "frame CRC32 mismatch (payload damaged in transit)");
  return payload;
}

/// Compressed (ETHZ) frame validation: CRC over the COMPRESSED bytes
/// first (cheap, catches transit damage before any codec work), then a
/// bounds-checked decompress into one owned segment.
WireMessage decode_lz_frame(const WireMessage& frame,
                            const std::uint8_t* header) {
  require_transport(
      frame.total_bytes() >= kLzFrameHeaderBytes,
      TransportErrorCode::kTruncated,
      strprintf("lz frame of %zu bytes is shorter than the %zu-byte header",
                frame.total_bytes(), kLzFrameHeaderBytes));
  const std::span<const std::uint8_t> h{header, kLzFrameHeaderBytes};
  const std::uint32_t expected_crc = get_u32_le(h, 4);
  const std::uint64_t coded_len = get_u64_le(h, 8);
  const std::uint64_t raw_len = get_u64_le(h, 16);
  check_message_length(coded_len);
  check_message_length(raw_len);
  require_transport(frame.total_bytes() - kLzFrameHeaderBytes >= coded_len,
                    TransportErrorCode::kTruncated,
                    strprintf("lz frame promises %llu compressed bytes but "
                              "carries %zu",
                              static_cast<unsigned long long>(coded_len),
                              frame.total_bytes() - kLzFrameHeaderBytes));
  require_transport(frame.total_bytes() - kLzFrameHeaderBytes == coded_len,
                    TransportErrorCode::kCorruptFrame,
                    "lz frame carries trailing bytes past its compressed payload");
  require_transport(raw_len <= max_plausible_raw_size(coded_len),
                    TransportErrorCode::kCorruptFrame,
                    "lz frame declares an implausible decompressed size");
  const WireMessage coded = frame.slice(kLzFrameHeaderBytes);
  require_transport(crc32_of_message(coded) == expected_crc,
                    TransportErrorCode::kCorruptFrame,
                    "lz frame CRC32 mismatch (compressed bytes damaged in transit)");

  const trace::Span span("transport.decompress");
  const ThreadCpuTimer cpu;
  std::vector<std::uint8_t> gathered;
  std::span<const std::uint8_t> coded_bytes;
  if (coded.contiguous()) {
    coded_bytes = coded.contiguous_bytes();
  } else {
    gathered = gather_message(coded);
    coded_bytes = gathered;
  }
  const auto shuffled = std::make_unique_for_overwrite<std::uint8_t[]>(raw_len);
  lz::decompress(coded_bytes, {shuffled.get(), raw_len});
  std::vector<std::uint8_t> raw = lz::byte_unshuffle({shuffled.get(), raw_len});
  note_compress_cpu_seconds(cpu.elapsed());
  WireMessage payload;
  payload.append_owned(Buffer::adopt(std::move(raw)));
  return payload;
}

} // namespace

WireMessage frame_decode_msg(const WireMessage& frame) {
  require_transport(frame.total_bytes() >= kFrameHeaderBytes,
                    TransportErrorCode::kTruncated,
                    strprintf("frame of %zu bytes is shorter than the %zu-byte header",
                              frame.total_bytes(), kFrameHeaderBytes));
  // Gather the (tiny) header; it may straddle segment boundaries. Both
  // frame formats fit in kLzFrameHeaderBytes; a stored frame only needs
  // the first kFrameHeaderBytes of it.
  std::uint8_t header[kLzFrameHeaderBytes] = {0};
  {
    std::size_t filled = 0;
    const std::size_t want =
        std::min<std::size_t>(frame.total_bytes(), kLzFrameHeaderBytes);
    for (const WireMessage::Segment& seg : frame.segments()) {
      const std::size_t take = std::min(seg.bytes.size(), want - filled);
      if (take != 0) std::memcpy(header + filled, seg.bytes.data(), take);
      filled += take;
      if (filled == want) break;
    }
  }
  const std::uint32_t magic = get_u32_le({header, kLzFrameHeaderBytes}, 0);
  if (magic == kFrameMagicLz) return decode_lz_frame(frame, header);
  require_transport(magic == kFrameMagic, TransportErrorCode::kCorruptFrame,
                    "frame magic mismatch");
  return decode_stored_frame(frame, header);
}

std::vector<std::uint8_t> frame_encode(std::span<const std::uint8_t> payload,
                                       WireCodec codec) {
  WireMessage msg;
  msg.append_borrowed(payload);
  return frame_encode_msg(msg, codec).flatten();
}

std::vector<std::uint8_t> frame_decode(std::span<const std::uint8_t> frame) {
  WireMessage msg;
  msg.append_borrowed(frame);
  return frame_decode_msg(msg).flatten();
}

// The framed wrappers are the single transport-layer instrumentation
// point: every concrete transport (in-proc, TCP, fault-injected) funnels
// through them, so spans here cover the whole send/recv taxonomy.

void Transport::send_framed_msg(const WireMessage& payload, WireCodec codec) {
  const trace::Span span("transport.send");
  const WireMessage frame = frame_encode_msg(payload, codec);
  note_bytes_on_wire(frame.total_bytes());
  send_msg(frame);
}

WireMessage Transport::recv_framed_msg() {
  const trace::Span span("transport.recv");
  return frame_decode_msg(recv_msg());
}

void Transport::send_dataset(const DataSet& ds) {
  // The message borrows ds's arrays without a keepalive; the lifetime
  // contract of send_msg makes that safe (synchronous transports write
  // before returning, queueing transports copy unowned segments).
  WireMessage msg = [&] {
    const trace::Span span("serialize");
    return wire_message_for_dataset(ds);
  }();
  send_framed_msg(msg);
}

void Transport::send_dataset(std::shared_ptr<const DataSet> ds) {
  WireMessage msg = [&] {
    const trace::Span span("serialize");
    return wire_message_for_dataset(std::move(ds));
  }();
  send_framed_msg(msg);
}

std::unique_ptr<DataSet> Transport::recv_dataset() {
  WireMessage msg = recv_framed_msg();
  const trace::Span span("deserialize");
  return deserialize_dataset(msg);
}

// ----------------------------------------------------- in-proc channel

namespace {

/// One direction of the in-process channel. Messages keep their
/// segment list, so refcounted payload segments cross the queue with
/// zero copies.
struct Pipe {
  std::mutex mutex;
  std::condition_variable arrived;
  std::deque<WireMessage> queue;
  bool closed = false;

  void push(WireMessage msg) {
    {
      std::lock_guard<std::mutex> lock(mutex);
      queue.push_back(std::move(msg));
    }
    arrived.notify_one();
  }

  WireMessage pop(double deadline_seconds) {
    std::unique_lock<std::mutex> lock(mutex);
    const auto ready = [this] { return !queue.empty() || closed; };
    if (deadline_seconds > 0) {
      const bool woke = arrived.wait_for(
          lock, std::chrono::duration<double>(deadline_seconds), ready);
      require_transport(woke, TransportErrorCode::kTimeout,
                        strprintf("InProcChannel: no message within the %.3fs "
                                  "recv deadline",
                                  deadline_seconds));
    } else {
      arrived.wait(lock, ready);
    }
    require_transport(!queue.empty(), TransportErrorCode::kConnectionClosed,
                      "InProcChannel: peer endpoint destroyed while receiving");
    WireMessage msg = std::move(queue.front());
    queue.pop_front();
    return msg;
  }

  void close() {
    {
      std::lock_guard<std::mutex> lock(mutex);
      closed = true;
    }
    arrived.notify_all();
  }
};

class InProcEndpoint final : public Transport {
public:
  InProcEndpoint(std::shared_ptr<Pipe> out, std::shared_ptr<Pipe> in)
      : out_(std::move(out)), in_(std::move(in)) {}

  ~InProcEndpoint() override {
    out_->close(); // wake a peer blocked on recv so it can fail cleanly
  }

  void send_msg(const WireMessage& msg) override {
    sent_ += msg.total_bytes();
    // Enforce the lifetime contract: refcounted segments ride through
    // the queue by reference (the keepalive pins their storage);
    // unowned segments are only valid until we return, so they are
    // copied into fresh buffers here.
    WireMessage queued;
    for (const WireMessage::Segment& seg : msg.segments()) {
      if (seg.keepalive) {
        note_bytes_borrowed(seg.bytes.size());
        queued.append_borrowed(seg.bytes, seg.keepalive);
      } else {
        note_bytes_copied(seg.bytes.size());
        queued.append_owned(Buffer::copy_of(seg.bytes));
      }
    }
    out_->push(std::move(queued));
  }

  WireMessage recv_msg() override { return in_->pop(recv_deadline_); }

  Bytes bytes_sent() const override { return sent_; }

  void set_recv_deadline(double seconds) override { recv_deadline_ = seconds; }

private:
  std::shared_ptr<Pipe> out_;
  std::shared_ptr<Pipe> in_;
  Bytes sent_ = 0;
  double recv_deadline_ = kDefaultRecvDeadlineSeconds;
};

} // namespace

std::pair<std::unique_ptr<Transport>, std::unique_ptr<Transport>> make_inproc_channel() {
  auto a_to_b = std::make_shared<Pipe>();
  auto b_to_a = std::make_shared<Pipe>();
  return {std::make_unique<InProcEndpoint>(a_to_b, b_to_a),
          std::make_unique<InProcEndpoint>(b_to_a, a_to_b)};
}

} // namespace eth::insitu
