#pragma once
// Seeded, deterministic fault injection for the in-situ transport path.
//
// On a 432-node machine like the paper's Hikari, transient transport
// failures — slow peers, dropped connections, truncated writes, bit
// damage — are the norm, and SIM-SITU-style exploration argues the
// platform's FAILURE behaviour must be modelled, not just its speed.
// This subsystem makes failures a first-class, reproducible experiment
// input:
//
//  * FaultSchedule  - a pure function (seed, stream, message) -> fault,
//                     built on eth::Rng/derive_seed, so the same seed
//                     always yields the same schedule regardless of
//                     thread interleaving.
//  * FaultInjector  - a Transport decorator that applies the schedule:
//                     frame truncation, payload bit-flips, per-message
//                     delay on the send path; receive timeouts on the
//                     recv path; connection refusals at rendezvous.
//  * RobustnessReport + transfer_with_retry - the hardened delivery
//                     loop: detected faults (CRC mismatch, truncation,
//                     timeout) are retried up to a budget, then the
//                     frame is dropped and counted. The per-run
//                     counters (sent/retried/dropped/corrupt) surface
//                     through core/table as the robustness report.
//
// Faults are injected BELOW the CRC framing layer, into the segments of
// the framed WireMessage on its way to the inner transport, so every
// injected corruption must be caught by the checksum — which is exactly
// what the robustness test suite asserts. Damage lands in copies; the
// sender's frame and the live buffers it borrows are never touched.

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "insitu/transport.hpp"

namespace eth::insitu {

enum class FaultKind : std::uint8_t {
  kNone = 0,
  kConnectRefused, ///< rendezvous: the connection attempt is rejected
  kRecvTimeout,    ///< the message is consumed but reported as late
  kTruncate,       ///< the frame loses its tail in transit
  kBitFlip,        ///< one bit of the frame is damaged
  kDelay,          ///< the frame is delivered after an injected stall
};

const char* to_string(FaultKind kind);

/// Per-category fault probabilities plus the master seed. All-zero
/// probabilities (the default) mean the injector is a pass-through.
struct FaultConfig {
  std::uint64_t seed = 0;

  double p_connect_refused = 0; ///< per rendezvous attempt
  double p_recv_timeout = 0;    ///< per received message
  double p_truncate = 0;        ///< per sent message
  double p_bit_flip = 0;        ///< per sent message
  double p_delay = 0;           ///< per sent message
  double delay_ms = 5.0;        ///< mean injected delay for kDelay

  bool any() const {
    return p_connect_refused > 0 || p_recv_timeout > 0 || p_truncate > 0 ||
           p_bit_flip > 0 || p_delay > 0;
  }
};

/// One scheduled fault: what happens to message `message` of a stream.
struct FaultEvent {
  Index message = 0;
  FaultKind kind = FaultKind::kNone;
  double delay_ms = 0;    ///< kDelay: how long to stall
  std::uint64_t site = 0; ///< kTruncate/kBitFlip: where to damage (raw draw)
  bool operator==(const FaultEvent&) const = default;
};

/// The deterministic schedule. Each query derives a fresh Rng from
/// (seed, stream id, message index), so schedules are identical across
/// runs and independent of the order in which streams are queried.
class FaultSchedule {
public:
  explicit FaultSchedule(FaultConfig config, std::uint64_t endpoint_id = 0);

  const FaultConfig& config() const { return config_; }

  /// Send-path fault for message `message`: kTruncate, kBitFlip, kDelay
  /// or kNone (mutually exclusive, drawn against cumulative odds).
  FaultEvent send_event(Index message) const;

  /// Recv-path fault: kRecvTimeout or kNone.
  FaultEvent recv_event(Index message) const;

  /// Rendezvous fault for connection attempt `attempt`.
  FaultEvent connect_event(Index attempt) const;

  /// Canonical textual schedule ("send 12 bit-flip site=...") for the
  /// first `n` messages of every stream — the format reproducibility
  /// tests compare and logs print.
  std::string describe(Index n) const;

private:
  FaultEvent draw(std::uint64_t stream, Index message) const;

  FaultConfig config_;
  std::uint64_t endpoint_seed_;
};

/// Transport decorator applying a FaultSchedule. `endpoint_id`
/// separates the schedules of different ranks/endpoints sharing one
/// config (each gets an independent deterministic stream).
class FaultInjector final : public Transport {
public:
  FaultInjector(std::unique_ptr<Transport> inner, const FaultConfig& config,
                std::uint64_t endpoint_id = 0);

  /// One send-schedule index per message sent and one recv-schedule
  /// index per message received. Damage is applied through the segment
  /// list: truncation trims the segment tail, a bit flip replaces only
  /// the affected segment with a damaged copy — the sender's live
  /// dataset (which borrowed segments alias) is never touched, so
  /// retries resend pristine bytes.
  void send_msg(const WireMessage& msg) override;
  WireMessage recv_msg() override;
  Bytes bytes_sent() const override { return inner_->bytes_sent(); }
  void set_recv_deadline(double seconds) override;

  const FaultSchedule& schedule() const { return schedule_; }
  Index faults_injected() const { return faults_injected_; }

private:
  std::unique_ptr<Transport> inner_;
  FaultSchedule schedule_;
  Index send_index_ = 0;
  Index recv_index_ = 0;
  Index faults_injected_ = 0;
};

// --------------------------------------------------- hardened delivery

/// Per-run transport robustness counters (DESIGN.md §8). Deterministic
/// for a fixed fault seed: every counter is a pure consequence of the
/// fault schedule.
struct RobustnessReport {
  Index frames_sent = 0;      ///< delivery attempts initiated (incl. retries)
  Index frames_delivered = 0; ///< frames that arrived intact
  Index frames_retried = 0;   ///< re-send attempts after a detected fault
  Index frames_dropped = 0;   ///< frames abandoned after the retry budget
  Index frames_corrupt = 0;   ///< CRC / truncation detections
  Index frames_timed_out = 0; ///< recv deadline expiries

  void merge(const RobustnessReport& other);
  bool operator==(const RobustnessReport&) const = default;
  std::string summary() const;
};

struct RetryPolicy {
  int max_attempts = 3;          ///< total send attempts per frame
  double recv_deadline_seconds = 5.0; ///< per-attempt recv deadline
};

/// Push `payload` through `tx` and pull it from `rx` (the two ends of
/// one channel), retrying on faults detected at the receive side
/// (corrupt, truncated or implausibly-sized frames, receive timeouts).
/// Returns the delivered message, whose segments may alias the receive
/// buffer, or nullopt when the frame was dropped after the retry budget
/// — the caller degrades gracefully instead of crashing. Send-side
/// failures (oversized payload, closed connection) are protocol
/// violations, not transit damage, and still propagate.
///
/// Pristine-retry invariant (DESIGN.md §15): the frame — including any
/// codec work — is encoded ONCE before the attempt loop; the fault
/// injector damages copies, so every retry puts the same pristine
/// (compressed) bytes back on the wire, `payload` is never mutated, and
/// compress_cpu_seconds is charged once per frame, not once per
/// attempt.
std::optional<WireMessage> transfer_with_retry(
    Transport& tx, Transport& rx, const WireMessage& payload,
    const RetryPolicy& policy, RobustnessReport& report,
    WireCodec codec = WireCodec::kNone);

/// Flat adapter over the WireMessage overload: borrows `payload` and
/// flattens the delivery. Kept only for perfbench's replay
/// (perfbench/replay.cpp), and deleted with it (ROADMAP item 2).
std::optional<std::vector<std::uint8_t>> transfer_with_retry(
    Transport& tx, Transport& rx, std::span<const std::uint8_t> payload,
    const RetryPolicy& policy, RobustnessReport& report,
    WireCodec codec = WireCodec::kNone);

/// Receive one framed message, classifying detected faults into
/// `report` instead of throwing: corrupt/truncated/timed-out frames
/// count as dropped and return nullopt. A closed connection also
/// returns nullopt (sender gone — remaining frames are lost), with the
/// `closed` flag set so streaming loops can stop. For a streaming
/// receiver that cannot request a resend (no acknowledgement protocol),
/// such as a socket consumer; the harness's hand-off retries through
/// transfer_with_retry instead, so only the socket end-to-end tests
/// call it.
std::optional<WireMessage> recv_framed_tolerant(Transport& rx, RobustnessReport& report,
                                                bool* closed = nullptr);

} // namespace eth::insitu
