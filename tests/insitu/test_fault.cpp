// Robustness test suite for the fault-injection subsystem (DESIGN.md
// §8): schedules are bit-reproducible, every injected corruption is
// detected by the CRC framing layer (never silently deserialized),
// truncation and dead peers raise classified TransportErrors instead of
// hanging, and the harness degrades gracefully with deterministic
// robustness counters. Every test that exercises a blocking path also
// asserts a wall-clock deadline.

#include "insitu/fault.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <thread>
#include <unistd.h>

#include "common/error.hpp"
#include "common/timer.hpp"
#include "core/harness.hpp"
#include "data/point_set.hpp"
#include "data/serialize.hpp"
#include "insitu/socket_transport.hpp"

namespace eth::insitu {
namespace {

FaultConfig every_fault_config(std::uint64_t seed) {
  FaultConfig cfg;
  cfg.seed = seed;
  cfg.p_connect_refused = 0.3;
  cfg.p_recv_timeout = 0.3;
  cfg.p_truncate = 0.2;
  cfg.p_bit_flip = 0.2;
  cfg.p_delay = 0.2;
  return cfg;
}

std::vector<std::uint8_t> sample_payload() {
  PointSet ps(16);
  for (Index i = 0; i < 16; ++i) ps.set_position(i, {Real(i), Real(i) * 2, 0});
  return serialize_dataset(ps);
}

/// A one-segment message owning `bytes`.
WireMessage msg_of(std::vector<std::uint8_t> bytes) {
  WireMessage msg;
  msg.append_owned(Buffer::adopt(std::move(bytes)));
  return msg;
}

// ------------------------------------------------------- determinism

TEST(FaultSchedule, IdenticalSeedsYieldIdenticalSchedules) {
  const FaultConfig cfg = every_fault_config(1234);
  const FaultSchedule a(cfg, 7);
  const FaultSchedule b(cfg, 7);
  const std::string schedule = a.describe(200);
  EXPECT_FALSE(schedule.empty()); // the probabilities guarantee events
  EXPECT_EQ(schedule, b.describe(200));
  for (const Index m : {Index(0), Index(1), Index(17), Index(99)}) {
    EXPECT_EQ(a.send_event(m), b.send_event(m));
    EXPECT_EQ(a.recv_event(m), b.recv_event(m));
    EXPECT_EQ(a.connect_event(m), b.connect_event(m));
  }
}

TEST(FaultSchedule, DifferentSeedsOrEndpointsDiffer) {
  const FaultSchedule base(every_fault_config(1234), 7);
  const FaultSchedule other_seed(every_fault_config(1235), 7);
  const FaultSchedule other_endpoint(every_fault_config(1234), 8);
  EXPECT_NE(base.describe(200), other_seed.describe(200));
  EXPECT_NE(base.describe(200), other_endpoint.describe(200));
}

TEST(FaultSchedule, EventsAreIndependentOfQueryOrder) {
  const FaultConfig cfg = every_fault_config(42);
  const FaultSchedule a(cfg);
  const FaultSchedule b(cfg);
  // Query b's streams backwards and interleaved; every event must still
  // match a's forward pass.
  std::vector<FaultEvent> forward;
  for (Index m = 0; m < 32; ++m) {
    forward.push_back(a.send_event(m));
    forward.push_back(a.recv_event(m));
  }
  std::vector<FaultEvent> backward;
  for (Index m = 31; m >= 0; --m) {
    backward.push_back(b.recv_event(m));
    backward.push_back(b.send_event(m));
  }
  for (Index m = 0; m < 32; ++m) {
    EXPECT_EQ(forward[std::size_t(2 * m)], backward[std::size_t(2 * (31 - m) + 1)]);
    EXPECT_EQ(forward[std::size_t(2 * m + 1)], backward[std::size_t(2 * (31 - m))]);
  }
}

TEST(FaultSchedule, ZeroProbabilitiesArePassThrough) {
  const FaultConfig cfg; // defaults: all probabilities zero
  EXPECT_FALSE(cfg.any());
  const FaultSchedule schedule(cfg, 3);
  for (Index m = 0; m < 64; ++m) {
    EXPECT_EQ(schedule.send_event(m).kind, FaultKind::kNone);
    EXPECT_EQ(schedule.recv_event(m).kind, FaultKind::kNone);
    EXPECT_EQ(schedule.connect_event(m).kind, FaultKind::kNone);
  }
  EXPECT_TRUE(schedule.describe(64).empty());
}

// ------------------------------------------- detection at the framing

TEST(FrameIntegrity, CorruptPayloadByteIsCaughtByCrc) {
  const auto payload = sample_payload();
  auto frame = frame_encode(payload);
  frame[kFrameHeaderBytes + 5] ^= 0x10; // damage one payload bit
  try {
    frame_decode(frame);
    FAIL() << "corrupt frame was silently accepted";
  } catch (const TransportError& error) {
    EXPECT_EQ(error.code(), TransportErrorCode::kCorruptFrame);
  }
}

TEST(FrameIntegrity, MessageLengthGuardAcceptsLimitRejectsAbove) {
  check_message_length(kMaxMessageBytes); // at-limit: accepted
  try {
    check_message_length(kMaxMessageBytes + 1);
    FAIL() << "over-limit length was accepted";
  } catch (const TransportError& error) {
    EXPECT_EQ(error.code(), TransportErrorCode::kMessageTooLarge);
  }
  // A frame header promising an implausible payload is rejected before
  // any allocation is attempted.
  std::vector<std::uint8_t> header(kFrameHeaderBytes, 0);
  header[0] = 0x45; header[1] = 0x54; header[2] = 0x48; header[3] = 0x46; // "ETHF"
  const std::uint64_t huge = kMaxMessageBytes + 1;
  for (int i = 0; i < 8; ++i)
    header[8 + std::size_t(i)] = std::uint8_t(huge >> (8 * i));
  EXPECT_THROW(frame_decode(header), TransportError);
}

TEST(FaultInjector, InjectedBitFlipIsNeverSilentlyDeserialized) {
  auto [a, b] = make_inproc_channel();
  FaultConfig cfg;
  cfg.seed = 9;
  cfg.p_bit_flip = 1.0;
  FaultInjector tx(std::move(a), cfg);
  tx.send_framed_msg(msg_of(sample_payload()));
  EXPECT_EQ(tx.faults_injected(), 1);
  // The flip may land anywhere in the frame (magic, CRC, length or
  // payload); whichever it hits, the framing layer must classify it —
  // the payload never reaches the deserializer.
  try {
    b->recv_framed_msg();
    FAIL() << "bit-flipped frame was delivered as valid";
  } catch (const TransportError& error) {
    EXPECT_TRUE(error.code() == TransportErrorCode::kCorruptFrame ||
                error.code() == TransportErrorCode::kTruncated ||
                error.code() == TransportErrorCode::kMessageTooLarge)
        << to_string(error.code());
  }
}

TEST(FaultInjector, TruncatedFrameRaisesInsteadOfHanging) {
  const WallTimer timer;
  auto [a, b] = make_inproc_channel();
  FaultConfig cfg;
  cfg.seed = 5;
  cfg.p_truncate = 1.0;
  FaultInjector tx(std::move(a), cfg);
  b->set_recv_deadline(5.0);
  tx.send_framed_msg(msg_of(sample_payload()));
  try {
    b->recv_framed_msg();
    FAIL() << "truncated frame was delivered as valid";
  } catch (const TransportError& error) {
    EXPECT_EQ(error.code(), TransportErrorCode::kTruncated);
  }
  EXPECT_LT(timer.elapsed(), 5.0);
}

TEST(FaultInjector, InjectedRecvTimeoutIsClassified) {
  auto [a, b] = make_inproc_channel();
  FaultConfig cfg;
  cfg.seed = 11;
  cfg.p_recv_timeout = 1.0;
  FaultInjector rx(std::move(b), cfg);
  a->send_framed_msg(msg_of(sample_payload()));
  try {
    rx.recv_framed_msg();
    FAIL() << "timed-out frame was delivered";
  } catch (const TransportError& error) {
    EXPECT_EQ(error.code(), TransportErrorCode::kTimeout);
  }
  EXPECT_EQ(rx.faults_injected(), 1);
}

TEST(FaultInjector, DelayStallsButDeliversIntact) {
  auto [a, b] = make_inproc_channel();
  FaultConfig cfg;
  cfg.seed = 2;
  cfg.p_delay = 1.0;
  cfg.delay_ms = 1.0;
  FaultInjector tx(std::move(a), cfg);
  const auto payload = sample_payload();
  tx.send_framed_msg(msg_of(payload));
  EXPECT_EQ(b->recv_framed_msg().flatten(), payload);
  EXPECT_EQ(tx.faults_injected(), 1);
}

TEST(FaultInjector, DamageNeverReachesTheBorrowedSourceBuffer) {
  // Pristine-retry invariant (DESIGN.md §9, §15): the payload segment
  // borrows a live buffer, with a keepalive, the way the harness's
  // frames borrow the sender's dataset. A bit flip inside that segment
  // and a truncation must damage copies only, so the third attempt
  // resends the untouched bytes and the delivery aliases the buffer.
  const std::vector<std::uint8_t> payload = sample_payload();
  const std::uint64_t payload_bits = std::uint64_t(payload.size()) * 8;
  const std::uint64_t frame_bits = payload_bits + kFrameHeaderBytes * 8;
  FaultConfig cfg;
  cfg.p_truncate = 0.3;
  cfg.p_bit_flip = 0.3;
  // A deterministic search for a schedule reading: bit flip in the
  // payload segment, truncation, clean send.
  for (;; ++cfg.seed) {
    const FaultSchedule s(cfg);
    const FaultEvent flip = s.send_event(0);
    if (flip.kind == FaultKind::kBitFlip && flip.site % frame_bits >= frame_bits - payload_bits &&
        s.send_event(1).kind == FaultKind::kTruncate && s.send_event(2).kind == FaultKind::kNone)
      break;
    ASSERT_LT(cfg.seed, 100000u);
  }
  Buffer live = Buffer::copy_of(payload);
  WireMessage msg;
  msg.append_borrowed(live.span(), live.handle());

  auto [a, b] = make_inproc_channel();
  FaultInjector tx(std::move(a), cfg);
  RobustnessReport report;
  const auto got = transfer_with_retry(tx, *b, msg, RetryPolicy{}, report);
  EXPECT_EQ(tx.faults_injected(), 2);
  EXPECT_EQ(report.frames_corrupt, 2);
  EXPECT_EQ(report.frames_retried, 2);
  EXPECT_EQ(std::vector<std::uint8_t>(live.span().begin(), live.span().end()), payload);
  ASSERT_TRUE(got.has_value());
  ASSERT_EQ(got->segments().size(), 1u);
  EXPECT_EQ(got->segments()[0].bytes.data(), live.data()); // delivered by reference
  EXPECT_EQ(got->flatten(), payload);
}

// -------------------------------------------------- hardened delivery

TEST(TransferWithRetry, CleanChannelDeliversFirstTry) {
  // The flat-span adapter (perfbench's replay calls it) over the
  // message path.
  auto [a, b] = make_inproc_channel();
  RobustnessReport report;
  const auto payload = sample_payload();
  const auto got = transfer_with_retry(*a, *b, payload, RetryPolicy{}, report);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, payload);
  EXPECT_EQ(report.frames_sent, 1);
  EXPECT_EQ(report.frames_delivered, 1);
  EXPECT_EQ(report.frames_retried, 0);
  EXPECT_EQ(report.frames_dropped, 0);
  EXPECT_EQ(report.frames_corrupt, 0);
  EXPECT_EQ(report.frames_timed_out, 0);
}

TEST(TransferWithRetry, PersistentCorruptionDropsAfterBudget) {
  auto [a, b] = make_inproc_channel();
  FaultConfig cfg;
  cfg.seed = 3;
  cfg.p_bit_flip = 1.0;
  FaultInjector tx(std::move(a), cfg);
  RetryPolicy policy;
  policy.max_attempts = 3;
  RobustnessReport report;
  const auto got = transfer_with_retry(tx, *b, msg_of(sample_payload()), policy, report);
  EXPECT_FALSE(got.has_value());
  EXPECT_EQ(report.frames_sent, 3);
  EXPECT_EQ(report.frames_retried, 2);
  EXPECT_EQ(report.frames_dropped, 1);
  EXPECT_EQ(report.frames_delivered, 0);
  EXPECT_EQ(report.frames_corrupt + report.frames_timed_out, 3);
}

TEST(TransferWithRetry, TransientFaultIsRetriedToDelivery) {
  // Find a seed whose schedule faults the first send and spares the
  // second — a deterministic search, not a flaky draw.
  std::uint64_t seed = 0;
  for (;; ++seed) {
    FaultConfig probe;
    probe.seed = seed;
    probe.p_bit_flip = 0.5;
    const FaultSchedule s(probe);
    if (s.send_event(0).kind == FaultKind::kBitFlip &&
        s.send_event(1).kind == FaultKind::kNone)
      break;
    ASSERT_LT(seed, 10000u);
  }
  auto [a, b] = make_inproc_channel();
  FaultConfig cfg;
  cfg.seed = seed;
  cfg.p_bit_flip = 0.5;
  FaultInjector tx(std::move(a), cfg);
  RobustnessReport report;
  const auto payload = sample_payload();
  const auto got = transfer_with_retry(tx, *b, msg_of(payload), RetryPolicy{}, report);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->flatten(), payload);
  EXPECT_EQ(report.frames_sent, 2);
  EXPECT_EQ(report.frames_retried, 1);
  EXPECT_EQ(report.frames_corrupt, 1);
  EXPECT_EQ(report.frames_delivered, 1);
  EXPECT_EQ(report.frames_dropped, 0);
}

// ------------------------------------------------ socket-layer faults

class FaultSocketTest : public ::testing::Test {
protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("eth_fault_socket_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
    layout_ = (dir_ / "layout.txt").string();
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::filesystem::path dir_;
  std::string layout_;
};

TEST_F(FaultSocketTest, ConnectBackoffGivesUpAtDeadline) {
  // Port 1 refuses connections; the backoff loop must classify the
  // refusal and give up near the deadline rather than spin forever.
  layout_file_publish(layout_, {5, "127.0.0.1", 1});
  const WallTimer timer;
  try {
    socket_connect(layout_, 5, 0.4);
    FAIL() << "connect to a refusing port succeeded";
  } catch (const TransportError& error) {
    EXPECT_EQ(error.code(), TransportErrorCode::kConnectionRefused);
  }
  const double elapsed = timer.elapsed();
  EXPECT_GE(elapsed, 0.4);
  EXPECT_LT(elapsed, 5.0);
}

TEST_F(FaultSocketTest, DeadPeerRaisesRecvTimeoutNotHang) {
  std::unique_ptr<Transport> sim_end, viz_end;
  std::thread sim([&] { sim_end = socket_listen(layout_, 0, 10.0); });
  std::thread viz([&] { viz_end = socket_connect(layout_, 0, 10.0); });
  sim.join();
  viz.join();
  const WallTimer timer;
  viz_end->set_recv_deadline(0.2);
  try {
    viz_end->recv_msg(); // sim never sends
    FAIL() << "recv returned without a sender";
  } catch (const TransportError& error) {
    EXPECT_EQ(error.code(), TransportErrorCode::kTimeout);
  }
  EXPECT_LT(timer.elapsed(), 5.0);
}

TEST_F(FaultSocketTest, TruncatedTcpStreamRaisesInsteadOfHanging) {
  std::unique_ptr<Transport> sim_end, viz_end;
  std::thread sim([&] { sim_end = socket_listen(layout_, 0, 10.0); });
  std::thread viz([&] { viz_end = socket_connect(layout_, 0, 10.0); });
  sim.join();
  viz.join();
  const WallTimer timer;
  // A frame whose tail was lost in transit: the framing layer reports
  // truncation as soon as the (complete) message arrives short.
  auto frame = frame_encode(sample_payload());
  frame.resize(frame.size() / 2);
  sim_end->send_msg(msg_of(std::move(frame)));
  viz_end->set_recv_deadline(5.0);
  try {
    viz_end->recv_framed_msg();
    FAIL() << "truncated frame was delivered as valid";
  } catch (const TransportError& error) {
    EXPECT_EQ(error.code(), TransportErrorCode::kTruncated);
  }
  // The peer closing mid-stream is classified, not a hang.
  sim_end.reset();
  try {
    viz_end->recv_msg();
    FAIL() << "recv from a closed peer returned";
  } catch (const TransportError& error) {
    EXPECT_EQ(error.code(), TransportErrorCode::kConnectionClosed);
  }
  EXPECT_LT(timer.elapsed(), 10.0);
}

// ------------------------------------------------- harness robustness

ExperimentSpec faulted_spec() {
  ExperimentSpec spec;
  spec.name = "fault-repro";
  spec.application = Application::kHacc;
  spec.hacc.num_particles = 600;
  spec.timesteps = 3;
  spec.viz.algorithm = VizAlgorithm::kVtkPoints;
  spec.viz.image_width = 16;
  spec.viz.image_height = 16;
  spec.viz.images_per_timestep = 1;
  spec.layout.coupling = cluster::Coupling::kIntercore;
  spec.layout.nodes = 2;
  spec.layout.ranks = 2;
  return spec;
}

TEST(HarnessRobustness, FixedSeedRunIsBitReproducible) {
  ExperimentSpec spec = faulted_spec();
  spec.fault.seed = 42;
  spec.fault.p_bit_flip = 0.4;
  spec.fault.p_recv_timeout = 0.2;
  spec.transfer_retry.max_attempts = 3;

  const Harness harness;
  const RunResult first = harness.run(spec);
  const RunResult second = harness.run(spec);
  // Same seed, same schedule, same counters — bit-for-bit.
  EXPECT_EQ(first.robustness, second.robustness);
  EXPECT_EQ(first.timesteps_dropped, second.timesteps_dropped);
  // The probabilities make faults certain for this seed; the run must
  // have seen (and survived) real retries, not a quiet pass-through.
  EXPECT_GE(first.robustness.frames_sent,
            spec.timesteps * Index(spec.layout.ranks));
  EXPECT_GT(first.robustness.frames_corrupt + first.robustness.frames_timed_out, 0);
}

TEST(HarnessRobustness, TotalFrameLossDegradesGracefully) {
  ExperimentSpec spec = faulted_spec();
  spec.timesteps = 2;
  spec.fault.seed = 7;
  spec.fault.p_bit_flip = 1.0; // every attempt of every frame corrupt
  spec.transfer_retry.max_attempts = 2;

  const Harness harness;
  const RunResult result = harness.run(spec); // must not throw or hang
  EXPECT_EQ(result.timesteps_dropped, spec.timesteps);
  EXPECT_EQ(result.robustness.frames_dropped,
            spec.timesteps * Index(spec.layout.ranks));
  EXPECT_EQ(result.robustness.frames_delivered, 0);
  EXPECT_FALSE(result.final_image.has_value());

  const std::string table = robustness_table(result).to_text();
  EXPECT_NE(table.find("frames_dropped"), std::string::npos);
  EXPECT_NE(table.find("timesteps_dropped"), std::string::npos);
}

} // namespace
} // namespace eth::insitu
