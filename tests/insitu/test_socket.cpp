#include "insitu/socket_transport.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <thread>
#include <unistd.h>

#include "common/error.hpp"
#include "data/point_set.hpp"

namespace eth::insitu {
namespace {

/// A one-segment message owning `bytes`.
WireMessage msg_of(std::vector<std::uint8_t> bytes) {
  WireMessage msg;
  msg.append_owned(Buffer::adopt(std::move(bytes)));
  return msg;
}

class SocketTest : public ::testing::Test {
protected:
  void SetUp() override {
    // Per-process directory: ctest runs each test as its own process,
    // possibly in parallel, so a shared path would race with TearDown.
    dir_ = std::filesystem::temp_directory_path() /
           ("eth_socket_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
    layout_ = (dir_ / "layout.txt").string();
    std::filesystem::remove(layout_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::filesystem::path dir_;
  std::string layout_;
};

TEST_F(SocketTest, LayoutFilePublishReadRoundTrip) {
  layout_file_publish(layout_, {0, "127.0.0.1", 5001});
  layout_file_publish(layout_, {3, "127.0.0.1", 5002});
  const auto entries = layout_file_read(layout_);
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].rank, 0);
  EXPECT_EQ(entries[0].port, 5001);
  EXPECT_EQ(entries[1].rank, 3);
  EXPECT_EQ(entries[1].host, "127.0.0.1");
}

TEST_F(SocketTest, ReadMissingFileGivesEmpty) {
  EXPECT_TRUE(layout_file_read(layout_).empty());
}

TEST_F(SocketTest, PublishValidatesEntries) {
  EXPECT_THROW(layout_file_publish(layout_, {-1, "h", 1}), Error);
  EXPECT_THROW(layout_file_publish(layout_, {0, "", 1}), Error);
  EXPECT_THROW(layout_file_publish(layout_, {0, "h", 0}), Error);
}

TEST_F(SocketTest, WaitTimesOutForAbsentRank) {
  layout_file_publish(layout_, {0, "127.0.0.1", 5001});
  EXPECT_THROW(layout_file_wait(layout_, 7, 0.1), Error);
  EXPECT_EQ(layout_file_wait(layout_, 0, 0.1).port, 5001);
}

TEST_F(SocketTest, RendezvousAndMessageExchange) {
  // The paper's two-step startup: sim listens + publishes, viz
  // discovers + connects.
  std::unique_ptr<Transport> sim_end, viz_end;
  std::thread sim([&] { sim_end = socket_listen(layout_, 0, 10.0); });
  std::thread viz([&] { viz_end = socket_connect(layout_, 0, 10.0); });
  sim.join();
  viz.join();
  ASSERT_NE(sim_end, nullptr);
  ASSERT_NE(viz_end, nullptr);

  sim_end->send_msg(msg_of({10, 20, 30}));
  EXPECT_EQ(viz_end->recv_msg().flatten(), (std::vector<std::uint8_t>{10, 20, 30}));
  viz_end->send_msg(WireMessage{}); // a zero-length message is a valid message
  EXPECT_TRUE(sim_end->recv_msg().empty());
  EXPECT_EQ(sim_end->bytes_sent(), 3u);
  EXPECT_EQ(viz_end->bytes_sent(), 0u);
}

TEST_F(SocketTest, MultipleRankPairsShareOneLayoutFile) {
  constexpr int kPairs = 3;
  std::vector<std::unique_ptr<Transport>> sims(kPairs), vizzes(kPairs);
  std::vector<std::thread> threads;
  for (int r = 0; r < kPairs; ++r) {
    threads.emplace_back([&, r] { sims[static_cast<std::size_t>(r)] = socket_listen(layout_, r, 10.0); });
    threads.emplace_back([&, r] { vizzes[static_cast<std::size_t>(r)] = socket_connect(layout_, r, 10.0); });
  }
  for (auto& t : threads) t.join();
  // Each pair is independent.
  for (int r = 0; r < kPairs; ++r) {
    sims[static_cast<std::size_t>(r)]->send_msg(msg_of({static_cast<std::uint8_t>(r * 7)}));
    EXPECT_EQ(vizzes[static_cast<std::size_t>(r)]->recv_msg().flatten()[0], r * 7);
  }
}

TEST_F(SocketTest, DatasetStreamOverTcp) {
  std::unique_ptr<Transport> sim_end, viz_end;
  std::thread sim([&] { sim_end = socket_listen(layout_, 0, 10.0); });
  std::thread viz([&] { viz_end = socket_connect(layout_, 0, 10.0); });
  sim.join();
  viz.join();

  PointSet ps(100);
  for (Index i = 0; i < 100; ++i) ps.set_position(i, {Real(i), 0, 0});
  sim_end->send_dataset(ps);
  const auto restored = viz_end->recv_dataset();
  const auto& r = static_cast<const PointSet&>(*restored);
  ASSERT_EQ(r.num_points(), 100);
  EXPECT_EQ(r.position(99), (Vec3f{99, 0, 0}));
}

TEST_F(SocketTest, ConnectTimesOutWithoutListener) {
  layout_file_publish(layout_, {5, "127.0.0.1", 1}); // port 1: nothing listens
  EXPECT_THROW(socket_connect(layout_, 5, 0.3), Error);
}

TEST_F(SocketTest, ListenTimesOutWithoutConnector) {
  EXPECT_THROW(socket_listen(layout_, 0, 0.3), Error);
}

} // namespace
} // namespace eth::insitu
