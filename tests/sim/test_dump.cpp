#include "sim/dump.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include "data/point_set.hpp"
#include "sim/hacc_generator.hpp"

namespace eth::sim {
namespace {

class DumpTest : public ::testing::Test {
protected:
  void SetUp() override {
    // One directory per test: ctest -j runs the tests as concurrent
    // processes, and a shared one is removed under a sibling's feet.
    dir_ = (std::filesystem::temp_directory_path() /
            (std::string("eth_dump_test_") +
             ::testing::UnitTest::GetInstance()->current_test_info()->name()))
               .string();
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::string dir_;
};

TEST_F(DumpTest, PathNamingScheme) {
  EXPECT_EQ(dump_path("/data", "hacc", 3, 12), "/data/hacc_t0003_r0012.eth");
}

TEST_F(DumpTest, WriterCreatesDirectoryAndFiles) {
  const DumpWriter writer(dir_, "case");
  EXPECT_TRUE(std::filesystem::exists(dir_));
  PointSet ps(5);
  writer.write(ps, 0, 0);
  writer.write(ps, 0, 1);
  writer.write(ps, 1, 0);
  EXPECT_TRUE(std::filesystem::exists(dump_path(dir_, "case", 0, 1)));
  EXPECT_THROW(writer.write(ps, -1, 0), Error);
}

TEST_F(DumpTest, ProxyReadsBackWhatTheSimulationWrote) {
  // The paper's Figure 3 loop: dump, then present "as if by the
  // simulation itself".
  HaccParams params;
  params.num_particles = 500;
  const auto original = generate_hacc(params);
  const DumpWriter writer(dir_, "hacc");
  writer.write(*original, 7, 2);

  const SimulationProxy proxy(dir_, "hacc");
  ASSERT_TRUE(proxy.has(7, 2));
  const auto loaded = proxy.load(7, 2);
  ASSERT_EQ(loaded->kind(), DataSetKind::kPointSet);
  const auto& ps = static_cast<const PointSet&>(*loaded);
  ASSERT_EQ(ps.num_points(), original->num_points());
  for (Index i = 0; i < ps.num_points(); ++i)
    EXPECT_EQ(ps.position(i), original->position(i));
  EXPECT_TRUE(ps.point_fields().has("velocity"));
}

TEST_F(DumpTest, TimestepEnumeration) {
  const DumpWriter writer(dir_, "series");
  const PointSet ps(1);
  for (Index t = 0; t < 4; ++t) writer.write(ps, t, 0);
  const SimulationProxy proxy(dir_, "series");
  EXPECT_EQ(proxy.num_timesteps(0), 4);
  EXPECT_EQ(proxy.num_timesteps(1), 0);
  EXPECT_FALSE(proxy.has(4, 0));
}

TEST_F(DumpTest, MissingLoadThrows) {
  const SimulationProxy proxy(dir_, "nothing");
  EXPECT_THROW(proxy.load(0, 0), Error);
}

TEST_F(DumpTest, WriterRejectsEmptyConfig) {
  EXPECT_THROW(DumpWriter("", "x"), Error);
  EXPECT_THROW(DumpWriter(dir_, ""), Error);
}

} // namespace
} // namespace eth::sim
