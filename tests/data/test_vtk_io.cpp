#include "data/vtk_io.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>

#include "data/point_set.hpp"
#include "data/serialize.hpp"
#include "data/structured_grid.hpp"

namespace eth {
namespace {

class VtkIoTest : public ::testing::Test {
protected:
  void SetUp() override {
    // One directory per test: ctest -j runs the tests as concurrent
    // processes, and a shared one is removed under a sibling's feet.
    dir_ = std::filesystem::temp_directory_path() /
           (std::string("eth_vtk_io_test_") +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string path(const std::string& name) const { return (dir_ / name).string(); }

  std::string contents(const std::string& name) const {
    std::ifstream in(path(name), std::ios::binary);
    return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
  }

  std::filesystem::path dir_;
};

TEST_F(VtkIoTest, PointSetFileRoundTrip) {
  PointSet ps(3);
  ps.set_position(0, {1, 2, 3});
  ps.set_position(2, {-1, 0, 1});
  Field id("id", 3, 1);
  id.set(1, 42);
  ps.point_fields().add(std::move(id));

  write_dataset(ps, path("points.eth"));
  // The payload is written from the message's segments; the file must
  // hold exactly the header plus the flattened serialization.
  const std::vector<std::uint8_t> flat = serialize_dataset(ps);
  EXPECT_EQ(contents("points.eth"),
            "# eth DataFile v1\nkind PointSet\nbytes " + std::to_string(flat.size()) +
                "\n" + std::string(flat.begin(), flat.end()));
  const auto restored = read_dataset(path("points.eth"));
  ASSERT_EQ(restored->kind(), DataSetKind::kPointSet);
  const auto& r = static_cast<const PointSet&>(*restored);
  EXPECT_EQ(r.num_points(), 3);
  EXPECT_EQ(r.position(0), (Vec3f{1, 2, 3}));
  EXPECT_EQ(r.point_fields().get("id").get(1), 42);
}

TEST_F(VtkIoTest, HeaderIsHumanReadable) {
  const PointSet ps(1);
  write_dataset(ps, path("header.eth"));
  std::ifstream f(path("header.eth"));
  std::string line;
  std::getline(f, line);
  EXPECT_EQ(line, "# eth DataFile v1");
  std::getline(f, line);
  EXPECT_EQ(line, "kind PointSet");
  std::getline(f, line);
  EXPECT_EQ(line.substr(0, 6), "bytes ");
}

TEST_F(VtkIoTest, MissingFileThrows) {
  EXPECT_THROW(read_dataset(path("missing.eth")), Error);
}

TEST_F(VtkIoTest, ForeignFileRejected) {
  std::ofstream f(path("foreign.eth"));
  f << "not an eth file\nat all\n";
  f.close();
  EXPECT_THROW(read_dataset(path("foreign.eth")), Error);
}

TEST_F(VtkIoTest, TruncatedPayloadRejected) {
  const PointSet ps(50);
  write_dataset(ps, path("trunc.eth"));
  // Chop the file short.
  const auto size = std::filesystem::file_size(path("trunc.eth"));
  std::filesystem::resize_file(path("trunc.eth"), size / 2);
  EXPECT_THROW(read_dataset(path("trunc.eth")), Error);
}

TEST_F(VtkIoTest, OversizedBytesHeaderRejected) {
  // A damaged `bytes N` line must be rejected before N sizes anything:
  // 2^40 and 2^62 would otherwise throw std::bad_alloc, not eth::Error.
  const PointSet ps(4);
  write_dataset(ps, path("valid.eth"));
  const std::string content = contents("valid.eth");
  const auto line = content.find("bytes ");
  const auto line_end = content.find('\n', line);
  ASSERT_NE(line, std::string::npos);
  for (const char* claimed : {"1099511627776", "4611686018427387904"}) {
    std::string damaged = content;
    damaged.replace(line, line_end - line, std::string("bytes ") + claimed);
    std::ofstream out(path("oversized.eth"), std::ios::binary);
    out << damaged;
    out.close();
    EXPECT_THROW(read_dataset(path("oversized.eth")), Error) << claimed;
  }
}

TEST_F(VtkIoTest, HeaderPayloadKindMismatchRejected) {
  const PointSet ps(2);
  write_dataset(ps, path("tamper.eth"));
  // Tamper: rewrite the header kind while keeping the payload.
  std::string content = contents("tamper.eth");
  const auto pos = content.find("kind PointSet");
  ASSERT_NE(pos, std::string::npos);
  content.replace(pos, 13, "kind TriangleMesh");
  // Keep byte count line unchanged; payload still says PointSet.
  std::ofstream out(path("tamper2.eth"), std::ios::binary);
  out << content;
  out.close();
  EXPECT_THROW(read_dataset(path("tamper2.eth")), Error);
}

} // namespace
} // namespace eth
