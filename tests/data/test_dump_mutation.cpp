// Mutation test of the dump reader (data/vtk_io): seeded damage to a
// dump file must load a consistent dataset or be rejected with a
// classified eth::Error, never crash and never size an allocation past
// the file.
//
// Replaces the global operator new for its whole test binary, which is
// why it is a binary of its own.

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "data/serialize.hpp"
#include "data/structured_grid.hpp"
#include "data/vtk_io.hpp"
#include "sim/xrage_generator.hpp"

// While a ceiling is set, the calling thread's allocations above it are
// counted and refused, so a reader that sizes memory from a damaged
// length fails the test instead of exhausting the host.
namespace {
thread_local std::size_t t_allocation_ceiling = 0; // 0: no ceiling
thread_local long t_refused_allocations = 0;
} // namespace

void* operator new(std::size_t size) {
  if (t_allocation_ceiling != 0 && size > t_allocation_ceiling) {
    ++t_refused_allocations;
    throw std::bad_alloc();
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace eth {
namespace {

// A loaded dataset must be one its consumers can index: a grid's point
// count must not wrap, and every field must hold one tuple per point
// (per cell for a grid's cell fields).
void expect_consistent(const DataSet& ds, int trial) {
  if (ds.kind() == DataSetKind::kStructuredGrid) {
    const auto& grid = static_cast<const StructuredGrid&>(ds);
    Index points = 1;
    for (int a = 0; a < 3; ++a) {
      ASSERT_GE(grid.dims()[a], 1) << "trial " << trial;
      ASSERT_FALSE(__builtin_mul_overflow(points, grid.dims()[a], &points))
          << "trial " << trial << " grid dims wrap the point count";
    }
    for (const Field& f : grid.cell_fields())
      EXPECT_EQ(f.tuples(), grid.num_cells()) << "trial " << trial << " cell field " << f.name();
  }
  for (const Field& f : ds.point_fields())
    EXPECT_EQ(f.tuples(), ds.num_points()) << "trial " << trial << " point field " << f.name();
}

// Seeded damage to a small xRAGE dump: bit flips (mostly in the text
// header and the payload's binary headers, where lengths and counts
// live), truncations and extensions. Every read must load a consistent
// dataset or throw a classified eth::Error, and none may allocate more
// than the file holds.
TEST(VtkIo, MutatedDumpsLoadOrThrow) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("eth_dump_mutation_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  const auto path = [&](const char* name) { return (dir / name).string(); };

  sim::XrageParams params;
  params.dims = {12, 10, 8};
  const auto grid = sim::generate_xrage(params);
  write_dataset(*grid, path("pristine.eth"));
  std::ifstream in(path("pristine.eth"), std::ios::binary);
  const std::string pristine((std::istreambuf_iterator<char>(in)),
                             std::istreambuf_iterator<char>());
  in.close();

  // Byte ranges holding structure rather than field values: the text
  // header, and each header segment of the serialized payload.
  const std::size_t text_header = pristine.size() - serialize_dataset(*grid).size();
  std::vector<std::pair<std::size_t, std::size_t>> structure{{0, text_header}};
  std::size_t at = text_header;
  const WireMessage payload = wire_message_for_dataset(*grid);
  for (const WireMessage::Segment& seg : payload.segments()) {
    if (seg.keepalive) structure.emplace_back(at, seg.bytes.size());
    at += seg.bytes.size();
  }

  Rng rng(4242);
  int loaded = 0, rejected = 0;
  for (int trial = 0; trial < 3000; ++trial) {
    std::string damaged = pristine;
    switch (trial % 3) {
      case 0: { // 1-4 bit flips, two in three inside a structure range
        const int flips = 1 + int(rng.uniform_index(4));
        for (int f = 0; f < flips; ++f) {
          std::size_t pos = rng.uniform_index(damaged.size());
          if (rng.uniform_index(3) != 0) {
            const auto& [begin, len] = structure[rng.uniform_index(structure.size())];
            pos = begin + rng.uniform_index(len);
          }
          damaged[pos] = char(damaged[pos] ^ (1 << rng.uniform_index(8)));
        }
        break;
      }
      case 1: // truncation
        damaged.resize(rng.uniform_index(damaged.size()));
        break;
      default: // extension by random bytes
        for (std::uint64_t n = 1 + rng.uniform_index(64); n > 0; --n)
          damaged.push_back(char(rng.next_u64()));
        break;
    }
    {
      std::ofstream out(path("mutated.eth"), std::ios::binary);
      out << damaged;
    }
    t_refused_allocations = 0;
    // Paths, error messages and bookkeeping fit in the slack.
    t_allocation_ceiling = damaged.size() + 4096;
    std::unique_ptr<DataSet> ds;
    try {
      ds = read_dataset(path("mutated.eth"));
      ++loaded;
    } catch (const Error&) {
      ++rejected;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "trial " << trial << ": unclassified " << e.what();
    }
    t_allocation_ceiling = 0;
    EXPECT_EQ(t_refused_allocations, 0) << "trial " << trial << " allocated past the file size";
    if (ds) expect_consistent(*ds, trial);
  }
  EXPECT_GT(loaded, 0);
  EXPECT_GT(rejected, 0);
  std::filesystem::remove_all(dir);
}

} // namespace
} // namespace eth
