#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/lz.hpp"
#include "common/timer.hpp"

// Counting replacement of the global allocation functions for this test
// binary, so a test can assert that a code path never touches the heap.
// Only the calling thread's allocations are counted.
namespace {
thread_local long t_heap_allocations = 0;
} // namespace

void* operator new(std::size_t size) {
  ++t_heap_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace eth {
namespace {

/// Heap allocations the calling thread makes while running `fn`.
template <typename Fn>
long allocations_during(Fn&& fn) {
  const long before = t_heap_allocations;
  fn();
  return t_heap_allocations - before;
}

TEST(Error, RequirePassesAndThrows) {
  EXPECT_NO_THROW(require(true, "fine"));
  EXPECT_THROW(require(false, "nope"), Error);
  // Literal (const char*) overload.
  try {
    require(false, "the message");
    ADD_FAILURE() << "require(false, ...) returned";
  } catch (const Error& e) {
    EXPECT_STREQ(e.what(), "the message");
  }
  // std::string overload.
  try {
    require(false, std::string("the ") + "message");
    ADD_FAILURE() << "require(false, ...) returned";
  } catch (const Error& e) {
    EXPECT_STREQ(e.what(), "the message");
  }
  try {
    require_transport(false, TransportErrorCode::kCorruptFrame, "bad frame");
    ADD_FAILURE() << "require_transport(false, ...) returned";
  } catch (const TransportError& e) {
    EXPECT_EQ(e.code(), TransportErrorCode::kCorruptFrame);
    EXPECT_STREQ(e.what(), "[corrupt-frame] bad frame");
  }
  EXPECT_THROW(fail("always"), Error);
}

// Passing checks sit in per-ray, per-sample and per-token loops: with a
// literal message they must not allocate (the message is longer than
// the small-string buffer, so building it eagerly would).
TEST(Error, PassingChecksDoNotAllocate) {
  EXPECT_EQ(allocations_during([] {
              require(true, "a literal message longer than the small-string buffer");
            }),
            0);
  EXPECT_EQ(allocations_during([] {
              require_transport(true, TransportErrorCode::kTruncated,
                                "a literal message longer than the small-string buffer");
            }),
            0);

  // 4096 records of a distinct 2-byte counter and a constant 6-byte
  // tail code as about one literal-plus-match sequence per record.
  std::vector<std::uint8_t> raw;
  for (int k = 0; k < 4096; ++k) {
    raw.push_back(static_cast<std::uint8_t>(k & 0xFF));
    raw.push_back(static_cast<std::uint8_t>(k >> 8));
    for (const char c : {'A', 'B', 'C', 'D', 'E', 'F'})
      raw.push_back(static_cast<std::uint8_t>(c));
  }
  const std::vector<std::uint8_t> coded = lz::compress(raw);
  std::vector<std::uint8_t> decoded(raw.size());
  EXPECT_EQ(allocations_during([&] { lz::decompress(coded, decoded); }), 0);
  EXPECT_EQ(decoded, raw);
}

TEST(WallTimer, AdvancesMonotonically) {
  WallTimer t;
  const double a = t.elapsed();
  double sink = 0;
  for (int i = 0; i < 100000; ++i) sink += std::sqrt(double(i));
  asm volatile("" : : "g"(&sink) : "memory");
  const double b = t.elapsed();
  EXPECT_GE(b, a);
  t.reset();
  EXPECT_LT(t.elapsed(), b + 1.0);
}

TEST(ThreadCpuTimer, ChargesBusyWork) {
  ThreadCpuTimer t;
  double sink = 0;
  for (int i = 0; i < 2000000; ++i) sink += std::sqrt(double(i));
  asm volatile("" : : "g"(&sink) : "memory");
  // Some CPU time must have been charged (coarse lower bound).
  EXPECT_GT(t.elapsed(), 0.0);
}

TEST(PhaseTimer, AccumulatesByName) {
  PhaseTimer p;
  p.add("build", 1.0);
  p.add("render", 2.0);
  p.add("build", 0.5);
  EXPECT_DOUBLE_EQ(p.get("build"), 1.5);
  EXPECT_DOUBLE_EQ(p.get("render"), 2.0);
  EXPECT_DOUBLE_EQ(p.get("absent"), 0.0);
  EXPECT_DOUBLE_EQ(p.total(), 3.5);
  p.clear();
  EXPECT_DOUBLE_EQ(p.total(), 0.0);
}

TEST(PhaseTimer, OverflowThrows) {
  PhaseTimer p;
  const char* names[] = {"a", "b", "c", "d", "e", "f", "g", "h",
                         "i", "j", "k", "l", "m", "n", "o", "p"};
  for (const char* n : names) p.add(n, 1.0);
  EXPECT_THROW(p.add("q", 1.0), Error);
}

} // namespace
} // namespace eth
