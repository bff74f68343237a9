#include "pipeline/algorithm.hpp"

#include <gtest/gtest.h>

#include "common/string_util.hpp"
#include "data/point_set.hpp"

namespace eth {
namespace {

/// Test filter: shifts every point by its offset and counts executions
/// in a caller-owned counter.
class ShiftFilter final : public Algorithm {
public:
  ShiftFilter(Vec3f offset, int& executions) : offset_(offset), executions_(executions) {}

protected:
  std::unique_ptr<DataSet> execute(const DataSet& input,
                                   cluster::PerfCounters& counters) const override {
    ++executions_;
    const auto& ps = static_cast<const PointSet&>(input);
    auto out = std::make_unique<PointSet>(ps.num_points());
    for (Index i = 0; i < ps.num_points(); ++i)
      out->set_position(i, ps.position(i) + offset_);
    counters.elements_processed += ps.num_points();
    return out;
  }
  std::string cache_signature() const override {
    return strprintf("shift %a %a %a", double(offset_.x), double(offset_.y),
                     double(offset_.z));
  }

private:
  Vec3f offset_;
  int& executions_;
};

/// A broken filter: produces no output.
class NullFilter final : public Algorithm {
protected:
  std::unique_ptr<DataSet> execute(const DataSet&, cluster::PerfCounters&) const override {
    return nullptr;
  }
  std::string cache_signature() const override { return "null"; }
};

PointSet one_point(Vec3f p) {
  PointSet ps(1);
  ps.set_position(0, p);
  return ps;
}

Vec3f position_of(const CacheLookup& lookup) {
  return lookup.as<PointSet>()->position(0);
}

constexpr std::uint64_t kInputFp = 0x1234;

TEST(Algorithm, ExecutesOnceAndCaches) {
  ArtifactCache cache(1 << 20);
  int executions = 0;
  const ShiftFilter filter({1, 0, 0}, executions);
  const PointSet input = one_point({0, 0, 0});
  const CacheLookup out1 = filter.run(input, &cache, kInputFp);
  const CacheLookup out2 = filter.run(input, &cache, kInputFp);
  EXPECT_EQ(executions, 1);
  EXPECT_FALSE(out1.hit);
  EXPECT_TRUE(out2.hit);
  EXPECT_EQ(out1.value, out2.value); // the cached output itself
  EXPECT_EQ(position_of(out1), (Vec3f{1, 0, 0}));
}

TEST(Algorithm, ModifiedTriggersReexecution) {
  // A filter with other parameters has another signature, so it
  // executes instead of reusing the first filter's output.
  ArtifactCache cache(1 << 20);
  int executions = 0;
  const PointSet input = one_point({0, 0, 0});
  ShiftFilter({1, 0, 0}, executions).run(input, &cache, kInputFp);
  const CacheLookup out = ShiftFilter({0, 2, 0}, executions).run(input, &cache, kInputFp);
  EXPECT_EQ(executions, 2);
  EXPECT_EQ(position_of(out), (Vec3f{0, 2, 0}));
}

TEST(Algorithm, ChainPassesOutputAndFingerprint) {
  int a_runs = 0, b_runs = 0;
  const ShiftFilter a({1, 0, 0}, a_runs);
  const ShiftFilter b({0, 1, 0}, b_runs);
  const CacheLookup mid = a.run(one_point({0, 0, 0}), nullptr, kInputFp);
  const CacheLookup out = b.run(*mid.as<DataSet>(), nullptr, mid.content_fp);
  EXPECT_EQ(position_of(out), (Vec3f{1, 1, 0}));
  EXPECT_EQ(a_runs, 1);
  EXPECT_EQ(b_runs, 1);
  // Provenance: each output is named by its input and its operation.
  EXPECT_EQ(mid.content_fp, fingerprint_chain(kInputFp, "shift 0x1p+0 0x0p+0 0x0p+0"));
  EXPECT_EQ(out.content_fp, fingerprint_chain(mid.content_fp, "shift 0x0p+0 0x1p+0 0x0p+0"));
}

TEST(Algorithm, UpstreamModificationPropagatesThroughFingerprints) {
  ArtifactCache cache(1 << 20);
  int a_runs = 0, b_runs = 0;
  const PointSet input = one_point({0, 0, 0});
  const ShiftFilter b({0, 1, 0}, b_runs);
  const auto chain = [&](const ShiftFilter& a) {
    const CacheLookup mid = a.run(input, &cache, kInputFp);
    return b.run(*mid.as<DataSet>(), &cache, mid.content_fp);
  };
  chain(ShiftFilter({1, 0, 0}, a_runs));
  const CacheLookup out = chain(ShiftFilter({5, 0, 0}, a_runs));
  EXPECT_EQ(b_runs, 2); // a new upstream output is a new downstream key
  EXPECT_EQ(position_of(out), (Vec3f{5, 1, 0}));
}

TEST(Algorithm, DownstreamUnaffectedWhenNothingChanged) {
  ArtifactCache cache(1 << 20);
  int a_runs = 0, b_runs = 0;
  const ShiftFilter a({1, 0, 0}, a_runs);
  const ShiftFilter b({0, 1, 0}, b_runs);
  const PointSet input = one_point({0, 0, 0});
  for (int pass = 0; pass < 3; ++pass) {
    const CacheLookup mid = a.run(input, &cache, kInputFp);
    b.run(*mid.as<DataSet>(), &cache, mid.content_fp);
  }
  EXPECT_EQ(a_runs, 1);
  EXPECT_EQ(b_runs, 1);
}

TEST(Algorithm, HitReplaysRecordedCounters) {
  ArtifactCache cache(1 << 20);
  int executions = 0;
  const ShiftFilter filter({1, 0, 0}, executions);
  const PointSet input = one_point({0, 0, 0});
  const CacheLookup miss = filter.run(input, &cache, kInputFp);
  const CacheLookup hit = filter.run(input, &cache, kInputFp);
  ASSERT_TRUE(hit.hit);
  EXPECT_EQ(miss.recorded.elements_processed, 1);
  EXPECT_EQ(hit.recorded.elements_processed, 1);
  EXPECT_EQ(hit.recorded.phases.get("extract"), miss.recorded.phases.get("extract"));

  // An unknown input (fingerprint 0) executes every call, unnamed.
  const CacheLookup unknown = filter.run(input, &cache, 0);
  EXPECT_EQ(executions, 2);
  EXPECT_EQ(unknown.content_fp, 0u);
  EXPECT_EQ(unknown.recorded.elements_processed, 1);
}

TEST(Algorithm, ErrorsOnMisuse) {
  EXPECT_THROW(NullFilter().run(one_point({0, 0, 0})), Error); // no output
}

} // namespace
} // namespace eth
