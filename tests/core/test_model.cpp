#include "core/model.hpp"

#include <gtest/gtest.h>

#include "cluster/power.hpp"
#include "common/error.hpp"

namespace eth::core {
namespace {

cluster::MachineSpec machine() {
  cluster::MachineSpec m = cluster::MachineSpec::hikari();
  return m;
}

/// A rank report with a saturating viz phase of `viz_cpu` CPU seconds
/// and a cheap generate phase.
RankReport simple_report(double viz_cpu, Index items = 1 << 20) {
  RankReport r;
  r.phases["generate"] = {0.1, items};
  r.phases["render"] = {viz_cpu, items};
  r.dataset_bytes = 1 << 20;
  r.image_bytes = 256 * 256 * 20;
  return r;
}

TEST(ReduceReports, TakesMaxOverRanks) {
  const std::vector<RankReport> reports{simple_report(1.0), simple_report(4.0),
                                        simple_report(2.0)};
  const NodePhaseTimes t = reduce_reports(reports, machine(), {});
  // The slowest rank (4 cpu-seconds) defines the node time.
  const Seconds expected = cluster::node_compute_time(machine(), 4.0);
  EXPECT_NEAR(t.viz_compute, expected, 1e-9);
  EXPECT_DOUBLE_EQ(t.viz_utilization, 1.0);
  EXPECT_EQ(t.dataset_bytes, Bytes(1) << 20);
}

TEST(ReduceReports, SmallProblemsLowerUtilization) {
  // Finding 4's mechanism: few parallel items -> low utilization. The
  // POWER model sees the drop; compute time is unaffected (see
  // cluster::node_compute_time).
  ModelOptions options;
  options.saturation_items_per_core = 2048;
  const std::vector<RankReport> big{simple_report(1.0, 1 << 22)};
  const std::vector<RankReport> small{simple_report(1.0, 512)};
  const NodePhaseTimes t_big = reduce_reports(big, machine(), options);
  const NodePhaseTimes t_small = reduce_reports(small, machine(), options);
  EXPECT_DOUBLE_EQ(t_big.viz_utilization, 1.0);
  EXPECT_LT(t_small.viz_utilization, 0.05);
  EXPECT_NEAR(t_small.viz_compute, t_big.viz_compute, 1e-9);
}

TEST(ReduceReports, CompositeRescaledToBinarySwapWork) {
  // Binary swap: each node blends ~2 full images regardless of node
  // count, so 3 measured merges (4 ranks) rescale by 2/3 while 1
  // measured merge (2 ranks) rescales by 2/1.
  RankReport r = simple_report(1.0);
  r.phases["composite"] = {0.3, 256 * 256};
  const std::vector<RankReport> two{r, simple_report(1.0)}; // 1 merge
  const std::vector<RankReport> four{r, simple_report(1.0), simple_report(1.0),
                                     simple_report(1.0)}; // 3 merges
  const NodePhaseTimes t2 = reduce_reports(two, machine(), {});
  const NodePhaseTimes t4 = reduce_reports(four, machine(), {});
  EXPECT_NEAR(t2.root_composite / t4.root_composite, 3.0, 1e-6);
  EXPECT_GT(t4.root_composite, 0.0);
}

TEST(ReduceReports, ErrorsOnEmpty) {
  EXPECT_THROW(reduce_reports({}, machine(), {}), Error);
}

NodePhaseTimes sample_times() {
  NodePhaseTimes t;
  t.generate = 10.0;
  t.viz_compute = 30.0;
  t.viz_utilization = 1.0;
  t.generate_utilization = 1.0;
  t.root_composite = 1.0;
  t.root_write = 0.0;
  t.dataset_bytes = Bytes(100) << 20;
  t.image_bytes = 1 << 20;
  return t;
}

cluster::JobLayout layout(cluster::Coupling c, int nodes = 8) {
  cluster::JobLayout l;
  l.coupling = c;
  l.nodes = nodes;
  l.ranks = 4;
  return l;
}

TEST(ComposeTimeline, TightIsSequentialWithInterference) {
  ModelOptions options;
  options.tight_interference = 0.5; // exaggerate for the test
  const auto t = sample_times();
  const auto timeline = compose_timeline(t, layout(cluster::Coupling::kTight),
                                         machine(), options, 1, 1);
  // makespan >= gen + viz * 1.5 + composite.
  EXPECT_GT(timeline.makespan(), 10.0 + 30.0 * 1.5);

  ModelOptions no_interference;
  no_interference.tight_interference = 0.0;
  const auto timeline2 = compose_timeline(t, layout(cluster::Coupling::kTight),
                                          machine(), no_interference, 1, 1);
  EXPECT_LT(timeline2.makespan(), timeline.makespan());
}

TEST(ComposeTimeline, IntercoreAddsCopyButNoInterference) {
  ModelOptions options;
  options.tight_interference = 0.2;
  const auto t = sample_times();
  const auto tight = compose_timeline(t, layout(cluster::Coupling::kTight), machine(),
                                      options, 1, 1);
  const auto intercore = compose_timeline(t, layout(cluster::Coupling::kIntercore),
                                          machine(), options, 1, 1);
  // With meaningful interference and a cheap copy, intercore wins
  // (Finding 6's shape).
  EXPECT_LT(intercore.makespan(), tight.makespan());
}

TEST(ComposeTimeline, InternodePipelinesAcrossTimesteps) {
  // Phase times are RUN TOTALS; splitting the same total work into more
  // timesteps lets the space-shared partitions overlap, so the
  // pipelined makespan shrinks toward the viz-stage bound.
  const auto t = sample_times();
  const auto one = compose_timeline(t, layout(cluster::Coupling::kInternode),
                                    machine(), {}, 1, 1);
  const auto four = compose_timeline(t, layout(cluster::Coupling::kInternode),
                                     machine(), {}, 4, 1);
  EXPECT_LT(four.makespan(), one.makespan());
  // Never below the serialized viz total (the pipeline bottleneck).
  EXPECT_GT(four.makespan(), 30.0);
}

TEST(ComposeTimeline, TimestepsScaleMakespanLinearlyForTimeShared) {
  const auto t = sample_times();
  const auto one = compose_timeline(t, layout(cluster::Coupling::kIntercore),
                                    machine(), {}, 1, 1);
  const auto three = compose_timeline(t, layout(cluster::Coupling::kIntercore),
                                      machine(), {}, 3, 1);
  // Totals are redistributed over steps, but the per-timestep data
  // hand-off (shm copy + image gather) repeats every step, so three
  // steps cost slightly more than one.
  EXPECT_GT(three.makespan(), one.makespan());
  EXPECT_NEAR(three.makespan(), one.makespan(), 0.2);
}

TEST(ComposeTimeline, EnergyAccountsIdleSimPartition) {
  // In internode coupling the sim partition idles while viz crunches
  // (and vice versa); average power must be below all-busy power.
  const auto t = sample_times();
  const auto timeline = compose_timeline(t, layout(cluster::Coupling::kInternode),
                                         machine(), {}, 2, 1);
  const auto rep = timeline.report();
  const Watts all_busy = machine().node_power(1.0) * 8;
  EXPECT_LT(rep.average_power, all_busy * 0.98);
  EXPECT_GT(rep.average_power, machine().node_power(0.0) * 8);
}

TEST(ComposeTimeline, DirectSendCompositeDegradesAtScale) {
  // The geometry path's gather: with direct send, growing the node
  // count eventually INCREASES makespan (Figure 15's vtk curve), while
  // binary swap keeps improving.
  NodePhaseTimes t = sample_times();
  t.viz_compute = 100.0; // compute that strong-scales via .../nodes? The
  // model charges per-node time directly, so emulate strong scaling by
  // comparing fixed compute at several node counts: the composite term
  // is what changes.
  const auto at_nodes = [&](int nodes, bool direct) {
    cluster::JobLayout l;
    l.coupling = cluster::Coupling::kIntercore;
    l.nodes = nodes;
    l.ranks = 4;
    return compose_timeline(t, l, machine(), {}, 1, 8, direct).makespan();
  };
  // Same per-node compute: direct send at 400 nodes costs much more
  // than at 8; binary swap barely changes.
  EXPECT_GT(at_nodes(400, true) - at_nodes(8, true), 0.01);
  EXPECT_LT(at_nodes(400, false) - at_nodes(8, false), 0.01);
  EXPECT_GT(at_nodes(400, true), at_nodes(400, false));
}

// The executed exchange is sparse, so a measured merge can cost far less
// than the full-frame merge both composite models charge: each merge
// costs at least the dense per-pixel estimate, and more only when the
// measurement says so.
TEST(ComposeTimeline, MergesCostAtLeastADenseFrame) {
  NodePhaseTimes t = sample_times();
  for (const bool direct : {true, false}) {
    SCOPED_TRACE(direct ? "direct send" : "binary swap");
    const auto composite_seconds = [&](Seconds root_composite) {
      t.root_composite = root_composite;
      const auto timeline = compose_timeline(
          t, layout(cluster::Coupling::kIntercore, 400), machine(), {}, 1, 8, direct);
      double total = 0;
      for (const cluster::BusySpan& span : timeline.spans())
        if (std::string(span.label) == "model.composite") total += span.duration();
      return total;
    };
    const double dense = composite_seconds(0.0);
    EXPECT_GT(dense, 0.0);
    EXPECT_EQ(composite_seconds(1e-9), dense);
    EXPECT_GT(composite_seconds(1.0), dense);
  }
}

TEST(ComposeTimeline, ValidatesInputs) {
  const auto t = sample_times();
  EXPECT_THROW(
      compose_timeline(t, layout(cluster::Coupling::kTight), machine(), {}, 0, 1),
      Error);
  EXPECT_THROW(compose_timeline(t, layout(cluster::Coupling::kAsync), machine(),
                                {}, 1, 1, false, 0),
               Error);
}

TEST(ComposeTimeline, AsyncDepthOneDegeneratesToIntercoreExactly) {
  // The determinism contract's model half (DESIGN.md §13): at depth 1
  // the async recurrence reproduces the intercore span sequence span
  // for span, so makespan/power/energy cannot drift either.
  const auto t = sample_times();
  for (const bool direct : {false, true}) {
    const auto intercore = compose_timeline(
        t, layout(cluster::Coupling::kIntercore), machine(), {}, 3, 2, direct);
    const auto async1 = compose_timeline(t, layout(cluster::Coupling::kAsync),
                                         machine(), {}, 3, 2, direct, 1);
    ASSERT_EQ(async1.spans().size(), intercore.spans().size());
    for (std::size_t i = 0; i < intercore.spans().size(); ++i) {
      const cluster::BusySpan& a = async1.spans()[i];
      const cluster::BusySpan& b = intercore.spans()[i];
      EXPECT_DOUBLE_EQ(a.start, b.start);
      EXPECT_DOUBLE_EQ(a.end, b.end);
      EXPECT_EQ(a.first_node, b.first_node);
      EXPECT_EQ(a.last_node, b.last_node);
      EXPECT_DOUBLE_EQ(a.utilization, b.utilization);
      EXPECT_STREQ(a.label, b.label);
    }
    EXPECT_DOUBLE_EQ(async1.makespan(), intercore.makespan());
    EXPECT_DOUBLE_EQ(async1.report().energy, intercore.report().energy);
  }
}

TEST(ComposeTimeline, AsyncDepthOverlapsSimWithViz) {
  // Depth 2 hides each generate behind the previous viz chain, so the
  // makespan approaches gen + copy + T * (viz + composite + write)
  // instead of the serial sum. Deeper than the structural lookahead
  // changes nothing further here (generate is the only producer stage).
  const auto t = sample_times();
  const auto at_depth = [&](Index depth) {
    return compose_timeline(t, layout(cluster::Coupling::kAsync), machine(), {},
                            4, 1, false, depth)
        .makespan();
  };
  EXPECT_LT(at_depth(2), at_depth(1));
  EXPECT_LE(at_depth(3), at_depth(2));
  EXPECT_LE(at_depth(8), at_depth(3));
  // The overlap hides producer time but never invents capacity: the
  // viz chain alone still bounds the makespan from below.
  const auto intercore = compose_timeline(
      t, layout(cluster::Coupling::kIntercore), machine(), {}, 4, 1);
  EXPECT_LT(at_depth(2), intercore.makespan());
  EXPECT_GT(at_depth(8), 0.0);
}

} // namespace
} // namespace eth::core
