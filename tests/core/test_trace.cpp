// Unit tests for the structured tracer (common/trace, DESIGN.md §11):
// RAII span nesting, per-thread buffer merge ordering, counter/instant
// events, track attribution through the thread pool, the Chrome
// trace-event JSON schema, and an end-to-end socket-coupled exchange
// whose trace must carry the whole transport phase taxonomy.

#include "common/trace.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "core/harness.hpp"
#include "core/sweep.hpp"
#include "data/point_set.hpp"
#include "insitu/socket_transport.hpp"
#include "insitu/transport.hpp"
#include "parallel/thread_pool.hpp"

namespace eth {
namespace {

/// Every test runs with a clean event store and restores the global
/// enabled flag afterwards, so trace tests cannot leak events (or an
/// enabled tracer) into the rest of the suite.
class TraceStateGuard {
public:
  explicit TraceStateGuard(bool enable) : was_enabled_(trace::enabled()) {
    trace::reset();
    trace::set_enabled(enable);
  }
  ~TraceStateGuard() {
    trace::set_enabled(was_enabled_);
    trace::reset();
  }

private:
  bool was_enabled_;
};

std::multiset<std::string> event_names() {
  std::multiset<std::string> names;
  for (const trace::TraceEvent& e : trace::snapshot()) names.insert(e.name);
  return names;
}

TEST(Trace, SpanRaiiRecordsNestedIntervals) {
  TraceStateGuard guard(true);
  {
    const trace::Span outer("outer");
    { const trace::Span inner("inner"); }
  }
  const auto events = trace::snapshot();
  ASSERT_EQ(events.size(), 2u);
  // snapshot() sorts by (ts asc, dur desc): the enclosing span first.
  EXPECT_STREQ(events[0].name, "outer");
  EXPECT_STREQ(events[1].name, "inner");
  EXPECT_LE(events[0].ts_ns, events[1].ts_ns);
  EXPECT_GE(events[0].ts_ns + events[0].dur_ns,
            events[1].ts_ns + events[1].dur_ns);
}

TEST(Trace, DisabledTracerEmitsNothing) {
  TraceStateGuard guard(false);
  {
    const trace::Span span("ghost");
    trace::counter("ghost_counter", 1.0);
    trace::instant("ghost_instant");
    trace::emit_span_at("ghost_at", 0, 0, 1);
  }
  EXPECT_TRUE(trace::snapshot().empty());
}

TEST(Trace, CounterAndInstantCarryTypeAndValue) {
  TraceStateGuard guard(true);
  trace::counter("cache_bytes", 4096.0);
  trace::instant("cache.hit");
  const auto events = trace::snapshot();
  ASSERT_EQ(events.size(), 2u);
  const auto& counter =
      std::string(events[0].name) == "cache_bytes" ? events[0] : events[1];
  const auto& instant =
      std::string(events[0].name) == "cache.hit" ? events[0] : events[1];
  EXPECT_EQ(counter.type, trace::EventType::kCounter);
  EXPECT_DOUBLE_EQ(counter.value, 4096.0);
  EXPECT_EQ(instant.type, trace::EventType::kInstant);
}

TEST(Trace, TrackScopeSetsAndRestoresCurrentTrack) {
  TraceStateGuard guard(true);
  EXPECT_EQ(trace::current_track(), trace::kHostTrack);
  {
    const trace::TrackScope outer(3);
    EXPECT_EQ(trace::current_track(), 3);
    {
      const trace::TrackScope inner(7);
      EXPECT_EQ(trace::current_track(), 7);
      trace::instant("on_seven");
    }
    EXPECT_EQ(trace::current_track(), 3);
    trace::instant("on_three");
  }
  EXPECT_EQ(trace::current_track(), trace::kHostTrack);
  for (const trace::TraceEvent& e : trace::snapshot()) {
    if (std::string(e.name) == "on_seven") EXPECT_EQ(e.track, 7);
    if (std::string(e.name) == "on_three") EXPECT_EQ(e.track, 3);
  }
}

TEST(Trace, ThreadMergeCollectsAllEventsSortedByTime) {
  TraceStateGuard guard(true);
  constexpr int kThreads = 4;
  constexpr int kSpansPerThread = 50;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([] {
      for (int i = 0; i < kSpansPerThread; ++i) {
        const trace::Span span("worker_span");
      }
    });
  for (auto& t : threads) t.join();
  const auto events = trace::snapshot();
  ASSERT_EQ(events.size(), std::size_t(kThreads * kSpansPerThread));
  for (std::size_t i = 1; i < events.size(); ++i)
    EXPECT_LE(events[i - 1].ts_ns, events[i].ts_ns);
  // Four distinct emitting threads, each with its own tid.
  std::set<std::uint32_t> tids;
  for (const auto& e : events) tids.insert(e.tid);
  EXPECT_EQ(tids.size(), std::size_t(kThreads));
}

TEST(Trace, PoolWorkerChunksInheritIssuingTrack) {
  TraceStateGuard guard(true);
  ThreadPool pool(4);
  const trace::TrackScope rank_scope(2);
  std::vector<int> data(10000, 0);
  parallel_for_chunks(pool, 0, Index(data.size()), 8,
                      [&](Index, Index b, Index e) {
                        for (Index i = b; i < e; ++i) data[std::size_t(i)] = 1;
                      });
  const auto events = trace::snapshot();
  std::size_t chunks = 0;
  for (const auto& e : events)
    if (std::string(e.name) == "chunk") {
      ++chunks;
      EXPECT_EQ(e.track, 2) << "worker chunk lost the issuing rank's track";
    }
  EXPECT_EQ(chunks, 8u);
}

TEST(Trace, ResetForgetsPublishedEvents) {
  TraceStateGuard guard(true);
  { const trace::Span span("before_reset"); }
  EXPECT_EQ(trace::snapshot().size(), 1u);
  trace::reset();
  EXPECT_TRUE(trace::snapshot().empty());
  { const trace::Span span("after_reset"); }
  const auto events = trace::snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_STREQ(events[0].name, "after_reset");
}

TEST(Trace, SummaryAggregatesPerName) {
  TraceStateGuard guard(true);
  for (int i = 0; i < 3; ++i) {
    const trace::Span span("phase_a");
  }
  trace::counter("bytes", 10.0);
  trace::counter("bytes", 20.0);
  const auto rows = trace::summary();
  ASSERT_EQ(rows.size(), 2u); // sorted by name: bytes, phase_a
  EXPECT_EQ(rows[0].name, "bytes");
  EXPECT_EQ(rows[0].count, 2);
  EXPECT_EQ(rows[0].type, trace::EventType::kCounter);
  EXPECT_EQ(rows[1].name, "phase_a");
  EXPECT_EQ(rows[1].count, 3);
  EXPECT_GE(rows[1].total_ns, 0);
}

// Golden-schema check: the exported JSON must carry the Chrome
// trace-event fields Perfetto requires (ph/ts/dur/pid/tid/name), the
// process_name metadata per track, and escape quotes in names.
TEST(Trace, ChromeJsonCarriesRequiredSchemaFields) {
  TraceStateGuard guard(true);
  {
    const trace::TrackScope rank_scope(0);
    const trace::Span span("measured \"span\"");
    trace::counter("cache_bytes", 123.0);
    trace::instant("cache.hit");
  }
  trace::emit_span_at("model.viz", trace::kModelTrackBase + 1, 1000, 2000);
  const std::string json = trace::chrome_trace_json();

  for (const char* needle :
       {"{\"traceEvents\":[", "\"ph\":\"M\"", "\"ph\":\"X\"", "\"ph\":\"C\"",
        "\"ph\":\"i\"", "\"name\":\"process_name\"", "\"name\":\"rank 0\"",
        "\"name\":\"model node 1\"", "\"ts\":", "\"dur\":", "\"pid\":0",
        "\"tid\":", "\"args\":{\"value\":123", "\"s\":\"t\"",
        "\"name\":\"measured \\\"span\\\"\""})
    EXPECT_NE(json.find(needle), std::string::npos) << "missing " << needle;
  // The model span's explicit coordinates survive the µs conversion.
  EXPECT_NE(json.find("\"ts\":1.000"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":2.000"), std::string::npos);
}

TEST(Trace, WriteChromeTraceRoundTripsThroughFile) {
  TraceStateGuard guard(true);
  { const trace::Span span("persisted"); }
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("eth_trace_test_" + std::to_string(::getpid()) + ".json"))
          .string();
  trace::write_chrome_trace(path);
  std::ifstream in(path, std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  EXPECT_EQ(text.str(), trace::chrome_trace_json());
  std::filesystem::remove(path);
}

// End-to-end over the real socket transport: a listen/connect pair
// exchanging a dataset must leave spans for every transport phase —
// rendezvous, serialize, framed send/recv, deserialize.
TEST(Trace, SocketCoupledExchangeTracesEveryTransportPhase) {
  TraceStateGuard guard(true);
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("eth_trace_socket_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  const std::string layout = (dir / "layout.txt").string();

  std::unique_ptr<insitu::Transport> sim_end, viz_end;
  std::thread sim([&] { sim_end = insitu::socket_listen(layout, 0, 15.0); });
  std::thread viz([&] { viz_end = insitu::socket_connect(layout, 0, 15.0); });
  sim.join();
  viz.join();
  ASSERT_NE(sim_end, nullptr);
  ASSERT_NE(viz_end, nullptr);

  PointSet points(8);
  for (Index i = 0; i < 8; ++i)
    points.set_position(i, {Real(i), Real(i) * 2, Real(i) * 3});
  sim_end->send_dataset(points);
  const std::unique_ptr<DataSet> received = viz_end->recv_dataset();
  ASSERT_NE(received, nullptr);

  const auto names = event_names();
  for (const char* phase : {"socket.listen", "socket.connect", "serialize",
                            "transport.send", "transport.recv", "deserialize"})
    EXPECT_GT(names.count(phase), 0u) << "missing phase " << phase;
  std::filesystem::remove_all(dir);
}

// The preliminary dump (paper Figure 3) is a disk-proxy run's largest
// serial phase before its first timestep; its span makes it visible in
// a trace. An in-memory run has no dump phase and no span.
TEST(Trace, DiskProxyRunTracesTheDumpPhase) {
  TraceStateGuard guard(true);
  ExperimentSpec spec;
  spec.name = "trace-dump";
  spec.application = Application::kXrage;
  spec.xrage.dims = {16, 12, 10};
  spec.viz.algorithm = insitu::VizAlgorithm::kRaycastVolume;
  spec.viz.image_width = 16;
  spec.viz.image_height = 16;
  spec.viz.images_per_timestep = 1;
  spec.timesteps = 2;
  spec.layout.nodes = 2;
  spec.layout.ranks = 2;
  spec.proxy_dir = (std::filesystem::temp_directory_path() /
                    ("eth_trace_dump_" + std::to_string(::getpid())))
                       .string();
  const Harness harness;

  (void)harness.run(spec);
  EXPECT_EQ(event_names().count("sim.dump"), 0u);

  trace::reset();
  spec.use_disk_proxy = true;
  (void)harness.run(spec);
  const auto names = event_names();
  EXPECT_EQ(names.count("sim.dump"), 1u);
  EXPECT_GT(names.count("sim.load"), 0u);
  std::filesystem::remove_all(spec.proxy_dir);
}

// Regression for the robustness-table gating fix: a traced clean run
// must print the table (zeroed fault columns) even though nothing
// faulted, while an untraced clean run must not.
TEST(Trace, ShouldPrintRobustnessForTracedCleanRuns) {
  std::vector<SweepPoint> points(1);
  std::vector<SweepOutcome> outcomes(1);
  EXPECT_FALSE(should_print_robustness(points, outcomes, false));
  EXPECT_TRUE(should_print_robustness(points, outcomes, true));

  // Faults or retries still trigger the table without tracing.
  points[0].spec.fault.p_bit_flip = 0.5;
  EXPECT_TRUE(should_print_robustness(points, outcomes, false));
  points[0].spec.fault.p_bit_flip = 0;
  outcomes[0].result.robustness.frames_retried = 1;
  EXPECT_TRUE(should_print_robustness(points, outcomes, false));
}

TEST(Trace, TraceSummaryTableListsSpanRows) {
  TraceStateGuard guard(true);
  { const trace::Span span("phase_x"); }
  trace::instant("cache.hit");
  const ResultTable table = trace_summary_table();
  const std::string text = table.to_text();
  EXPECT_NE(text.find("phase_x"), std::string::npos);
  EXPECT_NE(text.find("cache.hit"), std::string::npos);
  EXPECT_NE(text.find("span"), std::string::npos);
  EXPECT_NE(text.find("instant"), std::string::npos);
}

} // namespace
} // namespace eth
