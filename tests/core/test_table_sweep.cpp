#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "common/error.hpp"
#include "common/string_util.hpp"
#include "core/sweep.hpp"
#include "core/table.hpp"

namespace eth {
namespace {

TEST(ResultTable, BuildAndRenderText) {
  ResultTable table({"name", "value"});
  table.begin_row();
  table.add_cell("alpha");
  table.add_cell(1.5, "%.1f");
  table.begin_row();
  table.add_cell("beta-long-label");
  table.add_cell(Index(42));
  EXPECT_EQ(table.num_rows(), 2u);
  EXPECT_EQ(table.cell(0, 1), "1.5");
  EXPECT_EQ(table.cell(1, 1), "42");

  const std::string text = table.to_text();
  EXPECT_NE(text.find("| name"), std::string::npos);
  EXPECT_NE(text.find("beta-long-label"), std::string::npos);
  // Header separator present.
  EXPECT_NE(text.find("|--"), std::string::npos);
}

TEST(ResultTable, CsvEscapesSpecials) {
  ResultTable table({"label", "note"});
  table.begin_row();
  table.add_cell("a,b");
  table.add_cell("say \"hi\"");
  const std::string csv = table.to_csv();
  EXPECT_NE(csv.find("\"a,b\""), std::string::npos);
  EXPECT_NE(csv.find("\"say \"\"hi\"\"\""), std::string::npos);
  EXPECT_EQ(csv.substr(0, 10), "label,note");
}

TEST(ResultTable, SaveCsvWritesFile) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "eth_table.csv").string();
  ResultTable table({"x"});
  table.begin_row();
  table.add_cell(Index(7));
  table.save_csv(path);
  std::ifstream f(path);
  std::string line;
  std::getline(f, line);
  EXPECT_EQ(line, "x");
  std::getline(f, line);
  EXPECT_EQ(line, "7");
  std::filesystem::remove(path);
}

TEST(ResultTable, MisuseThrows) {
  EXPECT_THROW(ResultTable({}), Error);
  ResultTable table({"a"});
  EXPECT_THROW(table.add_cell("no row yet"), Error);
  table.begin_row();
  table.add_cell("x");
  EXPECT_THROW(table.add_cell("overflow"), Error);
  EXPECT_THROW(table.cell(5, 0), Error);
}

// Satellite regression (ISSUE 7): begin_row() only checks the row
// BEFORE it, so a short final row used to slip through and serialize
// ragged (to_text padded phantom cells, to_csv emitted a short line
// that shifts every later column). Serialization must refuse instead.
TEST(ResultTable, IncompleteFinalRowThrowsAtSerialization) {
  ResultTable table({"a", "b"});
  table.begin_row();
  table.add_cell("row0-a");
  table.add_cell("row0-b");
  table.begin_row();
  table.add_cell("row1-a"); // final row short by one cell
  EXPECT_THROW(table.to_text(), Error);
  EXPECT_THROW(table.to_csv(), Error);
  const std::string path =
      (std::filesystem::temp_directory_path() / "eth_ragged.csv").string();
  EXPECT_THROW(table.save_csv(path), Error);

  table.add_cell("row1-b"); // completing the row unblocks serialization
  EXPECT_NE(table.to_text().find("row1-b"), std::string::npos);
  EXPECT_NE(table.to_csv().find("row1-b"), std::string::npos);
}

// ---- golden renderings: the exact bytes of both serializations.
// Width padding and quoting feed the sweep-equivalence suite's
// byte-compare, so these are pinned literally.

TEST(TableGolden, TextRenderingPadsToWidestCell) {
  ResultTable table({"name", "v"});
  table.begin_row();
  table.add_cell("alpha");
  table.add_cell(Index(7));
  table.begin_row();
  table.add_cell("b");
  table.add_cell("wide-cell");
  EXPECT_EQ(table.to_text(),
            "| name  | v         |\n"
            "|-------|-----------|\n"
            "| alpha | 7         |\n"
            "| b     | wide-cell |\n");
}

TEST(TableGolden, CsvQuotesExactlyTheCellsThatNeedIt) {
  ResultTable table({"label", "note"});
  table.begin_row();
  table.add_cell("plain");
  table.add_cell("a,b");
  table.begin_row();
  table.add_cell("line\nbreak");
  table.add_cell("say \"hi\"");
  EXPECT_EQ(table.to_csv(),
            "label,note\n"
            "plain,\"a,b\"\n"
            "\"line\nbreak\",\"say \"\"hi\"\"\"\n");
}

TEST(SweepOver, BuildsLabeledVariants) {
  ExperimentSpec base;
  base.name = "base";
  base.application = Application::kHacc;
  base.viz.algorithm = insitu::VizAlgorithm::kVtkPoints;
  const std::vector<double> ratios{1.0, 0.5};
  const auto points = sweep_over<double>(
      base, ratios, [](const double& r) { return "ratio" + std::to_string(int(r * 100)); },
      [](const double& r, ExperimentSpec& spec) { spec.viz.sampling_ratio = r; });
  ASSERT_EQ(points.size(), 2u);
  EXPECT_EQ(points[0].label, "ratio100");
  EXPECT_EQ(points[1].spec.viz.sampling_ratio, 0.5);
  EXPECT_EQ(points[1].spec.name, "base-ratio50");
}

TEST(RunSweep, ExecutesInOrderWithCallback) {
  ExperimentSpec base;
  base.name = "sweep-test";
  base.application = Application::kHacc;
  base.hacc.num_particles = 500;
  base.viz.algorithm = insitu::VizAlgorithm::kVtkPoints;
  base.viz.image_width = 16;
  base.viz.image_height = 16;
  base.viz.images_per_timestep = 1;
  base.layout.nodes = 2;
  base.layout.ranks = 2;

  const std::vector<int> sizes{500, 1000};
  const auto points = sweep_over<int>(
      base, sizes, [](const int& n) { return std::to_string(n); },
      [](const int& n, ExperimentSpec& spec) { spec.hacc.num_particles = n; });

  std::vector<std::string> seen;
  const Harness harness;
  const auto outcomes = run_sweep(harness, points, [&](const SweepOutcome& o) {
    seen.push_back(o.label);
  });
  ASSERT_EQ(outcomes.size(), 2u);
  EXPECT_EQ(seen, (std::vector<std::string>{"500", "1000"}));
  for (const auto& o : outcomes) EXPECT_GT(o.result.exec_seconds, 0);

  const ResultTable table = metrics_table("particles", outcomes);
  EXPECT_EQ(table.num_rows(), 2u);
  EXPECT_EQ(table.cell(0, 0), "500");
}

// ---- golden column sets: downstream tooling (bench CSVs, plotting)
// keys on these names and their order; a change here is a breaking
// schema change and must be deliberate.

TEST(TableGolden, MetricsTableColumns) {
  const std::vector<SweepOutcome> outcomes;
  const ResultTable table = metrics_table("ratio", outcomes);
  const std::vector<std::string> expected{
      "ratio",      "time_s",       "power_kW",    "dyn_power_kW", "energy_kJ",
      "cache_hits", "cache_misses", "cache_bytes", "prefetch_hits",
      "bytes_on_wire"};
  EXPECT_EQ(table.columns(), expected);
}

TEST(TableGolden, SweepRobustnessTableColumns) {
  const std::vector<SweepOutcome> outcomes;
  const ResultTable table = robustness_table("ratio", outcomes);
  const std::vector<std::string> expected{
      "ratio",          "frames_sent",       "frames_delivered",
      "frames_retried", "frames_dropped",    "frames_corrupt",
      "frames_timed_out", "timesteps_dropped", "bytes_copied",
      "bytes_borrowed", "bytes_on_wire",     "cache_hits",
      "cache_misses",   "cache_bytes",       "prefetch_hits"};
  EXPECT_EQ(table.columns(), expected);
}

TEST(TableGolden, RunRobustnessTableColumns) {
  const RunResult result;
  const ResultTable table = robustness_table(result);
  const std::vector<std::string> expected{
      "frames_sent",      "frames_delivered",  "frames_retried",
      "frames_dropped",   "frames_corrupt",    "frames_timed_out",
      "timesteps_dropped", "bytes_copied",     "bytes_borrowed",
      "bytes_on_wire",    "cache_hits",        "cache_misses",
      "cache_bytes",      "prefetch_hits"};
  EXPECT_EQ(table.columns(), expected);
  EXPECT_EQ(table.num_rows(), 1u); // single-run table: exactly one row
}

TEST(SweepOver, LabelAndMutateComposeIndependently) {
  ExperimentSpec base;
  base.name = "combo";
  base.application = Application::kXrage;
  base.viz.algorithm = insitu::VizAlgorithm::kRaycastVolume;
  const std::vector<int> widths{64, 128, 256};
  const auto points = sweep_over<int>(
      base, widths, [](const int& w) { return strprintf("w%d", w); },
      [](const int& w, ExperimentSpec& spec) {
        spec.viz.image_width = w;
        spec.viz.image_height = w / 2;
      });
  ASSERT_EQ(points.size(), 3u);
  for (std::size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(points[i].label, strprintf("w%d", widths[i]));
    EXPECT_EQ(points[i].spec.name, "combo-" + points[i].label);
    EXPECT_EQ(points[i].spec.viz.image_width, widths[i]);
    EXPECT_EQ(points[i].spec.viz.image_height, widths[i] / 2);
    // The mutation must not leak into other points or the base.
    EXPECT_EQ(points[i].spec.application, Application::kXrage);
  }
  EXPECT_EQ(base.viz.image_width, ExperimentSpec().viz.image_width);
}

} // namespace
} // namespace eth
