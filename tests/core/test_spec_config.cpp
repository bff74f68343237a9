#include "core/spec_config.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/string_util.hpp"

namespace eth {
namespace {

TEST(SpecConfig, SingleValuedKeysSetTheSpec) {
  const auto points = parse_experiment_config(R"(
# comment line
application hacc
particles 12345
algorithm vtk-points    # trailing comment
coupling internode
nodes 32
ranks 4
viz_nodes 8
sampling 0.5
images 7
image_size 96x64
quantization_bits 12
)");
  ASSERT_EQ(points.size(), 1u);
  const ExperimentSpec& spec = points[0].spec;
  EXPECT_EQ(spec.application, Application::kHacc);
  EXPECT_EQ(spec.hacc.num_particles, 12345);
  EXPECT_EQ(spec.viz.algorithm, insitu::VizAlgorithm::kVtkPoints);
  EXPECT_EQ(spec.layout.coupling, cluster::Coupling::kInternode);
  EXPECT_EQ(spec.layout.nodes, 32);
  EXPECT_EQ(spec.layout.viz_nodes, 8);
  EXPECT_DOUBLE_EQ(spec.viz.sampling_ratio, 0.5);
  EXPECT_EQ(spec.viz.images_per_timestep, 7);
  EXPECT_EQ(spec.viz.image_width, 96);
  EXPECT_EQ(spec.viz.image_height, 64);
  EXPECT_EQ(spec.transport_quantization_bits, 12);
  EXPECT_EQ(points[0].label, "run");
}

TEST(SpecConfig, CartesianProductExpansion) {
  const auto points = parse_experiment_config(R"(
application hacc
particles 1000
algorithm gaussian-splat vtk-points raycast-spheres
sampling 1.0 0.5
nodes 8
ranks 2
)");
  ASSERT_EQ(points.size(), 6u); // 3 algorithms x 2 ratios
  // Labels carry every swept dimension.
  EXPECT_EQ(points[0].label, "algorithm=gaussian-splat sampling=1.0");
  EXPECT_EQ(points[5].label, "algorithm=raycast-spheres sampling=0.5");
  // Names are unique (proxy/artifact separation).
  for (std::size_t i = 0; i < points.size(); ++i)
    for (std::size_t j = i + 1; j < points.size(); ++j)
      EXPECT_NE(points[i].spec.name, points[j].spec.name);
}

TEST(SpecConfig, XrageGridsAndVolumeKeys) {
  const auto points = parse_experiment_config(R"(
application xrage
grid 16x12x10 24x20x16
algorithm raycast-volume
isovalue 0.4
slices 3
nodes 4
ranks 2
)");
  ASSERT_EQ(points.size(), 2u);
  EXPECT_EQ(points[0].spec.xrage.dims, (Vec3i{16, 12, 10}));
  EXPECT_EQ(points[1].spec.xrage.dims, (Vec3i{24, 20, 16}));
  EXPECT_FLOAT_EQ(points[0].spec.viz.isovalue, 0.4f);
  EXPECT_EQ(points[0].spec.viz.num_slices, 3);
}

TEST(SpecConfig, ProxyDirEnablesDiskProxy) {
  const auto points = parse_experiment_config(
      "application hacc\nalgorithm vtk-points\nproxy_dir /tmp/x\nnodes 2\nranks 2\n");
  EXPECT_TRUE(points[0].spec.use_disk_proxy);
  EXPECT_EQ(points[0].spec.proxy_dir, "/tmp/x");
}

TEST(SpecConfig, RejectsMalformedInput) {
  EXPECT_THROW(parse_experiment_config(""), Error);
  EXPECT_THROW(parse_experiment_config("bogus_key 3\n"), Error);
  EXPECT_THROW(parse_experiment_config("particles\n"), Error);
  EXPECT_THROW(parse_experiment_config("application klingon\n"), Error);
  EXPECT_THROW(parse_experiment_config("application hacc\nalgorithm warp\n"), Error);
  EXPECT_THROW(parse_experiment_config("application hacc\nimage_size 64\n"), Error);
  // Validation catches inconsistent expanded specs.
  EXPECT_THROW(parse_experiment_config(
                   "application xrage\nalgorithm vtk-points\nnodes 2\nranks 2\n"),
               Error);
  // A sampling ratio outside (0, 1], NaN included, fails here rather
  // than running unsampled or throwing later inside a rank.
  for (const char* ratio : {"nan", "1.5", "0", "-0.25"})
    EXPECT_THROW(parse_experiment_config(std::string("application hacc\nalgorithm vtk-points\n"
                                                     "nodes 2\nranks 2\nsampling ") +
                                         ratio + "\n"),
                 Error)
        << ratio;
}

TEST(SpecConfig, LoadFromFile) {
  const auto path =
      (std::filesystem::temp_directory_path() / "eth_spec_config_test.cfg").string();
  {
    std::ofstream f(path);
    f << "application hacc\nalgorithm vtk-points\nparticles 500\nnodes 2\nranks 2\n";
  }
  const auto points = load_experiment_config(path);
  ASSERT_EQ(points.size(), 1u);
  EXPECT_EQ(points[0].spec.hacc.num_particles, 500);
  std::filesystem::remove(path);
  EXPECT_THROW(load_experiment_config(path), Error);
}

TEST(SpecConfig, ReferenceMentionsEveryKey) {
  const std::string ref = experiment_config_reference();
  for (const char* key : {"application", "particles", "grid", "algorithm", "coupling",
                          "nodes", "sampling", "quantization_bits", "proxy_dir",
                          "pipeline_depth", "async"})
    EXPECT_NE(ref.find(key), std::string::npos) << key;
}

TEST(SpecConfig, UnknownKeySuggestsNearestMatch) {
  // Strict validation: a typo'd key fails loudly AND points at the fix.
  const auto message_for = [](const char* text) -> std::string {
    try {
      parse_experiment_config(text);
    } catch (const Error& e) {
      return e.what();
    }
    ADD_FAILURE() << "expected a parse failure for: " << text;
    return "";
  };
  const std::string typo = message_for("couplng async\nnodes 2\nranks 2\n");
  EXPECT_NE(typo.find("unknown key 'couplng'"), std::string::npos) << typo;
  EXPECT_NE(typo.find("did you mean 'coupling'?"), std::string::npos) << typo;

  const std::string depth =
      message_for("application hacc\npipeline_deph 2\nnodes 2\nranks 2\n");
  EXPECT_NE(depth.find("did you mean 'pipeline_depth'?"), std::string::npos)
      << depth;

  // Nothing plausibly close: the error stays, the suggestion is omitted.
  const std::string junk = message_for("zzqqxxyy 1\nnodes 2\nranks 2\n");
  EXPECT_NE(junk.find("unknown key 'zzqqxxyy'"), std::string::npos) << junk;
  EXPECT_EQ(junk.find("did you mean"), std::string::npos) << junk;
}

TEST(SpecConfig, AsyncCouplingAndPipelineDepthSweep) {
  const auto points = parse_experiment_config(R"(
application hacc
algorithm vtk-points
coupling async
pipeline_depth 1 2 4
nodes 2
ranks 2
)");
  ASSERT_EQ(points.size(), 3u);
  for (const auto& point : points)
    EXPECT_EQ(point.spec.layout.coupling, cluster::Coupling::kAsync);
  EXPECT_EQ(points[0].spec.pipeline_depth, 1);
  EXPECT_EQ(points[1].spec.pipeline_depth, 2);
  EXPECT_EQ(points[2].spec.pipeline_depth, 4);
  EXPECT_EQ(points[1].label, "pipeline_depth=2");
  // Out-of-range depths are rejected by spec validation at parse time.
  EXPECT_THROW(parse_experiment_config("application hacc\nalgorithm vtk-points\n"
                                       "coupling async\npipeline_depth 99\n"
                                       "nodes 2\nranks 2\n"),
               Error);
}

TEST(SpecConfig, IntKeysRejectValuesOutsideInt) {
  // These keys fill `int` fields; a value outside int's range must be
  // an error naming the key, not a wrapped value (4294967298 -> 2).
  for (const char* key : {"nodes", "ranks", "viz_nodes", "slices", "quantization_bits",
                          "pipeline_depth", "transfer_attempts"}) {
    for (const char* value : {"4294967298", "4294967297", "2147483648", "-2147483649"}) {
      const std::string text = "application hacc\nalgorithm vtk-points\nnodes 4\n"
                               "ranks 2\n" + std::string(key) + " " + value + "\n";
      try {
        parse_experiment_config(text);
        ADD_FAILURE() << key << " " << value << " parsed";
      } catch (const Error& e) {
        EXPECT_NE(std::string(e.what()).find(key), std::string::npos) << e.what();
      }
    }
  }
  const auto points = parse_experiment_config(
      "application hacc\nalgorithm vtk-points\nnodes 4\nranks 2\ntransfer_attempts 2147483647\n");
  EXPECT_EQ(points[0].spec.transfer_retry.max_attempts, 2147483647);
}

// A valid config using every key with an int field, a sampling sweep,
// a fault block and the codec: the seed of the mutation test.
constexpr const char* kMutationSeedConfig = R"(# mutation seed
application hacc
particles 4000
halos 16
timesteps 2
algorithm vtk-points raycast-spheres
coupling internode
nodes 16 32
ranks 4
viz_nodes 4
sampling 1.0 0.5
sampling_mode stride
images 2
image_size 64x48
slices 2
quantization_bits 0 12
transport_codec lz4
pipeline_depth 2
fault_seed 7
fault_bit_flip 0.1
transfer_attempts 3
)";

/// The parser's view of a config: per line, the whitespace-separated
/// tokens before any '#'.
std::vector<std::vector<std::string>> config_lines(const std::string& text) {
  std::vector<std::vector<std::string>> lines;
  for (const std::string& raw : split(text, '\n')) {
    std::string line(trim(raw));
    line = line.substr(0, line.find('#'));
    std::istringstream is(line);
    std::vector<std::string> tokens;
    std::string token;
    while (is >> token) tokens.push_back(token);
    if (!tokens.empty()) lines.push_back(std::move(tokens));
  }
  return lines;
}

std::string join_config(const std::vector<std::vector<std::string>>& lines) {
  std::string text;
  for (const auto& tokens : lines) {
    for (std::size_t i = 0; i < tokens.size(); ++i) text += (i ? " " : "") + tokens[i];
    text += '\n';
  }
  return text;
}

// Seeded damage to a valid config: byte flips, truncations, duplicated
// or swapped tokens, and out-of-range numbers in value positions. Each
// mutant must parse into specs that pass validate or throw eth::Error,
// never another exception. A parsed spec must also hold what its text
// says: every int-field key one of its last line's values (the last
// line wins), and every sampling ratio in (0, 1].
TEST(SpecConfig, MutatedConfigsParseOrThrow) {
  const std::vector<std::pair<const char*, std::function<int(const ExperimentSpec&)>>>
      int_keys = {
          {"nodes", [](const ExperimentSpec& s) { return s.layout.nodes; }},
          {"ranks", [](const ExperimentSpec& s) { return s.layout.ranks; }},
          {"viz_nodes", [](const ExperimentSpec& s) { return s.layout.viz_nodes; }},
          {"slices", [](const ExperimentSpec& s) { return s.viz.num_slices; }},
          {"quantization_bits",
           [](const ExperimentSpec& s) { return s.transport_quantization_bits; }},
          {"pipeline_depth", [](const ExperimentSpec& s) { return s.pipeline_depth; }},
          {"transfer_attempts",
           [](const ExperimentSpec& s) { return s.transfer_retry.max_attempts; }},
      };
  const std::vector<std::string> edge_numbers = {
      "4294967298", "4294967297", "2147483648", "-2147483649", "9223372036854775807",
      "99999999999999999999", "-1", "0", "nan", "inf", "-inf", "1.5", "1e308", "-0"};

  const std::string seed_text = kMutationSeedConfig;
  ASSERT_NO_THROW(parse_experiment_config(seed_text));
  const auto seed_lines = config_lines(seed_text);

  Rng rng(1807);
  int parsed = 0, rejected = 0;
  for (int trial = 0; trial < 2500; ++trial) {
    std::string text = seed_text;
    auto lines = seed_lines;
    const auto pick_line = [&] { return rng.uniform_index(lines.size()); };
    switch (trial % 5) {
      case 0: // 1-3 bit flips anywhere
        for (int f = 1 + int(rng.uniform_index(3)); f > 0; --f) {
          const std::size_t pos = rng.uniform_index(text.size());
          text[pos] = char(text[pos] ^ (1 << rng.uniform_index(8)));
        }
        break;
      case 1: // truncation
        text.resize(rng.uniform_index(text.size()));
        break;
      case 2: { // a token repeated in place
        auto& tokens = lines[pick_line()];
        const std::size_t i = rng.uniform_index(tokens.size());
        tokens.insert(tokens.begin() + std::ptrdiff_t(i), tokens[i]);
        text = join_config(lines);
        break;
      }
      case 3: { // two tokens swapped, possibly across lines
        auto& a = lines[pick_line()];
        auto& b = lines[pick_line()];
        std::swap(a[rng.uniform_index(a.size())], b[rng.uniform_index(b.size())]);
        text = join_config(lines);
        break;
      }
      default: { // a value replaced by an oversized or out-of-range number
        auto& tokens = lines[pick_line()];
        tokens[1 + rng.uniform_index(tokens.size() - 1)] =
            edge_numbers[rng.uniform_index(edge_numbers.size())];
        text = join_config(lines);
        break;
      }
    }

    std::vector<SweepPoint> points;
    try {
      points = parse_experiment_config(text);
    } catch (const Error&) {
      ++rejected;
      continue;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "trial " << trial << " threw a non-eth::Error: " << e.what()
                    << "\n" << text;
      continue;
    }
    ++parsed;
    const auto mutant_lines = config_lines(text);
    for (const SweepPoint& point : points) {
      EXPECT_NO_THROW(point.spec.validate()) << "trial " << trial;
      EXPECT_TRUE(point.spec.viz.sampling_ratio > 0 && point.spec.viz.sampling_ratio <= 1)
          << "trial " << trial << " sampling " << point.spec.viz.sampling_ratio << "\n"
          << text;
      for (const auto& [key, field] : int_keys) {
        const std::vector<std::string>* last = nullptr;
        for (const auto& tokens : mutant_lines)
          if (tokens[0] == key) last = &tokens;
        if (last == nullptr) continue;
        bool listed = false;
        for (std::size_t i = 1; i < last->size(); ++i)
          listed = listed || std::strtoll((*last)[i].c_str(), nullptr, 10) == field(point.spec);
        EXPECT_TRUE(listed) << "trial " << trial << " " << key << " parsed as "
                            << field(point.spec) << "\n" << text;
      }
    }
  }
  // Both outcomes occur, so neither check is vacuous.
  EXPECT_GT(parsed, 100);
  EXPECT_GT(rejected, 100);
}

} // namespace
} // namespace eth
