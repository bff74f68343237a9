#include "core/experiment.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"

namespace eth {
namespace {

ExperimentSpec valid_hacc() {
  ExperimentSpec spec;
  spec.application = Application::kHacc;
  spec.viz.algorithm = insitu::VizAlgorithm::kVtkPoints;
  spec.layout.nodes = 4;
  spec.layout.ranks = 2;
  return spec;
}

TEST(ExperimentSpec, ValidSpecPasses) {
  EXPECT_NO_THROW(valid_hacc().validate());
}

TEST(ExperimentSpec, RejectsAlgorithmDataMismatch) {
  ExperimentSpec spec = valid_hacc();
  spec.viz.algorithm = insitu::VizAlgorithm::kVtkGeometry; // volume algo on HACC
  EXPECT_THROW(spec.validate(), Error);
  spec.application = Application::kXrage; // now consistent
  EXPECT_NO_THROW(spec.validate());
  spec.viz.algorithm = insitu::VizAlgorithm::kRaycastSpheres;
  EXPECT_THROW(spec.validate(), Error);
}

TEST(ExperimentSpec, RejectsOversizedLayout) {
  ExperimentSpec spec = valid_hacc();
  spec.layout.nodes = spec.machine.total_nodes + 1;
  EXPECT_THROW(spec.validate(), Error);
}

TEST(ExperimentSpec, RejectsDegenerateCounts) {
  ExperimentSpec spec = valid_hacc();
  spec.timesteps = 0;
  EXPECT_THROW(spec.validate(), Error);
  spec = valid_hacc();
  spec.viz.images_per_timestep = 0;
  EXPECT_THROW(spec.validate(), Error);
  spec = valid_hacc();
  spec.name.clear();
  EXPECT_THROW(spec.validate(), Error);
  spec = valid_hacc();
  spec.layout.ranks = 100;
  EXPECT_THROW(spec.validate(), Error);
  spec = valid_hacc();
  spec.use_disk_proxy = true;
  spec.proxy_dir.clear();
  EXPECT_THROW(spec.validate(), Error);
}

TEST(ExperimentSpec, RejectsSubUnityScaleFactors) {
  ExperimentSpec spec = valid_hacc();
  spec.data_scale = 0.5;
  EXPECT_THROW(spec.validate(), Error);
  spec = valid_hacc();
  spec.pixel_scale = 0.0;
  EXPECT_THROW(spec.validate(), Error);
  spec = valid_hacc();
  spec.data_scale = 125.0;
  spec.pixel_scale = 16.0;
  EXPECT_NO_THROW(spec.validate());
}

TEST(ExperimentSpec, RejectsEmptyImagesAndDegenerateData) {
  // Each of these used to pass validate() (and eth_explore --dry-run)
  // and fail later inside a rank with an unrelated message.
  const std::vector<std::pair<const char*, void (*)(ExperimentSpec&)>> cases = {
      {"image_size 0x0",
       [](ExperimentSpec& s) { s.viz.image_width = s.viz.image_height = 0; }},
      {"image_size -4x8", [](ExperimentSpec& s) { s.viz.image_width = -4; }},
      {"particles -5", [](ExperimentSpec& s) { s.hacc.num_particles = -5; }},
      {"halos -1", [](ExperimentSpec& s) { s.hacc.num_halos = -1; }},
      {"halos 0", [](ExperimentSpec& s) { s.hacc.num_halos = 0; }},
      {"grid 1x1x1", [](ExperimentSpec& s) { s.xrage.dims = {1, 1, 1}; }},
      {"grid 0x4x4", [](ExperimentSpec& s) { s.xrage.dims = {0, 4, 4}; }},
      {"grid 4x4x1", [](ExperimentSpec& s) { s.xrage.dims = {4, 4, 1}; }},
  };
  for (const auto& [name, mutate] : cases) {
    ExperimentSpec spec = valid_hacc();
    mutate(spec);
    EXPECT_THROW(spec.validate(), Error) << name;
  }
  ExperimentSpec spec = valid_hacc();
  spec.hacc.num_particles = 0; // an empty slab is a valid (if dull) run
  spec.viz.image_width = spec.viz.image_height = 1;
  spec.xrage.dims = {2, 2, 2};
  EXPECT_NO_THROW(spec.validate());
}

TEST(ExperimentSpec, RejectsNonFiniteScalesAndFaultDelay) {
  const double inf = std::numeric_limits<double>::infinity();
  for (const double bad : {inf, std::nan("")}) {
    ExperimentSpec spec = valid_hacc();
    spec.data_scale = bad;
    EXPECT_THROW(spec.validate(), Error) << "data_scale " << bad;
    spec = valid_hacc();
    spec.pixel_scale = bad;
    EXPECT_THROW(spec.validate(), Error) << "pixel_scale " << bad;
    spec = valid_hacc();
    spec.fault.delay_ms = bad;
    EXPECT_THROW(spec.validate(), Error) << "fault_delay_ms " << bad;
  }
  ExperimentSpec spec = valid_hacc();
  spec.fault.delay_ms = 0.0;
  EXPECT_NO_THROW(spec.validate());
}

TEST(ExperimentSpec, RejectsSamplingRatioOutsideUnitInterval) {
  for (const double ratio : {0.0, -0.25, 1.5, std::nan("")}) {
    ExperimentSpec spec = valid_hacc();
    spec.viz.sampling_ratio = ratio;
    EXPECT_THROW(spec.validate(), Error) << ratio;
  }
  ExperimentSpec spec = valid_hacc();
  spec.viz.sampling_ratio = 1e-3;
  EXPECT_NO_THROW(spec.validate());
  spec.viz.sampling_ratio = 1.0;
  EXPECT_NO_THROW(spec.validate());
}

TEST(Application, Names) {
  EXPECT_STREQ(to_string(Application::kHacc), "hacc");
  EXPECT_STREQ(to_string(Application::kXrage), "xrage");
}

TEST(ExperimentSpec, PipelineDepthBounds) {
  ExperimentSpec spec = valid_hacc();
  spec.pipeline_depth = 0; // auto
  EXPECT_NO_THROW(spec.validate());
  spec.pipeline_depth = 32;
  EXPECT_NO_THROW(spec.validate());
  spec.pipeline_depth = 33;
  EXPECT_THROW(spec.validate(), Error);
  spec.pipeline_depth = -1;
  EXPECT_THROW(spec.validate(), Error);
}

TEST(ExperimentSpec, ResolvedPipelineDepthPrefersSpecOverEnvironment) {
  ExperimentSpec spec = valid_hacc();

  const char* saved = std::getenv("ETH_PIPELINE_DEPTH");
  const std::string saved_value = saved ? saved : "";

  ::setenv("ETH_PIPELINE_DEPTH", "3", 1);
  spec.pipeline_depth = 0;
  EXPECT_EQ(spec.resolved_pipeline_depth(), 3);
  spec.pipeline_depth = 2; // explicit spec value beats the environment
  EXPECT_EQ(spec.resolved_pipeline_depth(), 2);

  // Malformed or out-of-range environment values fall back to 1.
  spec.pipeline_depth = 0;
  ::setenv("ETH_PIPELINE_DEPTH", "banana", 1);
  EXPECT_EQ(spec.resolved_pipeline_depth(), 1);
  ::setenv("ETH_PIPELINE_DEPTH", "0", 1);
  EXPECT_EQ(spec.resolved_pipeline_depth(), 1);
  ::setenv("ETH_PIPELINE_DEPTH", "999", 1);
  EXPECT_EQ(spec.resolved_pipeline_depth(), 1);

  ::unsetenv("ETH_PIPELINE_DEPTH");
  EXPECT_EQ(spec.resolved_pipeline_depth(), 1);

  if (saved)
    ::setenv("ETH_PIPELINE_DEPTH", saved_value.c_str(), 1);
}

TEST(SpecSummary, ListsEveryEffectiveValue) {
  ExperimentSpec spec = valid_hacc();
  spec.name = "summary-test";
  spec.fault.p_bit_flip = 0.25;
  spec.fault.seed = 42;
  const std::string text = spec_summary(spec);
  for (const char* needle :
       {"summary-test", "application", "hacc", "timesteps", "coupling",
        "nodes", "ranks", "fault", "bit_flip=0.25", "seed=42"})
    EXPECT_NE(text.find(needle), std::string::npos) << needle;
  // pipeline_depth only appears for the async coupling.
  EXPECT_EQ(text.find("pipeline_depth"), std::string::npos);
  spec.layout.coupling = cluster::Coupling::kAsync;
  spec.pipeline_depth = 2;
  EXPECT_NE(spec_summary(spec).find("pipeline_depth  2"), std::string::npos);
}

} // namespace
} // namespace eth
