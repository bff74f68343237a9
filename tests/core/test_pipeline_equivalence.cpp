// The staged pipeline engine's determinism contract (DESIGN.md §13):
//
//  1. At depth 1 every artifact — composited images, robustness
//     counters, trace span histograms — is bit-identical to the
//     pre-refactor serial timestep loop. The goldens below were
//     captured from the monolithic Harness::run BEFORE the stage
//     decomposition landed, so these tests prove the refactor is
//     behavior-preserving, not merely self-consistent.
//  2. `coupling async` at any depth keeps images and counters
//     bit-identical to depth 1 — only the modelled timeline (makespan,
//     power, energy) responds to the overlap.
//
// Faulted runs on purpose: retry/drop bookkeeping is the easiest thing
// to reorder accidentally when stages move onto worker threads.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <utility>

#include "common/fingerprint.hpp"
#include "common/trace.hpp"
#include "core/artifact_cache.hpp"
#include "core/harness.hpp"
#include "render/compositor.hpp"

namespace eth {
namespace {

/// These tests pin byte-exact artifacts: the shared artifact cache and
/// ambient tracing from sibling tests must not leak in.
class CacheOffGuard {
public:
  CacheOffGuard() : was_enabled_(global_artifact_cache().enabled()) {
    global_artifact_cache().set_enabled(false);
  }
  ~CacheOffGuard() { global_artifact_cache().set_enabled(was_enabled_); }

private:
  bool was_enabled_;
};

class TraceResetGuard {
public:
  TraceResetGuard() { trace::reset(); }
  ~TraceResetGuard() {
    trace::set_enabled(false);
    trace::reset();
  }
};

ExperimentSpec hacc_spec() {
  ExperimentSpec spec;
  spec.name = "pipe-equiv-hacc";
  spec.application = Application::kHacc;
  spec.hacc.num_particles = 2000;
  spec.hacc.num_halos = 4;
  spec.viz.algorithm = insitu::VizAlgorithm::kRaycastSpheres;
  spec.viz.image_width = 32;
  spec.viz.image_height = 32;
  spec.viz.images_per_timestep = 1;
  spec.viz.sampling_ratio = 0.5;
  spec.timesteps = 3;
  spec.layout.nodes = 2;
  spec.layout.ranks = 2;
  spec.fault.seed = 11;
  spec.fault.p_bit_flip = 0.4;
  spec.transfer_retry.max_attempts = 4;
  return spec;
}

ExperimentSpec xrage_spec() {
  ExperimentSpec spec;
  spec.name = "pipe-equiv-xrage";
  spec.application = Application::kXrage;
  spec.xrage.dims = {16, 12, 10};
  spec.viz.algorithm = insitu::VizAlgorithm::kRaycastVolume;
  spec.viz.image_width = 24;
  spec.viz.image_height = 24;
  spec.viz.images_per_timestep = 1;
  spec.timesteps = 3;
  spec.layout.nodes = 2;
  spec.layout.ranks = 2;
  spec.fault.seed = 7;
  spec.fault.p_truncate = 0.3;
  spec.transfer_retry.max_attempts = 4;
  return spec;
}

ExperimentSpec spec_for(const std::string& app, const std::string& coupling) {
  ExperimentSpec spec = app == "hacc" ? hacc_spec() : xrage_spec();
  spec.name += "-" + coupling;
  spec.layout.coupling = cluster::coupling_from_string(coupling);
  if (spec.layout.coupling == cluster::Coupling::kInternode)
    spec.layout.viz_nodes = 1;
  return spec;
}

struct RunFingerprints {
  std::uint64_t image = 0;      ///< packed final composited image
  std::uint64_t robustness = 0; ///< robustness_table CSV text
  std::uint64_t trace_hist = 0; ///< sorted (name, track) -> count histogram
  core::NodePhaseTimes phase_times; ///< the modelled timeline's inputs
};

RunFingerprints run_and_fingerprint(const ExperimentSpec& spec) {
  trace::reset();
  trace::set_enabled(true);
  const Harness harness;
  const RunResult result = harness.run(spec);
  trace::set_enabled(false);

  RunFingerprints out;
  if (result.final_image.has_value())
    out.image = fingerprint_bytes(pack_image(*result.final_image));
  out.robustness = fingerprint_string(robustness_table(result).to_csv());
  std::map<std::pair<std::string, std::int32_t>, std::int64_t> hist;
  for (const trace::TraceEvent& e : trace::snapshot()) ++hist[{e.name, e.track}];
  Fingerprinter fp;
  for (const auto& [key, count] : hist) {
    fp.update_string(key.first);
    fp.update_u64(static_cast<std::uint64_t>(key.second));
    fp.update_u64(static_cast<std::uint64_t>(count));
  }
  out.trace_hist = fp.digest();
  out.phase_times = result.phase_times;
  trace::reset();
  return out;
}

struct Golden {
  const char* app;
  const char* coupling;
  std::uint64_t image_fp;
  std::uint64_t robustness_fp;
  std::uint64_t trace_fp;
};

/// Image fingerprints captured from the pre-refactor serial
/// Harness::run (seed build, commit 242d681): trace enabled, cache
/// off, default run context. The robustness/trace fingerprints were
/// re-pinned when the wire codec landed (DESIGN.md §15): the
/// robustness table gained the deterministic `bytes_on_wire` column
/// and the trace gained the matching counter, which changes the CSV
/// and histogram digests even with `transport_codec none` (the wire
/// bytes themselves are byte-identical to the pre-codec format — see
/// GoldenWireFormat). The trace fingerprints were re-pinned again when
/// the composite stage moved to the sparse exchange (DESIGN.md §4.3):
/// rank 0 no longer emits `pack_image`, every rank emits one
/// `composite.gather` span per image and every other rank one
/// `composite.pack`. They were re-pinned a third time when each run
/// gained one `minor_faults` counter (DESIGN.md §11). The untouched
/// image and robustness columns are the proof that neither the pixel
/// path nor the counters moved.
constexpr Golden kGoldens[] = {
    {"hacc", "tight", 0xbcfd56275ae66442ull, 0x5116d0e87ceb79a9ull,
     0xa11f45dead3603d0ull},
    {"hacc", "intercore", 0xbcfd56275ae66442ull, 0xf198c9fcdd23e1d2ull,
     0xf30ceea7647f2f25ull},
    {"hacc", "internode", 0x4c6082dc2c4c3a08ull, 0x0ae6e17962aa8b62ull,
     0x046df7352ad5dad7ull},
    {"xrage", "tight", 0x0e550d81b54fe228ull, 0x5116d0e87ceb79a9ull,
     0xb40982fca35269a0ull},
    {"xrage", "intercore", 0x0e550d81b54fe228ull, 0xf9669c6416eed698ull,
     0x72a0667fab0987ccull},
    {"xrage", "internode", 0x98f87a65c46ed5ddull, 0xb1f716ab9d6e9999ull,
     0x8b6f466f7fe92bfdull},
};

const Golden& golden_for(const std::string& app, const std::string& coupling) {
  for (const Golden& g : kGoldens)
    if (app == g.app && coupling == g.coupling) return g;
  ADD_FAILURE() << "no golden for " << app << "/" << coupling;
  return kGoldens[0];
}

TEST(PipelineEquivalence, SerialCouplingsMatchPreRefactorGoldens) {
  const CacheOffGuard cache_off;
  const TraceResetGuard trace_guard;
  for (const Golden& g : kGoldens) {
    SCOPED_TRACE(std::string(g.app) + "/" + g.coupling);
    const RunFingerprints fp = run_and_fingerprint(spec_for(g.app, g.coupling));
    EXPECT_EQ(fp.image, g.image_fp);
    EXPECT_EQ(fp.robustness, g.robustness_fp);
    EXPECT_EQ(fp.trace_hist, g.trace_fp);
  }
}

// `coupling async` at depth 1 is intercore with a different label: same
// hand-off path, same modelled timeline, and (because the inline
// pipeline emits no events of its own) even the trace histogram matches
// the intercore golden bit for bit.
TEST(PipelineEquivalence, AsyncDepthOneMatchesIntercoreGolden) {
  const CacheOffGuard cache_off;
  const TraceResetGuard trace_guard;
  for (const char* app : {"hacc", "xrage"}) {
    SCOPED_TRACE(app);
    ExperimentSpec spec = spec_for(app, "async");
    spec.pipeline_depth = 1; // explicit: immune to ETH_PIPELINE_DEPTH
    const RunFingerprints fp = run_and_fingerprint(spec);
    const Golden& g = golden_for(app, "intercore");
    EXPECT_EQ(fp.image, g.image_fp);
    EXPECT_EQ(fp.robustness, g.robustness_fp);
    EXPECT_EQ(fp.trace_hist, g.trace_fp);
  }
}

// Depth >= 2 moves produce/couple onto worker threads and overlaps
// timesteps. Artifacts must not notice: images and the full robustness/
// data-plane counter table stay bit-identical to depth 1, while the
// modelled makespan strictly shrinks (that is the whole point of the
// async coupling). Each run's makespan is priced from its own measured
// CPU, so the makespans of two runs can swap under host contention; the
// shrink is asserted on the depth-1 run's phase times, composed at
// depths 1, 2 and 3.
TEST(PipelineEquivalence, AsyncDepthKeepsArtifactsAndShrinksMakespan) {
  const CacheOffGuard cache_off;
  const TraceResetGuard trace_guard;
  for (const char* app : {"hacc", "xrage"}) {
    SCOPED_TRACE(app);
    ExperimentSpec base = spec_for(app, "async");
    base.pipeline_depth = 1;
    const RunFingerprints depth1 = run_and_fingerprint(base);
    const Golden& g = golden_for(app, "intercore");
    ASSERT_EQ(depth1.image, g.image_fp);
    for (const int depth : {2, 3}) {
      SCOPED_TRACE("depth " + std::to_string(depth));
      ExperimentSpec spec = base;
      spec.pipeline_depth = depth;
      const RunFingerprints deep = run_and_fingerprint(spec);
      EXPECT_EQ(deep.image, depth1.image);
      EXPECT_EQ(deep.robustness, depth1.robustness);
    }
    const Harness harness;
    const auto makespan = [&](int depth) {
      return core::compose_timeline(depth1.phase_times, base.layout, base.machine,
                                    harness.options(), base.timesteps,
                                    base.viz.images_per_timestep,
                                    harness.options().direct_send_composite, depth)
          .report()
          .makespan;
    };
    EXPECT_LT(makespan(2), makespan(1));
    EXPECT_LE(makespan(3), makespan(2));
  }
}

// The goldens above pin only 2-rank opaque images. These pin the DVR
// premultiplied blend and a rank count that is not a power of two, both
// captured from the dense composite exchange (pack_image -> gather ->
// unpack_image -> depth_composite_tree / alpha_composite_premultiplied)
// at commit 43d497d, before the sparse active-rectangle exchange
// replaced it.
TEST(PipelineEquivalence, ThreeRankImagesMatchDenseExchangeGoldens) {
  const CacheOffGuard cache_off;
  ExperimentSpec points = hacc_spec();
  points.name = "pipe-equiv-points";
  points.viz.algorithm = insitu::VizAlgorithm::kVtkPoints;
  ExperimentSpec dvr = xrage_spec();
  dvr.name = "pipe-equiv-dvr";
  dvr.viz.algorithm = insitu::VizAlgorithm::kRaycastDvr;
  const std::pair<ExperimentSpec, std::uint64_t> cases[] = {
      {points, 0xc93035024887c5ebull},
      {dvr, 0x02bd2c8e4ea69320ull},
  };
  for (auto [spec, image_fp] : cases) {
    SCOPED_TRACE(spec.name);
    spec.layout.coupling = cluster::Coupling::kIntercore;
    spec.layout.nodes = 3;
    spec.layout.ranks = 3;
    const RunResult result = Harness().run(spec);
    ASSERT_TRUE(result.final_image.has_value());
    EXPECT_EQ(fingerprint_bytes(pack_image(*result.final_image)), image_fp);
  }
}

// The depth knob must be inert for the synchronous couplings: an
// ETH_PIPELINE_DEPTH exported for an async sweep cannot perturb a
// tight/intercore/internode run sharing the environment.
TEST(PipelineEquivalence, DepthIsInertForSynchronousCouplings) {
  const CacheOffGuard cache_off;
  const TraceResetGuard trace_guard;
  for (const char* coupling : {"tight", "intercore", "internode"}) {
    SCOPED_TRACE(coupling);
    ExperimentSpec spec = spec_for("hacc", coupling);
    spec.pipeline_depth = 4;
    const RunFingerprints fp = run_and_fingerprint(spec);
    const Golden& g = golden_for("hacc", coupling);
    EXPECT_EQ(fp.image, g.image_fp);
    EXPECT_EQ(fp.robustness, g.robustness_fp);
    EXPECT_EQ(fp.trace_hist, g.trace_fp);
    // (Modelled makespan is a function of measured CPU seconds, which
    // jitter run to run — bit-identity is only promised for artifacts.)
  }
}

} // namespace
} // namespace eth
