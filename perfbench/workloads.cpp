#include "workloads.hpp"

#include <fstream>
#include <iterator>

#include "common/error.hpp"
#include "common/fingerprint.hpp"
#include "common/string_util.hpp"
#include "core/spec_config.hpp"

namespace perfbench {

namespace {

struct WorkloadText {
  const char* name;
  const char* config; ///< eth_explore config; @WORK@ is the work dir
};

// The default eth_explore use, scaled up from examples/sweep_example.cfg:
// in-memory production, zero-copy intercore hand-off, heavy render.
constexpr const char* kHaccExplore = R"(
application hacc
name hacc-explore
particles 400000
halos 64
coupling intercore
nodes 64
ranks 4
timesteps 2
images 8
image_size 256x256
algorithm raycast-spheres gaussian-splat vtk-points
sampling 1.0 0.25
)";

// Disk proxy, internode redistribution, the lz4 wire codec and seeded
// transport faults: the couple stage (serialize, codec, CRC, retries),
// dump writes and loads and the filters are heavy, composite is light.
// Every composited image is also written as a PPM. The fault schedule is
// pinned: every hand-off opens a fresh channel, so one fault seed fixes
// the attempt count of every timestep of a rank, and a seed-varying
// schedule would swing the sweep's work by tens of percent.
constexpr const char* kXrageProxy = R"(
application xrage
name xrage-proxy
grid 192x120x96
proxy_dir @WORK@/proxy
artifact_dir @WORK@/artifacts
coupling internode
nodes 64
viz_nodes 16
ranks 4
timesteps 3
images 4
image_size 192x192
transport_codec lz4
fault_seed 1
fault_bit_flip 0.3
fault_truncate 0.1
transfer_attempts 4
algorithm vtk-geometry raycast-volume raycast-dvr
)";

constexpr WorkloadText kWorkloads[] = {
    {"hacc-explore", kHaccExplore},
    {"xrage-proxy", kXrageProxy},
};

std::string replace_all(std::string text, const std::string& from, const std::string& to) {
  for (std::size_t pos = text.find(from); pos != std::string::npos;
       pos = text.find(from, pos + to.size()))
    text.replace(pos, from.size(), to);
  return text;
}

std::string ppm_path(const eth::ExperimentSpec& spec, eth::Index t, std::size_t img) {
  return spec.artifact_dir + "/" + spec.name +
         eth::strprintf("_t%03lld_i%03zu.ppm", static_cast<long long>(t), img);
}

} // namespace

Workload make_workload(const std::string& name, std::uint64_t seed,
                       const std::string& work_dir) {
  for (const WorkloadText& w : kWorkloads) {
    if (name != w.name) continue;
    Workload out{w.name,
                 eth::parse_experiment_config(replace_all(w.config, "@WORK@", work_dir))};
    for (eth::SweepPoint& point : out.points) {
      point.spec.hacc.seed = seed;
      point.spec.xrage.seed = seed;
      point.spec.viz.sampling_seed = seed;
    }
    return out;
  }
  eth::fail("unknown workload '" + name + "'");
}

std::uint64_t image_hash(const eth::ImageBuffer* image) {
  if (image == nullptr) return 0;
  eth::Fingerprinter fp;
  fp.update_u64(static_cast<std::uint64_t>(image->width()));
  fp.update_u64(static_cast<std::uint64_t>(image->height()));
  fp.update(image->colors().data(), image->colors().size() * sizeof(eth::Vec4f));
  fp.update(image->depths().data(), image->depths().size() * sizeof(eth::Real));
  return fp.digest();
}

std::string point_digest(const eth::SweepPoint& point, const eth::RunResult& result) {
  const eth::ExperimentSpec& spec = point.spec;
  // Every PPM the point wrote, in (timestep, image) order. Dropped
  // timesteps write none; the file count is part of the hash.
  eth::Fingerprinter ppm;
  if (!spec.artifact_dir.empty()) {
    for (eth::Index t = 0; t < spec.timesteps; ++t) {
      for (std::size_t img = 0;
           img < static_cast<std::size_t>(spec.viz.images_per_timestep); ++img) {
        std::ifstream f(ppm_path(spec, t, img), std::ios::binary);
        if (!f) continue;
        const std::string bytes((std::istreambuf_iterator<char>(f)),
                                std::istreambuf_iterator<char>());
        ppm.update_u64(static_cast<std::uint64_t>(t) * 1000 + img);
        ppm.update(bytes.data(), bytes.size());
      }
    }
  }
  const eth::insitu::RobustnessReport& r = result.robustness;
  return eth::strprintf(
      "%s image=%016llx ppm=%016llx frames_sent=%lld frames_delivered=%lld "
      "frames_retried=%lld frames_dropped=%lld frames_corrupt=%lld "
      "frames_timed_out=%lld timesteps_dropped=%lld bytes_copied=%llu "
      "bytes_borrowed=%llu bytes_on_wire=%llu",
      spec.name.c_str(),
      static_cast<unsigned long long>(
          image_hash(result.final_image ? &*result.final_image : nullptr)),
      static_cast<unsigned long long>(spec.artifact_dir.empty() ? 0 : ppm.digest()),
      static_cast<long long>(r.frames_sent), static_cast<long long>(r.frames_delivered),
      static_cast<long long>(r.frames_retried), static_cast<long long>(r.frames_dropped),
      static_cast<long long>(r.frames_corrupt), static_cast<long long>(r.frames_timed_out),
      static_cast<long long>(result.timesteps_dropped),
      static_cast<unsigned long long>(result.counters.bytes_copied),
      static_cast<unsigned long long>(result.counters.bytes_borrowed),
      static_cast<unsigned long long>(result.counters.bytes_on_wire));
}

std::vector<std::string> read_reference(const std::string& path) {
  std::ifstream f(path);
  eth::require(f.good(), "cannot open reference '" + path + "'");
  std::vector<std::string> lines;
  for (std::string line; std::getline(f, line);)
    if (!line.empty()) lines.push_back(line);
  return lines;
}

void write_reference(const std::string& path, const std::vector<std::string>& lines) {
  std::ofstream f(path);
  for (const std::string& line : lines) f << line << '\n';
  eth::require(f.good(), "cannot write reference '" + path + "'");
}

} // namespace perfbench
