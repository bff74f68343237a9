#include "core/experiment.hpp"

#include <cmath>
#include <cstdlib>
#include <sstream>

#include "common/error.hpp"
#include "common/string_util.hpp"

namespace eth {

namespace {

/// Hard ceiling on timesteps in flight: beyond this a "deeper"
/// pipeline only holds more datasets live without any further overlap
/// (the viz chain is serial), so large values are a configuration bug.
constexpr int kMaxPipelineDepth = 32;

} // namespace

const char* to_string(Application app) {
  return app == Application::kHacc ? "hacc" : "xrage";
}

int ExperimentSpec::resolved_pipeline_depth() const {
  if (pipeline_depth > 0) return pipeline_depth;
  if (const char* env = std::getenv("ETH_PIPELINE_DEPTH")) {
    char* end = nullptr;
    const long n = std::strtol(env, &end, 10);
    if (end != env && *end == '\0' && n >= 1 && n <= kMaxPipelineDepth)
      return static_cast<int>(n);
  }
  return 1;
}

insitu::WireCodec ExperimentSpec::resolved_transport_codec() const {
  if (!transport_codec.empty()) return insitu::codec_from_string(transport_codec);
  return insitu::resolved_wire_codec();
}

void ExperimentSpec::validate() const {
  require(!name.empty(), "ExperimentSpec: name must not be empty");
  require(timesteps > 0, "ExperimentSpec: need at least one timestep");
  layout.validate();
  machine.validate();
  require(layout.nodes <= machine.total_nodes,
          "ExperimentSpec: layout requests more nodes than the machine has");
  require(layout.ranks >= 1, "ExperimentSpec: need at least one measurement rank");
  require(layout.ranks <= 64,
          "ExperimentSpec: more than 64 measurement ranks is never useful");
  require(viz.images_per_timestep > 0, "ExperimentSpec: images_per_timestep > 0");
  require(viz.image_width >= 1 && viz.image_height >= 1,
          "ExperimentSpec: image sides must be >= 1 pixel");
  require(viz.sampling_ratio > 0.0 && viz.sampling_ratio <= 1.0,
          "ExperimentSpec: sampling ratio must be in (0, 1]");
  require(hacc.num_particles >= 0, "ExperimentSpec: particles must be >= 0");
  require(hacc.num_halos >= 1, "ExperimentSpec: need at least one halo");
  require(xrage.dims.x >= 2 && xrage.dims.y >= 2 && xrage.dims.z >= 2,
          "ExperimentSpec: every grid axis needs >= 2 points");
  require(std::isfinite(data_scale) && std::isfinite(pixel_scale) &&
              data_scale >= 1.0 && pixel_scale >= 1.0,
          "ExperimentSpec: scale factors must be finite and >= 1 (paper scale / "
          "executed scale)");
  const bool particle = insitu::is_particle_algorithm(viz.algorithm);
  require(particle == (application == Application::kHacc),
          "ExperimentSpec: algorithm does not match the application's data kind");
  require(transport_quantization_bits == 0 ||
              (transport_quantization_bits >= 1 && transport_quantization_bits <= 24),
          "ExperimentSpec: quantization bits must be 0 (off) or in [1, 24]");
  require(transport_codec.empty() || transport_codec == "none" ||
              transport_codec == "lz4",
          "ExperimentSpec: transport_codec must be \"\" (resolve from "
          "ETH_WIRE_CODEC), \"none\" or \"lz4\"");
  if (use_disk_proxy)
    require(!proxy_dir.empty(), "ExperimentSpec: disk proxy needs proxy_dir");
  for (const double p : {fault.p_connect_refused, fault.p_recv_timeout,
                         fault.p_truncate, fault.p_bit_flip, fault.p_delay})
    require(p >= 0.0 && p <= 1.0,
            "ExperimentSpec: fault probabilities must be in [0, 1]");
  require(std::isfinite(fault.delay_ms) && fault.delay_ms >= 0.0,
          "ExperimentSpec: fault delay must be finite and >= 0");
  require(transfer_retry.max_attempts >= 1,
          "ExperimentSpec: transfer retry budget must be >= 1 attempt");
  require(transfer_retry.recv_deadline_seconds > 0,
          "ExperimentSpec: transfer recv deadline must be positive");
  require(pipeline_depth >= 0 && pipeline_depth <= kMaxPipelineDepth,
          strprintf("ExperimentSpec: pipeline_depth must be 0 (auto) or in [1, %d]",
                    kMaxPipelineDepth));
}

std::string spec_summary(const ExperimentSpec& spec) {
  std::ostringstream os;
  os << "name            " << spec.name << '\n';
  os << "application     " << to_string(spec.application) << '\n';
  if (spec.application == Application::kHacc) {
    os << "particles       " << spec.hacc.num_particles << '\n';
    os << "halos           " << spec.hacc.num_halos << '\n';
  } else {
    os << "grid            " << spec.xrage.dims.x << 'x' << spec.xrage.dims.y
       << 'x' << spec.xrage.dims.z << '\n';
  }
  os << "timesteps       " << spec.timesteps << '\n';
  os << "algorithm       " << insitu::to_string(spec.viz.algorithm) << '\n';
  os << "sampling        " << spec.viz.sampling_ratio << " ("
     << to_string(spec.viz.sampling_mode) << ")\n";
  os << "images          " << spec.viz.images_per_timestep << " @ "
     << spec.viz.image_width << 'x' << spec.viz.image_height << '\n';
  os << "coupling        " << cluster::to_string(spec.layout.coupling) << '\n';
  if (spec.layout.coupling == cluster::Coupling::kAsync)
    os << "pipeline_depth  " << spec.resolved_pipeline_depth()
       << (spec.pipeline_depth > 0 ? "" : " (resolved)") << '\n';
  os << "nodes           " << spec.layout.nodes << '\n';
  os << "ranks           " << spec.layout.ranks << '\n';
  if (spec.layout.coupling == cluster::Coupling::kInternode)
    os << "viz_nodes       " << spec.layout.viz_node_count() << '\n';
  if (spec.transport_quantization_bits > 0)
    os << "quantization    " << spec.transport_quantization_bits << " bits\n";
  if (spec.resolved_transport_codec() != insitu::WireCodec::kNone)
    os << "transport_codec " << insitu::to_string(spec.resolved_transport_codec())
       << (spec.transport_codec.empty() ? " (resolved)" : "") << '\n';
  os << "data_scale      " << spec.data_scale << '\n';
  os << "pixel_scale     " << spec.pixel_scale << '\n';
  if (spec.fault.any()) {
    os << strprintf("fault           seed=%llu bit_flip=%g truncate=%g "
                    "recv_timeout=%g delay=%g delay_ms=%g\n",
                    static_cast<unsigned long long>(spec.fault.seed),
                    spec.fault.p_bit_flip, spec.fault.p_truncate,
                    spec.fault.p_recv_timeout, spec.fault.p_delay,
                    spec.fault.delay_ms);
    os << "retry_attempts  " << spec.transfer_retry.max_attempts << '\n';
  }
  if (spec.use_disk_proxy) os << "proxy_dir       " << spec.proxy_dir << '\n';
  if (!spec.artifact_dir.empty())
    os << "artifact_dir    " << spec.artifact_dir << '\n';
  return os.str();
}

} // namespace eth
