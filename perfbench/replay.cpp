#include "replay.hpp"

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <limits>
#include <numeric>

#include "common/string_util.hpp"
#include "common/timer.hpp"
#include "common/trace.hpp"
#include "core/harness.hpp"
#include "data/compression.hpp"
#include "data/point_set.hpp"
#include "data/serialize.hpp"
#include "insitu/fault.hpp"
#include "insitu/transport.hpp"
#include "parallel/minimpi.hpp"
#include "render/compositor.hpp"
#include "sim/dump.hpp"

namespace perfbench {

using namespace eth;

namespace {

/// Every span the replay opens; each becomes `<name>_ms` and `<name>_calls`.
constexpr const char* kSpanNames[] = {
    "sim.produce",      "sim.dump_write",  "sim.dump_load",    "data.serialize",
    "data.deserialize", "data.write_ppm",  "insitu.transfer",  "insitu.viz",
    "render.pack",      "render.composite", "parallel.gather",
};

/// Harness::run's representative share of measurement rank r of M.
int share_index(int r, int M, int P) {
  return static_cast<int>(static_cast<long>(r) * P / M);
}

/// Routes the pool-parallel kernels to `pool` for the guard's lifetime.
class PoolOverride {
public:
  explicit PoolOverride(ThreadPool* pool) { set_global_pool(pool); }
  ~PoolOverride() { set_global_pool(nullptr); }
  PoolOverride(const PoolOverride&) = delete;
  PoolOverride& operator=(const PoolOverride&) = delete;
};

} // namespace

Replayer::Replayer(std::string artifact_dir) : artifact_dir_(std::move(artifact_dir)) {}

std::shared_ptr<const DataSet> Replayer::couple(const ExperimentSpec& spec,
                                                std::shared_ptr<const DataSet> data,
                                                int rank) {
  const RunSinkScope sink_scope(&couple_sink_);
  const insitu::WireCodec codec = spec.resolved_transport_codec();
  auto [tx, rx] = insitu::make_inproc_channel();
  if (spec.fault.any()) {
    tx = std::make_unique<insitu::FaultInjector>(std::move(tx), spec.fault,
                                                 std::uint64_t(2 * rank));
    rx = std::make_unique<insitu::FaultInjector>(std::move(rx), spec.fault,
                                                 std::uint64_t(2 * rank + 1));
  }
  insitu::RobustnessReport report;
  std::shared_ptr<const DataSet> out;
  std::size_t payload_bytes = 0;
  if (spec.transport_quantization_bits > 0) {
    const std::vector<std::uint8_t> payload = [&] {
      const trace::Span span("data.serialize");
      return compress_dataset(*data, spec.transport_quantization_bits);
    }();
    payload_bytes = payload.size();
    const auto delivered = [&] {
      const trace::Span span("insitu.transfer");
      return insitu::transfer_with_retry(*tx, *rx, payload, spec.transfer_retry, report,
                                         codec);
    }();
    if (delivered.has_value()) {
      const trace::Span span("data.deserialize");
      out = decompress_dataset(*delivered);
    }
  } else {
    const WireMessage msg = [&] {
      const trace::Span span("data.serialize");
      return wire_message_for_dataset(std::move(data));
    }();
    payload_bytes = msg.total_bytes();
    const auto delivered = [&] {
      const trace::Span span("insitu.transfer");
      return insitu::transfer_with_retry(*tx, *rx, msg, spec.transfer_retry, report,
                                         codec);
    }();
    if (delivered.has_value()) {
      const trace::Span span("data.deserialize");
      out = deserialize_dataset(*delivered);
    }
  }
  wire_payload_bytes_ += double(payload_bytes) * double(report.frames_sent);
  frames_sent_ += report.frames_sent;
  frames_retried_ += report.frames_retried;
  return out;
}

std::optional<ImageBuffer> Replayer::replay_point(const ExperimentSpec& spec,
                                                  int point_index) {
  spec.validate();
  const int M = spec.layout.ranks;
  const int P_sim = spec.layout.sim_nodes();
  const int P_viz = spec.layout.viz_node_count();
  const bool internode = spec.layout.coupling == cluster::Coupling::kInternode;
  const bool tight = spec.layout.coupling == cluster::Coupling::kTight;
  const bool redistribute = internode && P_sim != P_viz;
  const Camera base_camera = Harness::global_camera(spec);
  // Cache-off dump names, as Harness::run uses them without the cache.
  const std::string sim_case = spec.name + "_sim";
  const std::string viz_case = spec.name + "_viz";
  const auto track = [&](int share) {
    return trace::TrackScope(point_index * trace::kSweepTrackStride + share);
  };

  // ---- preliminary dump (Figure 3): per timestep, per rank, the sim
  // share and, when internode redistributes, the viz share. A HACC
  // timestep is synthesized once, inside the first write that needs it.
  if (spec.use_disk_proxy) {
    const sim::DumpWriter sim_writer(spec.proxy_dir, sim_case);
    const sim::DumpWriter viz_writer(spec.proxy_dir, viz_case);
    for (Index t = 0; t < spec.timesteps; ++t) {
      std::unique_ptr<DataSet> full;
      const auto write_share = [&](const sim::DumpWriter& writer, int parts, int r) {
        const auto scope = track(r);
        const trace::Span span("sim.dump_write");
        const int share = share_index(r, M, parts);
        if (spec.application == Application::kHacc) {
          if (!full) full = Harness::produce_share(spec, 0, 1, t);
          writer.write(sim::extract_hacc_slab(static_cast<const PointSet&>(*full),
                                              spec.hacc.box_size, share, parts),
                       t, r);
        } else {
          writer.write(*Harness::produce_share(spec, share, parts, t), t, r);
        }
      };
      for (int r = 0; r < M; ++r) {
        write_share(sim_writer, P_sim, r);
        if (redistribute) write_share(viz_writer, P_viz, r);
      }
    }
  }

  const auto load_share = [&](const std::string& case_name, int parts, int r,
                              Index t) -> std::shared_ptr<const DataSet> {
    if (spec.use_disk_proxy) {
      const trace::Span span("sim.dump_load");
      return sim::SimulationProxy(spec.proxy_dir, case_name).load(t, r);
    }
    const trace::Span span("sim.produce");
    return Harness::produce_share(spec, share_index(r, M, parts), parts, t);
  };

  const std::size_t ranks = static_cast<std::size_t>(M);
  std::optional<ImageBuffer> final_image;
  for (Index t = 0; t < spec.timesteps; ++t) {
    // ---- produce + couple, share by share.
    std::vector<std::shared_ptr<const DataSet>> viz_data(ranks);
    for (int r = 0; r < M; ++r) {
      const auto scope = track(r);
      std::shared_ptr<const DataSet> data = load_share(sim_case, P_sim, r, t);
      if (tight) {
        viz_data[static_cast<std::size_t>(r)] = std::move(data);
        continue;
      }
      if (redistribute) data = load_share(viz_case, P_viz, r, t);
      viz_data[static_cast<std::size_t>(r)] = couple(spec, std::move(data), r);
    }
    // A frame lost on any share drops the timestep on every share.
    if (std::any_of(viz_data.begin(), viz_data.end(),
                    [](const auto& d) { return d == nullptr; }))
      continue;

    // ---- viz, with the scalar range the harness allreduces.
    insitu::VizConfig cfg = spec.viz;
    cfg.timestep = t;
    if (!cfg.has_explicit_scalar_range()) {
      const std::string& field = insitu::is_particle_algorithm(cfg.algorithm)
                                     ? cfg.particle_scalar
                                     : cfg.volume_field;
      if (!field.empty() && viz_data[0]->point_fields().has(field)) {
        double lo = std::numeric_limits<double>::infinity();
        double hi = -std::numeric_limits<double>::infinity();
        for (const auto& data : viz_data) {
          const auto [a, b] = data->point_fields().get(field).range();
          lo = std::min(lo, double(a));
          hi = std::max(hi, double(b));
        }
        cfg.scalar_range_lo = Real(lo);
        cfg.scalar_range_hi = Real(hi);
      }
    }
    std::vector<insitu::VizRankOutput> outs(ranks);
    for (int r = 0; r < M; ++r) {
      const auto scope = track(r);
      const DataSet& data = *viz_data[static_cast<std::size_t>(r)];
      {
        const WallTimer wall;
        const trace::Span span("insitu.viz");
        outs[static_cast<std::size_t>(r)] = insitu::run_viz_rank(data, cfg, base_camera);
        viz_wall_ += wall.elapsed();
      }
      viz_counters_.merge(outs[static_cast<std::size_t>(r)].counters);
      // Single-threaded baseline of the same call (not part of any span).
      const PoolOverride single(&single_thread_pool_);
      const WallTimer wall;
      (void)insitu::run_viz_rank(data, cfg, base_camera);
      viz_wall_single_ += wall.elapsed();
    }

    // ---- composite at share 0: DVR blends in view order (ties on
    // rank), the opaque pipelines merge by depth.
    const bool ordered_alpha = spec.viz.algorithm == insitu::VizAlgorithm::kRaycastDvr;
    std::vector<std::size_t> view_order;
    if (ordered_alpha) {
      std::vector<double> dists;
      for (const auto& data : viz_data)
        dists.push_back(double(length(data->bounds().center() - base_camera.eye())));
      view_order.resize(ranks);
      std::iota(view_order.begin(), view_order.end(), std::size_t(0));
      std::sort(view_order.begin(), view_order.end(), [&](std::size_t a, std::size_t b) {
        return dists[a] != dists[b] ? dists[a] < dists[b] : a < b;
      });
    }
    const std::size_t images = outs[0].images.size();
    for (std::size_t img = 0; img < images; ++img) {
      std::vector<std::vector<std::uint8_t>> packed(ranks);
      for (int r = 0; r < M; ++r) {
        const auto scope = track(r);
        const trace::Span span("render.pack");
        auto& bytes = packed[static_cast<std::size_t>(r)];
        bytes = pack_image(outs[static_cast<std::size_t>(r)].images[img]);
        packed_bytes_ += double(bytes.size());
        ++packed_partials_;
      }
      const auto scope = track(0);
      std::vector<std::vector<std::uint8_t>> gathered;
      {
        const trace::Span span("parallel.gather");
        mpi::run_world(M, [&](mpi::Comm& comm) {
          auto at_root = comm.gather(packed[static_cast<std::size_t>(comm.rank())], 0);
          if (comm.rank() == 0) gathered = std::move(at_root);
        });
      }
      std::vector<ImageBuffer> partials;
      partials.reserve(ranks);
      partials.push_back(std::move(outs[0].images[img]));
      {
        const trace::Span span("render.pack");
        for (std::size_t src = 1; src < ranks; ++src)
          partials.push_back(unpack_image(gathered[src]));
      }
      ImageBuffer merged;
      {
        const trace::Span span("render.composite");
        cluster::PerfCounters counters;
        if (ordered_alpha) {
          merged = ImageBuffer(partials[0].width(), partials[0].height());
          merged.clear({0, 0, 0, 0});
          alpha_composite_premultiplied(partials, view_order, merged, counters);
        } else {
          depth_composite_tree(partials, counters);
          merged = std::move(partials[0]);
        }
      }
      // ---- write
      if (!spec.artifact_dir.empty()) {
        const trace::Span span("data.write_ppm");
        std::filesystem::create_directories(artifact_dir_);
        merged.write_ppm(artifact_dir_ + "/" + spec.name +
                         strprintf("_t%03lld_i%03zu.ppm", static_cast<long long>(t), img));
      }
      if (t == spec.timesteps - 1 && img + 1 == images) final_image = std::move(merged);
    }
  }
  return final_image;
}

std::map<std::string, double> Replayer::metrics() const {
  std::map<std::string, double> out;
  for (const char* name : kSpanNames) {
    out[std::string(name) + "_ms"] = 0;
    out[std::string(name) + "_calls"] = 0;
  }
  for (const trace::SummaryRow& row : trace::summary()) {
    if (row.type != trace::EventType::kSpan) continue;
    if (std::none_of(std::begin(kSpanNames), std::end(kSpanNames),
                     [&](const char* name) { return row.name == name; }))
      continue;
    out[row.name + "_ms"] = double(row.total_ns) / 1e6;
    out[row.name + "_calls"] = double(row.count);
  }
  const auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  out["data.bytes_copied"] = double(couple_sink_.bytes_copied.load());
  out["data.bytes_borrowed"] = double(couple_sink_.bytes_borrowed.load());
  out["insitu.codec_cpu_ms"] = couple_sink_.compress_cpu_seconds.load() * 1e3;
  out["insitu.wire_ratio"] =
      ratio(double(couple_sink_.bytes_on_wire.load()), wire_payload_bytes_);
  out["insitu.retry_ratio"] = ratio(double(frames_retried_), double(frames_sent_));
  out["pipeline.sample_cpu_ms"] = viz_counters_.phases.get("sample") * 1e3;
  out["pipeline.extract_cpu_ms"] = viz_counters_.phases.get("extract") * 1e3;
  out["render.build_cpu_ms"] = viz_counters_.phases.get("build") * 1e3;
  out["render.render_cpu_ms"] = viz_counters_.phases.get("render") * 1e3;
  out["render.rays_cast"] = double(viz_counters_.rays_cast);
  out["render.ray_steps"] = double(viz_counters_.ray_steps);
  out["render.bvh_nodes_visited"] = double(viz_counters_.bvh_nodes_visited);
  out["render.primitives"] = double(viz_counters_.primitives_emitted);
  out["render.partial_bytes"] = ratio(packed_bytes_, double(packed_partials_));
  out["parallel.viz_speedup"] = ratio(viz_wall_single_, viz_wall_);
  return out;
}

} // namespace perfbench
