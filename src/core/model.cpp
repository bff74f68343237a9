#include "core/model.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "cluster/power.hpp"

namespace eth::core {

namespace {

/// Sum of cpu seconds over the viz-side phases of a report.
constexpr const char* kVizPhases[] = {"sample", "extract", "build", "render"};

PhaseSample get_phase(const RankReport& report, const std::string& name) {
  const auto it = report.phases.find(name);
  return it != report.phases.end() ? it->second : PhaseSample{};
}

/// Host CPU seconds per pixel of one dense merge (depth test +
/// conditional copy): the least a modelled full-frame merge costs.
constexpr double kMergeSecondsPerPixel = 2e-9;

/// Pixels of one partial, from its dense exchange size (20 B/pixel).
double image_pixels(Bytes image_bytes) {
  return double(image_bytes) / double(sizeof(float) * 5);
}

} // namespace

NodePhaseTimes reduce_reports(const std::vector<RankReport>& reports,
                              const cluster::MachineSpec& machine,
                              const ModelOptions& options) {
  require(!reports.empty(), "reduce_reports: no rank reports");

  NodePhaseTimes out;
  double composite_cpu = 0;

  // Utilizations are cpu-weighted means across ALL ranks and phases:
  // every allocated node draws power, not just the critical-path one.
  double gen_util_weighted = 0, gen_time_sum = 0;
  double viz_util_weighted = 0, viz_time_sum = 0;

  for (const RankReport& report : reports) {
    // --- simulation side
    const PhaseSample gen = get_phase(report, "generate");
    const double u_gen = cluster::utilization_for_items(
        machine, gen.parallel_items, options.saturation_items_per_core);
    const Seconds t_gen = cluster::node_compute_time(machine, gen.cpu_seconds);
    out.generate = std::max(out.generate, t_gen);
    gen_util_weighted += u_gen * t_gen;
    gen_time_sum += t_gen;

    // --- visualization side
    Seconds viz_node_time = 0;
    for (const char* phase : kVizPhases) {
      const PhaseSample s = get_phase(report, phase);
      if (s.cpu_seconds <= 0) continue;
      const double u = cluster::utilization_for_items(machine, s.parallel_items,
                                                      options.saturation_items_per_core);
      const Seconds t = cluster::node_compute_time(machine, s.cpu_seconds);
      viz_node_time += t;
      viz_util_weighted += u * t;
      viz_time_sum += t;
    }
    out.viz_compute = std::max(out.viz_compute, viz_node_time);

    const PhaseSample comp = get_phase(report, "composite");
    composite_cpu = std::max(composite_cpu, comp.cpu_seconds);

    out.dataset_bytes = std::max(out.dataset_bytes, report.dataset_bytes);
    out.image_bytes = std::max(out.image_bytes, report.image_bytes);
  }
  out.generate_utilization = gen_time_sum > 0 ? gen_util_weighted / gen_time_sum : 1.0;
  out.viz_utilization = viz_time_sum > 0 ? viz_util_weighted / viz_time_sum : 1.0;

  // Binary-swap compositing: every node blends ~2 full images' worth of
  // pixels regardless of node count. The rank measurement covers rank
  // 0's merges of the other (ranks - 1) partials' active rectangles
  // (the sparse exchange of DESIGN.md §4.3); rescale those merges to 2.
  // With a single measurement rank nothing is measured, and
  // compose_timeline's dense floor prices the merges alone.
  const int measured_merges = static_cast<int>(reports.size()) - 1;
  const double modelled_merges = 2.0;
  const double composite_cpu_scaled =
      measured_merges > 0 ? composite_cpu * modelled_merges / double(measured_merges) : 0.0;
  out.root_composite = cluster::node_compute_time(machine, composite_cpu_scaled);
  // The artifact on disk is the 3-bytes-per-pixel image, not the
  // 20-bytes-per-pixel packed color+depth exchange format.
  out.root_write =
      double(out.image_bytes) * (3.0 / 20.0) / options.write_bandwidth_bytes_per_s;
  return out;
}

cluster::Timeline compose_timeline(const NodePhaseTimes& times,
                                   const cluster::JobLayout& layout,
                                   const cluster::MachineSpec& machine,
                                   const ModelOptions& options, Index timesteps,
                                   Index images_per_timestep,
                                   bool direct_send_composite,
                                   Index pipeline_depth) {
  layout.validate();
  require(timesteps > 0, "compose_timeline: need at least one timestep");
  require(pipeline_depth >= 1, "compose_timeline: pipeline_depth must be >= 1");
  cluster::Timeline timeline(machine, layout.nodes);
  const cluster::InterconnectModel net(machine);

  // Per-timestep quantities (reports hold run totals).
  const double steps = double(timesteps);
  const Seconds gen = times.generate / steps;
  Seconds viz = times.viz_compute / steps;
  const int viz_nodes = layout.viz_node_count();
  // root_composite is normalized to binary swap's ~2 merges per node;
  // direct send (the paper-era VTK gather) makes the root alone perform
  // all (viz_nodes - 1) merges. Both model merges of full frames, but
  // the executed exchange is sparse (rank 0 merges only active
  // rectangles, DESIGN.md §4.3), so a measured merge can cost less than
  // a full-frame one, and less at higher node counts, where each rank
  // draws less. Charge each merge at least the dense per-pixel
  // estimate, as the network terms charge the dense image_bytes.
  const Seconds dense_merge =
      cluster::node_compute_time(
          machine, image_pixels(times.image_bytes) * kMergeSecondsPerPixel) *
      double(images_per_timestep);
  const double merges =
      direct_send_composite ? double(std::max(1, viz_nodes - 1)) : 2.0;
  const Seconds comp = std::max(times.root_composite / steps / 2.0, dense_merge) * merges;
  const Seconds write = times.root_write * double(images_per_timestep);
  // Image-combination network time, every image of the timestep:
  // binary swap for the optimized path, or a direct-send gather whose
  // root link serializes over all senders.
  const Seconds swap =
      (direct_send_composite
           ? net.incast_time(times.image_bytes, std::max(0, viz_nodes - 1))
           : net.binary_swap_time(times.image_bytes, viz_nodes)) *
      double(images_per_timestep);

  switch (layout.coupling) {
    case cluster::Coupling::kTight:
      viz *= 1.0 + options.tight_interference;
      [[fallthrough]];
    case cluster::Coupling::kIntercore: {
      const bool intercore = layout.coupling == cluster::Coupling::kIntercore;
      const Seconds copy = intercore ? net.shm_copy_time(times.dataset_bytes) : 0.0;
      Seconds t = 0;
      for (Index step = 0; step < timesteps; ++step) {
        timeline.add_full_span(t, t + gen, times.generate_utilization,
                               "model.generate");
        t += gen;
        if (copy > 0) {
          timeline.add_full_span(t, t + copy, options.copy_utilization,
                                 "model.copy");
          t += copy;
        }
        timeline.add_full_span(t, t + viz, times.viz_utilization, "model.viz");
        t += viz;
        // Compositing: binary swap blends on every node concurrently;
        // direct send blends on the root alone while the others wait.
        // The exchange itself is network-bound (no busy span).
        if (direct_send_composite)
          timeline.add_span(
              cluster::BusySpan{t, t + comp, 0, 1, 1.0, "model.composite"});
        else
          timeline.add_full_span(t, t + comp, 1.0, "model.composite");
        t += comp + swap;
        timeline.add_span(
            cluster::BusySpan{t, t + write, 0, 1, 1.0, "model.write"});
        t += write;
      }
      break;
    }
    case cluster::Coupling::kAsync: {
      // Time-shared like intercore — separate sim and viz processes on
      // the SAME nodes, with a shared-memory hand-off — but software-
      // pipelined (DESIGN.md §13): the sim proxy may run up to
      // `pipeline_depth` timesteps ahead of the viz chain, bounded by
      // the harness's in-flight limiter. Overlapping generate and viz
      // spans land on the same nodes; the Timeline adds their
      // utilizations (capped at full occupancy), which is where the
      // async coupling's power/energy picture differs from intercore's.
      //
      // Recurrence: step s's generate may start once the previous
      // generate finished AND step s - depth has fully drained (its
      // write completed — that is when the in-flight token frees).
      // Depth 1 therefore reproduces the intercore sequence exactly:
      // every generate waits for the previous step's write.
      const Seconds copy = net.shm_copy_time(times.dataset_bytes);
      std::vector<Seconds> drained(static_cast<std::size_t>(timesteps), 0);
      Seconds sim_free = 0;
      Seconds viz_free = 0;
      for (Index step = 0; step < timesteps; ++step) {
        Seconds sim_start = sim_free;
        if (step >= pipeline_depth)
          sim_start = std::max(
              sim_start, drained[static_cast<std::size_t>(step - pipeline_depth)]);
        const Seconds sim_end = sim_start + gen;
        timeline.add_full_span(sim_start, sim_end, times.generate_utilization,
                               "model.generate");
        // The producer side also performs the hand-off copy before
        // starting the next generate.
        Seconds data_ready = sim_end;
        if (copy > 0) {
          timeline.add_full_span(sim_end, sim_end + copy,
                                 options.copy_utilization, "model.copy");
          data_ready += copy;
        }
        sim_free = data_ready;

        const Seconds viz_start = std::max(viz_free, data_ready);
        const Seconds viz_end = viz_start + viz;
        timeline.add_full_span(viz_start, viz_end, times.viz_utilization,
                               "model.viz");
        if (direct_send_composite)
          timeline.add_span(cluster::BusySpan{viz_end, viz_end + comp, 0, 1, 1.0,
                                              "model.composite"});
        else
          timeline.add_full_span(viz_end, viz_end + comp, 1.0, "model.composite");
        const Seconds write_start = viz_end + comp + swap;
        timeline.add_span(cluster::BusySpan{write_start, write_start + write, 0,
                                            1, 1.0, "model.write"});
        viz_free = write_start + write;
        drained[static_cast<std::size_t>(step)] = viz_free;
      }
      break;
    }
    case cluster::Coupling::kInternode: {
      // Space-shared, software-pipelined: the simulation partition
      // produces timestep s while the visualization partition renders
      // timestep s-1.
      const int sim_nodes = layout.sim_nodes();
      const int viz_first = layout.viz_first_node();
      const Seconds xfer =
          net.pairwise_exchange_time(times.dataset_bytes, std::min(sim_nodes, viz_nodes));
      Seconds sim_free = 0;
      Seconds viz_free = 0;
      Seconds end = 0;
      for (Index step = 0; step < timesteps; ++step) {
        const Seconds sim_start = sim_free;
        const Seconds sim_end = sim_start + gen;
        timeline.add_span(cluster::BusySpan{sim_start, sim_end, 0, sim_nodes,
                                            times.generate_utilization,
                                            "model.generate"});
        sim_free = sim_end; // double-buffered: next step can start

        const Seconds data_ready = sim_end + xfer;
        const Seconds viz_start = std::max(viz_free, data_ready);
        const Seconds viz_end = viz_start + viz;
        timeline.add_span(cluster::BusySpan{viz_start, viz_end, viz_first,
                                            layout.nodes, times.viz_utilization,
                                            "model.viz"});
        // Composite inside the viz partition, then the partition's
        // first node writes the artifact.
        timeline.add_span(cluster::BusySpan{
            viz_end, viz_end + comp, viz_first,
            direct_send_composite ? viz_first + 1 : layout.nodes, 1.0,
            "model.composite"});
        const Seconds comp_end = viz_end + comp + swap + write;
        timeline.add_span(cluster::BusySpan{comp_end - write, comp_end, viz_first,
                                            viz_first + 1, 1.0, "model.write"});
        viz_free = comp_end;
        end = comp_end;
      }
      (void)end;
      break;
    }
  }
  return timeline;
}

} // namespace eth::core
