#pragma once
// The measured-compute -> modelled-machine mapping (DESIGN.md §4.1).
//
// The harness runs M "measurement ranks", each executing the REAL
// kernels on the data share one modelled node would hold (1/sim_nodes
// of the data for the simulation side, 1/viz_nodes for the
// visualization side). Each rank reports per-phase CPU seconds and the
// parallelism each phase had available. This module composes those
// per-node measurements into a cluster::Timeline under the requested
// coupling strategy, yielding makespan, power trace and energy.
//
// Phase vocabulary: "generate" (sim proxy produces/loads data),
// "sample", "extract", "build", "render" (the viz side), "composite"
// and "write" (the root's image merge + artifact output).

#include <map>
#include <string>
#include <vector>

#include "cluster/counters.hpp"
#include "cluster/interconnect.hpp"
#include "cluster/job.hpp"
#include "cluster/timeline.hpp"

namespace eth::core {

/// One phase's measurement on one rank.
struct PhaseSample {
  double cpu_seconds = 0;    ///< host single-thread CPU time
  Index parallel_items = 0;  ///< data-parallel extent of the phase
};

/// Everything one measurement rank reports.
struct RankReport {
  std::map<std::string, PhaseSample> phases;
  Bytes dataset_bytes = 0;  ///< this node's sim->viz payload per timestep
  Bytes image_bytes = 0;    ///< one partial image (color+depth)
  cluster::PerfCounters counters;
};

/// Model knobs that are not MachineSpec hardware constants.
struct ModelOptions {
  /// Extra working-set/cache interference multiplier on visualization
  /// compute when sim and viz are merged into one process (tight
  /// coupling). 0 disables; DESIGN.md §4 marks this for ablation.
  double tight_interference = 0.12;

  /// Utilization of a node during a shared-memory hand-off (a memcpy
  /// does not keep 24 cores busy).
  double copy_utilization = 0.15;

  /// Data-parallel items one core needs per phase to stay saturated
  /// (drives Finding 4's power drop under sampling). Calibrated so the
  /// paper's HACC arithmetic holds at PAPER workload scale (item counts
  /// are fed in pre-multiplied by ExperimentSpec::data_scale /
  /// pixel_scale): 1 B particles / 400 nodes / 24 cores = 104 k per
  /// core -> saturated; sampling 0.25 -> 26 k per core -> ~0.65
  /// utilization, reproducing the ~39 % dynamic-power drop.
  Index saturation_items_per_core = 40'000;

  /// Filesystem write bandwidth for the root's artifact output.
  double write_bandwidth_bytes_per_s = 1.0e9;

  /// Composite with serial direct-send gather instead of binary swap
  /// (ablation knob; see compose_timeline).
  bool direct_send_composite = false;
};

/// Per-node phase times after mapping rank measurements onto the
/// modelled node (max over ranks = the SPMD critical path).
struct NodePhaseTimes {
  Seconds generate = 0;
  Seconds viz_compute = 0;   ///< sample + extract + build + render
  double viz_utilization = 1.0;
  double generate_utilization = 1.0;
  Seconds root_composite = 0; ///< scaled to the modelled node count
  Seconds root_write = 0;
  Bytes dataset_bytes = 0;   ///< max per-node payload
  Bytes image_bytes = 0;
};

/// Reduce rank reports to modelled per-node phase times. Compositing is
/// modelled as binary swap: each participating node blends ~2 full
/// images' worth of pixels regardless of node count, so the rank
/// measurements of "composite" (rank 0's merges of the other
/// (ranks - 1) partials' active rectangles) are rescaled to 2 merges.
NodePhaseTimes reduce_reports(const std::vector<RankReport>& reports,
                              const cluster::MachineSpec& machine,
                              const ModelOptions& options);

/// Compose the timeline for `timesteps` iterations of the in-situ loop
/// under `layout`'s coupling strategy.
///
/// `direct_send_composite` selects the image-combination network model:
/// binary swap (false — the optimized raycasting stack's compositor) or
/// serial direct-send gather to the root (true — the plain VTK
/// geometry path, whose gather link serializes across senders; this is
/// the "contention in a shared resource" behind the paper's Finding 7
/// degradation of VTK at high node counts). Under either model each
/// merge costs at least a dense full-frame merge at a fixed per-pixel
/// estimate, since the executed sparse exchange can measure less.
///
/// `pipeline_depth` only affects `Coupling::kAsync` (DESIGN.md §13):
/// the sim proxy may run up to `depth` timesteps ahead of the viz
/// proxy, so generate spans overlap viz/composite/write spans on the
/// same nodes (the Timeline adds concurrent utilizations, capped at
/// full). Depth 1 degenerates to the intercore sequence exactly.
cluster::Timeline compose_timeline(const NodePhaseTimes& times,
                                   const cluster::JobLayout& layout,
                                   const cluster::MachineSpec& machine,
                                   const ModelOptions& options, Index timesteps,
                                   Index images_per_timestep,
                                   bool direct_send_composite = false,
                                   Index pipeline_depth = 1);

} // namespace eth::core
