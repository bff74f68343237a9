#pragma once
// ExperimentSpec / RunResult: the ETH public API surface.
//
// An experiment is one point in the paper's design space: an
// application workload (what data), a visualization configuration
// (which algorithm, how many images, what sampling), a job layout
// (which coupling, how many nodes) and a machine. Harness::run executes
// it and reports the paper's four metrics — performance, power, energy,
// scalability inputs — plus image artifacts for quality (RMSE) studies.

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "cluster/job.hpp"
#include "cluster/machine.hpp"
#include "cluster/timeline.hpp"
#include "core/model.hpp"
#include "data/image.hpp"
#include "insitu/fault.hpp"
#include "insitu/viz.hpp"
#include "sim/hacc_generator.hpp"
#include "sim/xrage_generator.hpp"

namespace eth {

enum class Application { kHacc, kXrage };

const char* to_string(Application app);

struct ExperimentSpec {
  std::string name = "experiment";
  Application application = Application::kHacc;

  /// Workload parameters; the one matching `application` is used.
  sim::HaccParams hacc;
  sim::XrageParams xrage;

  /// Timesteps processed by the in-situ loop.
  Index timesteps = 1;

  /// Reproduction scale factors: the ratio between the PAPER's workload
  /// and the one actually executed here. The utilization model sees
  /// item counts multiplied by these, so node-saturation effects
  /// (Finding 4) appear at the paper's scale even though the kernels
  /// run scaled-down data. data_scale applies to element-derived item
  /// counts (particles/cells), pixel_scale to ray/pixel-derived ones.
  /// 1.0 = model the workload at its executed size.
  double data_scale = 1.0;
  double pixel_scale = 1.0;

  insitu::VizConfig viz;
  cluster::JobLayout layout;
  cluster::MachineSpec machine = cluster::MachineSpec::hikari();

  /// Lossy transport compression: quantize the sim->viz payload to
  /// this many bits per value before the coupling hand-off (0 = off).
  /// Applies to intercore/internode coupling; the transported byte
  /// count and the reconstruction loss both show up in the metrics.
  int transport_quantization_bits = 0;

  /// Lossless wire compression for the coupling hand-off (DESIGN.md
  /// §15): "" (the default) resolves from ETH_WIRE_CODEC, falling back
  /// to "none"; "none" and "lz4" pin the codec explicitly. Composes
  /// with quantization (the quantized payload is what gets framed).
  /// Decompressed payloads are bit-identical, so images and the fault/
  /// retry robustness counts do not depend on the codec; what does is
  /// the wire accounting — bytes_on_wire, compress_cpu_seconds, and
  /// the data-plane copy/borrow split (a compressed frame decodes into
  /// an owned buffer instead of borrowing the wire frame zero-copy).
  std::string transport_codec;

  /// The wire codec Harness::run will actually use: `transport_codec`
  /// when set, else ETH_WIRE_CODEC, else none.
  insitu::WireCodec resolved_transport_codec() const;

  /// Timestep pipeline depth for `coupling async` (DESIGN.md §13): the
  /// number of timesteps allowed in flight at once — 1 runs the serial
  /// loop, 2 double-buffers (the sim proxy produces t+1 while the viz
  /// proxy renders t). 0 (the default) resolves from ETH_PIPELINE_DEPTH,
  /// falling back to 1. Ignored by the synchronous couplings. Images,
  /// counters and robustness tables are bit-identical at every depth;
  /// only the modelled makespan/power/energy change.
  int pipeline_depth = 0;

  /// The depth Harness::run will actually use: `pipeline_depth` when
  /// set, else ETH_PIPELINE_DEPTH, else 1.
  int resolved_pipeline_depth() const;

  /// Seeded transport fault injection (DESIGN.md §8). All-zero
  /// probabilities (the default) run the coupling unperturbed; any
  /// non-zero probability wraps the coupling channel in a FaultInjector
  /// whose schedule is a pure function of `fault.seed`, so two runs of
  /// the same spec see identical faults and identical robustness
  /// counters.
  insitu::FaultConfig fault;

  /// Delivery retry budget for the coupling hand-off: a frame whose
  /// transfer still fails after this many attempts is dropped (the
  /// timestep is skipped on every rank) and counted in
  /// RunResult::robustness rather than crashing the run.
  insitu::RetryPolicy transfer_retry;

  /// Route datasets through the on-disk dump/proxy cycle (Figure 3's
  /// faithful path) instead of generating in memory. Slower; used by
  /// integration tests and examples.
  bool use_disk_proxy = false;
  std::string proxy_dir = "/tmp/eth_proxy";

  /// Optional: write the composited image of every (timestep, image)
  /// as PPM files into this directory.
  std::string artifact_dir;

  /// Throws eth::Error on inconsistent configuration.
  void validate() const;
};

/// Human-readable dump of the FULLY RESOLVED spec — every field after
/// defaulting and environment resolution (pipeline depth included), in
/// a stable key-per-line format. `eth_explore --dry-run` prints this
/// instead of running.
std::string spec_summary(const ExperimentSpec& spec);

struct RunResult {
  // ----- the paper's metrics (modelled machine)
  Seconds exec_seconds = 0;          ///< Performance (§V-C)
  Watts average_power = 0;           ///< Power
  Watts average_dynamic_power = 0;   ///< Fig 9b's quantity
  Joules energy = 0;                 ///< Energy
  Joules dynamic_energy = 0;
  std::vector<cluster::PowerSample> power_trace; ///< the 5 s meter

  // ----- provenance
  double measured_cpu_seconds = 0;   ///< raw host-side kernel time
  cluster::PerfCounters counters;    ///< aggregated over all ranks
  Bytes bytes_transferred = 0;       ///< sim->viz payload (all ranks/steps)

  /// Per-rank phase accounting for the invariant test (DESIGN.md §13):
  /// rank_phase_cpu[r] maps phase name -> cpu seconds exactly as the
  /// rank reported them, and rank_cpu_total[r] is the rank's whole-body
  /// KernelTimer (thread CPU + borrowed pool-worker chunks + async
  /// stage workers). Summing rank_phase_cpu reproduces
  /// measured_cpu_seconds term for term, and each rank's phase sum is
  /// bounded by its rank_cpu_total — so a refactor cannot silently
  /// drop or double-count a phase.
  std::vector<std::map<std::string, double>> rank_phase_cpu;
  std::vector<double> rank_cpu_total;

  // ----- robustness (frames sent/retried/dropped/corrupt across all
  // ranks and timesteps; deterministic for a fixed fault seed)
  insitu::RobustnessReport robustness;
  Index timesteps_dropped = 0; ///< timesteps skipped after transfer loss

  // ----- modelled timeline
  /// The per-node phase times the timeline was composed from
  /// (core::reduce_reports of this run's rank reports).
  core::NodePhaseTimes phase_times;
  /// Labeled busy spans of the modelled cluster (model.generate /
  /// model.viz / model.composite / ...). The tracer maps these onto
  /// "model node" tracks next to the measured wall spans (DESIGN.md
  /// §11), and tests cross-check the two.
  std::vector<cluster::BusySpan> busy_spans;

  // ----- artifacts
  /// Final composited image (last timestep, last camera) for quality
  /// metrics.
  std::optional<ImageBuffer> final_image;
};

} // namespace eth
