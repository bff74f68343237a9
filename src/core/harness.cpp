#include "core/harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <numeric>
#include <cstdlib>
#include <filesystem>

#include "common/buffer.hpp"
#include "common/error.hpp"
#include "common/fingerprint.hpp"
#include "common/run_counters.hpp"
#include "common/string_util.hpp"
#include "common/timer.hpp"
#include "common/trace.hpp"
#include "core/artifact_cache.hpp"
#include "data/compression.hpp"
#include "data/point_set.hpp"
#include "data/serialize.hpp"
#include "data/structured_grid.hpp"
#include "insitu/transport.hpp"
#include "parallel/minimpi.hpp"
#include "parallel/pipeline.hpp"
#include "parallel/thread_pool.hpp"
#include "render/compositor.hpp"
#include "sim/dump.hpp"

namespace eth {

namespace {

/// Representative modelled-node index for measurement rank `r` of `M`
/// when the workload is split into `P` shares: spread evenly.
int share_index(int r, int M, int P) {
  return static_cast<int>(static_cast<long>(r) * P / M);
}

Index dataset_elements(const DataSet& ds) {
  if (ds.kind() == DataSetKind::kStructuredGrid)
    return static_cast<const StructuredGrid&>(ds).num_cells();
  return ds.num_points();
}

/// Parallel items of the render phase, per algorithm (drives modelled
/// node utilization; see model.hpp).
Index render_items(const insitu::VizConfig& viz, Index working_elements,
                   Index primitives_per_image) {
  switch (viz.algorithm) {
    case insitu::VizAlgorithm::kRaycastSpheres:
    case insitu::VizAlgorithm::kRaycastVolume:
    case insitu::VizAlgorithm::kRaycastDvr:
      return viz.image_width * viz.image_height;
    case insitu::VizAlgorithm::kVtkGeometry:
      return primitives_per_image;
    case insitu::VizAlgorithm::kGaussianSplat:
    case insitu::VizAlgorithm::kVtkPoints:
      return working_elements;
  }
  return working_elements;
}

// -------- sweep-wide memoization helpers (DESIGN.md §10) ------------

/// Content fingerprint of everything that determines the simulated
/// data, independent of the spec's display `name`: generator family,
/// physics parameters and seed. Sweep points that only vary viz/layout
/// parameters therefore share one data identity.
std::uint64_t app_fingerprint(const ExperimentSpec& spec) {
  Fingerprinter fp;
  if (spec.application == Application::kHacc) {
    fp.update_string("hacc");
    fp.update_u64(static_cast<std::uint64_t>(spec.hacc.num_particles));
    fp.update_u64(static_cast<std::uint64_t>(spec.hacc.num_halos));
    fp.update_f64(spec.hacc.background_fraction);
    fp.update_f32(static_cast<float>(spec.hacc.box_size));
    fp.update_f32(static_cast<float>(spec.hacc.halo_scale_radius));
    fp.update_u64(spec.hacc.seed);
  } else {
    fp.update_string("xrage");
    fp.update_u64(static_cast<std::uint64_t>(spec.xrage.dims.x));
    fp.update_u64(static_cast<std::uint64_t>(spec.xrage.dims.y));
    fp.update_u64(static_cast<std::uint64_t>(spec.xrage.dims.z));
    fp.update_f32(static_cast<float>(spec.xrage.domain_size));
    fp.update_u64(spec.xrage.seed);
  }
  return fp.digest();
}

/// Provenance fingerprint of share `share` of `parts` at `timestep`.
/// produce_share is pure (and extract_hacc_slab matches
/// generate_hacc_rank bit-for-bit), so this identifies the share's
/// CONTENT whether it was synthesized in memory or read from a dump.
std::uint64_t share_fingerprint(std::uint64_t app_fp, int share, int parts,
                                Index timestep) {
  return fingerprint_chain(app_fp,
                           strprintf("share %d/%d t=%lld", share, parts,
                                     static_cast<long long>(timestep)));
}

/// Content-addressed dump case name: sweep points with identical
/// generator parameters resolve to the same on-disk files regardless
/// of their sweep labels, so the preliminary dump runs once per sweep.
std::string cas_dump_case(std::uint64_t app_fp, int M, int parts) {
  return strprintf("cas%016llx",
                   static_cast<unsigned long long>(fingerprint_chain(
                       app_fp, strprintf("dump M=%d P=%d", M, parts))));
}

/// Cache key and factory of one rank's share: a load of its dump (disk
/// proxy) or an in-memory synthesis. The factory's measured cost and
/// data-plane bytes are recorded with the artifact; the caller replays
/// them on hit and miss alike so phase times and byte totals do not
/// depend on the cache. Demand loads and the read-ahead share this one
/// factory. It holds `spec` by reference: run() joins every read-ahead
/// before returning.
struct ShareArtifact {
  ArtifactKey key;
  ArtifactCache::Factory factory;
};

ShareArtifact share_artifact(const ExperimentSpec& spec, std::uint64_t app_fp,
                             const std::string& case_name, int share, int parts,
                             Index t, int r) {
  const bool from_disk = spec.use_disk_proxy;
  const std::uint64_t file_fp = share_fingerprint(app_fp, share, parts, t);
  return {{file_fp, from_disk ? "proxy.load" : "produce_share"},
          [&spec, case_name, share, parts, t, r, from_disk, file_fp]() -> CacheArtifact {
            // KernelTimer: xRAGE synthesis fans its rows out over the
            // pool, and the rank is charged for worker-executed rows.
            KernelTimer timer;
            DataPlaneCapture capture;
            const std::shared_ptr<const DataSet> ds =
                from_disk ? sim::SimulationProxy(spec.proxy_dir, case_name).load(t, r)
                          : Harness::produce_share(spec, share, parts, t);
            cluster::PerfCounters recorded;
            recorded.phases.add("generate", timer.elapsed());
            recorded.bytes_copied = capture.taken().bytes_copied;
            recorded.bytes_borrowed = capture.taken().bytes_borrowed;
            return CacheArtifact{ds, static_cast<std::size_t>(ds->byte_size()),
                                 std::move(recorded), file_fp};
          }};
}

/// Load (or synthesize) rank r's share of `parts` through the artifact
/// cache. In-memory HACC shares are filtered views of one particle
/// stream per timestep (sim::generate_hacc_shares), so they resolve one
/// entry per (data, timestep, parts, ranks) holding every rank's slab:
/// the first rank to ask runs the pass, the others wait and alias their
/// slab. With the cache off, each rank runs the pass and keeps its slab.
CacheLookup cached_share(ArtifactCache& cache, const ExperimentSpec& spec,
                         std::uint64_t app_fp, const std::string& case_name, int parts,
                         Index t, int r, int M) {
  const int share = share_index(r, M, parts);
  if (spec.application != Application::kHacc || spec.use_disk_proxy) {
    const ShareArtifact artifact =
        share_artifact(spec, app_fp, case_name, share, parts, t, r);
    return cache.get_or_compute(artifact.key, artifact.factory);
  }
  using Slabs = std::vector<std::shared_ptr<const PointSet>>;
  const std::uint64_t pass_fp = fingerprint_chain(
      app_fp, strprintf("hacc pass P=%d M=%d t=%lld", parts, M, static_cast<long long>(t)));
  const CacheLookup pass =
      cache.get_or_compute({pass_fp, "generate_hacc_shares"}, [&]() -> CacheArtifact {
        KernelTimer timer;
        sim::HaccParams params = spec.hacc;
        params.timestep = t;
        std::vector<int> shares;
        for (int rank = 0; rank < M; ++rank) shares.push_back(share_index(rank, M, parts));
        auto slabs =
            std::make_shared<Slabs>(sim::generate_hacc_shares(params, shares, parts));
        // The pass draws the whole simulation's stream, which `parts`
        // modelled nodes would share, so a share pays 1/parts of it
        // whichever shares the pass made.
        cluster::PerfCounters recorded;
        recorded.phases.add("generate", timer.elapsed() / parts);
        // Ranks with one share alias one slab; shares ascend with the
        // rank, so those ranks are adjacent.
        std::size_t bytes = 0;
        for (std::size_t k = 0; k < slabs->size(); ++k)
          if (k == 0 || (*slabs)[k] != (*slabs)[k - 1]) bytes += (*slabs)[k]->byte_size();
        return CacheArtifact{std::move(slabs), bytes, std::move(recorded), pass_fp};
      });
  return {pass.as<Slabs>()->at(static_cast<std::size_t>(r)), pass.recorded,
          share_fingerprint(app_fp, share, parts, t), pass.hit};
}

/// One file of the preliminary dump: rank r's share of `parts`.
struct DumpFile {
  const sim::DumpWriter* writer;
  int r;
  int share;
  int parts;
  std::string path;
  std::uint64_t fp; ///< share_fingerprint of its content
};

/// The datasets of `files` at timestep `t`. Particle slabs are filtered
/// views of one stream, so the timestep is generated once and sliced per
/// file; grid blocks are built once each, and a block inside a larger
/// one is cut from it (sim::generate_xrage_blocks).
std::vector<std::unique_ptr<DataSet>> dump_datasets(const ExperimentSpec& spec,
                                                    const std::vector<DumpFile>& files,
                                                    Index t) {
  std::vector<std::unique_ptr<DataSet>> out;
  if (spec.application == Application::kHacc) {
    const std::unique_ptr<DataSet> full = Harness::produce_share(spec, 0, 1, t);
    for (const DumpFile& file : files)
      out.push_back(std::make_unique<PointSet>(sim::extract_hacc_slab(
          static_cast<const PointSet&>(*full), spec.hacc.box_size, file.share, file.parts)));
    return out;
  }
  sim::XrageParams params = spec.xrage;
  params.timestep = t;
  std::vector<std::pair<Vec3i, Vec3i>> ranges;
  for (const DumpFile& file : files)
    ranges.push_back(sim::grid_block_range(params.dims, file.share, file.parts));
  for (std::unique_ptr<StructuredGrid>& block : sim::generate_xrage_blocks(params, ranges))
    out.push_back(std::move(block));
  return out;
}

/// What one rank's sim -> viz hand-off did, as the couple memo records
/// it. A lossless delivery is the consumed share bit for bit, so only a
/// quantized record keeps the delivered dataset.
struct CoupleRecord {
  bool delivered = false;
  Bytes bytes_sent = 0;
  insitu::RobustnessReport robustness;
  std::shared_ptr<const DataSet> decoded; ///< quantized deliveries only
};

/// Everything a hand-off's outcome depends on besides the share's
/// content: rank r's injector endpoint ids and the message indices they
/// start from (every hand-off opens a fresh channel, so both start at
/// 0), the codec, the quantization bits, the fault spec and the retry
/// policy.
std::string couple_signature(const ExperimentSpec& spec, insitu::WireCodec codec, int r) {
  const insitu::FaultConfig& f = spec.fault;
  return strprintf("couple ids=%d,%d msg=0,0 codec=%s bits=%d fault=%llu,%a,%a,%a,%a,%a,%a "
                   "retry=%d,%a",
                   2 * r, 2 * r + 1, insitu::to_string(codec),
                   spec.transport_quantization_bits,
                   static_cast<unsigned long long>(f.seed), f.p_connect_refused,
                   f.p_recv_timeout, f.p_truncate, f.p_bit_flip, f.p_delay, f.delay_ms,
                   spec.transfer_retry.max_attempts,
                   spec.transfer_retry.recv_deadline_seconds);
}

/// Minor page faults the whole process has taken so far.
long process_minor_faults() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_minflt;
}

} // namespace

AABB Harness::global_bounds(const ExperimentSpec& spec) {
  if (spec.application == Application::kHacc) {
    const Real s = spec.hacc.box_size;
    return AABB::of({0, 0, 0}, {s, s, s});
  }
  const Real spacing = spec.xrage.domain_size / Real(spec.xrage.dims.x - 1);
  return AABB::of({0, 0, 0}, {spacing * Real(spec.xrage.dims.x - 1),
                              spacing * Real(spec.xrage.dims.y - 1),
                              spacing * Real(spec.xrage.dims.z - 1)});
}

Camera Harness::global_camera(const ExperimentSpec& spec) {
  return Camera::framing(global_bounds(spec), normalize(Vec3f{-0.55f, -0.4f, -0.73f}));
}

std::unique_ptr<DataSet> Harness::produce_share(const ExperimentSpec& spec, int share,
                                                int parts, Index timestep) {
  if (spec.application == Application::kHacc) {
    sim::HaccParams params = spec.hacc;
    params.timestep = timestep;
    return sim::generate_hacc_rank(params, share, parts);
  }
  sim::XrageParams params = spec.xrage;
  params.timestep = timestep;
  if (parts == 1) return sim::generate_xrage(params);
  const auto [lo, hi] = sim::grid_block_range(params.dims, share, parts);
  return sim::generate_xrage_block(params, lo, hi);
}

ImageBuffer Harness::render_reference(const ExperimentSpec& spec) {
  const std::unique_ptr<DataSet> data = produce_share(spec, 0, 1, 0);
  insitu::VizConfig cfg = spec.viz;
  cfg.images_per_timestep = 1;
  insitu::VizRankOutput out = insitu::run_viz_rank(*data, cfg, global_camera(spec));
  return std::move(out.images.front());
}

RunResult Harness::run(const ExperimentSpec& spec, const RunContext& ctx) const {
  spec.validate();
  const long minor_faults_at_entry = process_minor_faults();
  const int M = spec.layout.ranks;
  const int P_sim = spec.layout.sim_nodes();
  const int P_viz = spec.layout.viz_node_count();
  const bool internode = spec.layout.coupling == cluster::Coupling::kInternode;
  // Resolve the wire codec once per run (spec field > ETH_WIRE_CODEC >
  // none) so every rank/timestep frames with the same codec.
  const insitu::WireCodec wire_codec = spec.resolved_transport_codec();
  const Camera base_camera = global_camera(spec);

  if (!spec.artifact_dir.empty())
    std::filesystem::create_directories(spec.artifact_dir);

  // Sweep-wide memoization (DESIGN.md §10): proxy loads, hand-offs,
  // filter outputs and acceleration structures resolve through the
  // artifact cache. With ETH_CACHE_BYTES=0 every lookup computes through, and
  // the run takes the same path otherwise.
  ArtifactCache& cache = global_artifact_cache();
  const std::uint64_t app_fp = app_fingerprint(spec);

  // Per-run attribution (common/run_counters.hpp): every rank body of
  // THIS run installs a scope pointing at this sink, so the data-plane
  // and cache-lookup traffic it tallies is exactly this run's — even
  // when other harness runs execute concurrently. The old scheme
  // (snapshot process-wide counters before/after and take the delta)
  // silently attributed concurrent runs' traffic to each other.
  RunCounterSink run_sink;

  // Figure 3's "preliminary run of the simulation": when the disk proxy
  // is active, the instrumented-simulation dump happens up front and is
  // NOT part of the measured in-situ loop; only the proxy's read is.
  // Dump files are content-addressed — named by the generator
  // fingerprint instead of the sweep label — and a file whose
  // provenance the registry proves on disk is not rewritten.
  const std::string sim_case = cas_dump_case(app_fp, M, P_sim);
  const std::string viz_case = cas_dump_case(app_fp, M, P_viz);
  const bool redistribute = internode && P_sim != P_viz;
  if (spec.use_disk_proxy) {
    // Concurrent runs with identical generator parameters resolve to
    // the SAME content-addressed dump files; two writers racing on one
    // path would tear it (the registry reads "missing" in both before
    // either finishes). One process-wide mutex serializes the whole
    // preliminary phase — it is explicitly outside the measured loop,
    // so serializing it costs wall clock only, never measurement.
    static std::mutex dump_phase_mutex;
    const std::lock_guard<std::mutex> dump_lock(dump_phase_mutex);
    const trace::TrackScope track_scope(ctx.trace_track_base);
    const trace::Span span("sim.dump");
    const sim::DumpWriter sim_writer(spec.proxy_dir, sim_case);
    const sim::DumpWriter viz_writer(spec.proxy_dir, viz_case);
    for (Index t = 0; t < spec.timesteps; ++t) {
      // This timestep's files the registry cannot prove on disk.
      std::vector<DumpFile> missing;
      const auto want = [&](const sim::DumpWriter& writer, int parts, int r) {
        std::string path = sim::dump_path(writer.dir(), writer.case_name(), t, r);
        const int share = share_index(r, M, parts);
        const std::uint64_t fp = share_fingerprint(app_fp, share, parts, t);
        if (cache.lookup_dump(path).value_or(0) == fp && std::filesystem::exists(path))
          return;
        missing.push_back({&writer, r, share, parts, std::move(path), fp});
      };
      for (int r = 0; r < M; ++r) {
        want(sim_writer, P_sim, r);
        if (redistribute) want(viz_writer, P_viz, r);
      }
      if (missing.empty()) continue;
      const std::vector<std::unique_ptr<DataSet>> datasets = dump_datasets(spec, missing, t);
      // The files go out in parallel; a file is registered only once its
      // write has returned, and the first failed write is rethrown here.
      TaskGroup writes;
      for (std::size_t i = 0; i < missing.size(); ++i)
        writes.launch(global_pool(), [&, i] {
          const DumpFile& file = missing[i];
          file.writer->write(*datasets[i], t, file.r);
          cache.register_dump(file.path, file.fp);
        });
      writes.wait();
    }
  }

  std::vector<core::RankReport> reports(static_cast<std::size_t>(M));
  std::vector<double> rank_totals(static_cast<std::size_t>(M), 0.0);
  ImageBuffer final_image;
  Bytes transferred_total = 0;
  insitu::RobustnessReport robustness_total;
  Index timesteps_dropped_total = 0;
  std::mutex harness_mutex;

  // Joins THIS run's read-ahead tasks — and only them. The pool is
  // shared with every concurrent harness run, so a global
  // pool.wait_idle() here would block on (or deadlock behind)
  // unrelated work.
  TaskGroup prefetch_group;

  // Staged pipeline engine (DESIGN.md §13): each rank's timestep loop
  // is a five-stage graph — produce, couple, viz, composite, write.
  // The synchronous couplings (and `coupling async` at depth 1) run
  // every stage inline in strict (timestep, stage) order: byte for
  // byte the historical serial loop. `coupling async` at depth >= 2
  // runs produce and couple on per-rank worker threads so the sim
  // proxy builds timestep t+1 while the viz proxy renders t; the
  // viz/composite/write tail stays on the rank thread because those
  // stages run minimpi collectives, which every rank must issue in one
  // identical order.
  const bool async_coupling = spec.layout.coupling == cluster::Coupling::kAsync;
  const bool tight = spec.layout.coupling == cluster::Coupling::kTight;
  const int pipeline_depth = async_coupling ? spec.resolved_pipeline_depth() : 1;
  // Opaque pipelines merge partials by depth (order-independent); the
  // DVR pipeline's premultiplied partials must blend in view order.
  const bool ordered_alpha = spec.viz.algorithm == insitu::VizAlgorithm::kRaycastDvr;
  const PartialBlend blend =
      ordered_alpha ? PartialBlend::kPremultiplied : PartialBlend::kDepth;

  mpi::run_world(M, [&](mpi::Comm& comm) {
    const int r = comm.rank();
    // Every span this rank (and any pool worker executing its chunks)
    // emits lands on the rank's trace track, namespaced per sweep
    // point; the data-plane/cache traffic it generates lands on this
    // run's sink the same way. (Ownership split of the byte tallies is
    // a pure function of the spec — which hand-off paths execute — so
    // it is deterministic across thread counts and repeat runs.)
    const trace::TrackScope track_scope(ctx.trace_track_base + r);
    const RunSinkScope sink_scope(&run_sink);
    // Whole-body CPU of the rank thread (plus pool chunks borrowed by
    // it); stage-worker CPU folds in below. Together these bound the
    // per-phase accounting (RunResult::rank_cpu_total).
    KernelTimer rank_timer;
    double stage_worker_cpu = 0;
    std::mutex stage_worker_cpu_mutex;
    core::RankReport report;
    Bytes rank_transferred = 0;
    insitu::RobustnessReport rank_robustness;

    // Per-timestep state travelling between stages. Slot t % depth is
    // free by the time timestep t starts: the pipeline's in-flight
    // limiter admits at most `depth` timesteps at once. Measurements
    // land in the slot (stages may run on worker threads) and are
    // folded into the rank report by the viz stage in timestep order.
    struct TimestepSlot {
      std::shared_ptr<const DataSet> sim_data;
      std::shared_ptr<const DataSet> viz_data;
      std::uint64_t data_fp = 0; ///< provenance of the share viz consumes
      std::uint64_t viz_fp = 0;  ///< provenance of what the viz consumed
      double generate_cpu = 0;
      Index generate_items = 0;
      Bytes replay_copied = 0;   ///< cache-replayed data-plane bytes
      Bytes replay_borrowed = 0;
      Bytes replay_on_wire = 0;  ///< cache-replayed wire bytes and codec CPU
      double replay_codec_cpu = 0;
      double transfer_cpu = 0;
      Bytes transferred = 0;
      insitu::RobustnessReport robustness;
      std::vector<ImageBuffer> partials; ///< rank 0: its partials, the merge targets
      std::vector<std::vector<std::uint8_t>> packed; ///< ranks 1..M-1: packed partials
      std::vector<std::size_t> view_order;
      std::vector<ImageBuffer> merged; ///< rank 0: composited images
      bool delivered = false;
    };
    std::vector<TimestepSlot> slots(static_cast<std::size_t>(pipeline_depth));
    const auto slot_for = [&](Index t) -> TimestepSlot& {
      return slots[static_cast<std::size_t>(t % pipeline_depth)];
    };

    // Resolve this rank's share of `parts` through the artifact cache
    // (with the cache on, each (timestep, rank) dump is read at most
    // once per sweep) and charge the recorded first-load cost, on hit
    // and miss alike.
    const auto take_share = [&](TimestepSlot& slot, const std::string& case_name,
                                int parts, Index t) {
      const trace::Span span("sim.load");
      const CacheLookup lookup = cached_share(cache, spec, app_fp, case_name, parts, t, r, M);
      slot.sim_data = lookup.as<DataSet>();
      slot.data_fp = lookup.content_fp;
      slot.generate_cpu += lookup.recorded.phases.get("generate");
      slot.replay_copied += lookup.recorded.bytes_copied;
      slot.replay_borrowed += lookup.recorded.bytes_borrowed;
    };

    // ---- stage "produce": the simulation proxy produces this modelled
    // node's share: a disk read of the preliminary dump ("reads the
    // simulation data into memory and presents it ... as if by the
    // simulation itself"), or an in-memory synthesis when no proxy dir
    // is used.
    const auto produce_stage = [&](Index t) {
      TimestepSlot& slot = slot_for(t);
      slot = TimestepSlot{};
      take_share(slot, sim_case, P_sim, t);
      // Read-ahead: warm the NEXT timestep's share on the pool while
      // this one renders. The task may outlive this iteration but not
      // run(), which joins the group before returning.
      if (spec.use_disk_proxy && t + 1 < spec.timesteps) {
        prefetch_group.launch(global_pool(), [&cache,
                                             next = share_artifact(
                                                 spec, app_fp, sim_case,
                                                 share_index(r, M, P_sim), P_sim,
                                                 t + 1, r)]() {
          try {
            cache.prefetch(next.key, next.factory);
          } catch (...) {
            // Pool tasks must not throw; a failed read-ahead only
            // means the demand path pays the load itself.
          }
        });
      }
      slot.generate_items =
          Index(double(dataset_elements(*slot.sim_data)) * spec.data_scale);
    };

    // ---- stage "couple": the sim -> viz hand-off. Tight coupling
    // moves the buffers; the process-separated couplings (intercore,
    // internode, async) run the real serialize -> copy -> deserialize
    // cycle through the in-proc channel (optionally quantized: the
    // paper's compression technique as an in-situ parameter), with the
    // channel ends wrapped in FaultInjectors when fault injection is
    // active: a frame still failing after the retry budget is dropped —
    // counted, never fatal. Rank-local by construction (no
    // collectives), so it may run on a stage worker; the ALL-ranks drop
    // decision happens at the head of the viz stage.
    const auto couple_stage = [&](Index t) {
      TimestepSlot& slot = slot_for(t);
      if (tight) {
        // Merged process: the visualization consumes the simulation's
        // buffers directly.
        slot.viz_data = std::move(slot.sim_data);
        slot.viz_fp = slot.data_fp;
        slot.delivered = true;
        return;
      }
      // Internode redistributes sim shares (1/P_sim each) into viz
      // shares (1/P_viz each); the modelled exchange is charged by
      // the interconnect model, and here the receiving side
      // materializes its share directly.
      if (redistribute) take_share(slot, viz_case, P_viz, t);
      const int bits = spec.transport_quantization_bits;
      std::shared_ptr<const DataSet> shared = std::move(slot.sim_data);
      // The lossless round trip is bit-exact: same content identity.
      // Quantization is lossy: the delivered content is a pure function
      // of (input, bit width), so chain the provenance.
      slot.viz_fp = bits > 0 && slot.data_fp != 0
                        ? fingerprint_chain(slot.data_fp,
                                            strprintf("quantized bits=%d", bits))
                        : slot.data_fp;
      // The hand-off is a pure function of the share and the couple
      // signature, so it runs once per sweep (DESIGN.md §10). Its
      // transfer CPU, robustness counts and data-plane and wire bytes
      // are recorded with it and replayed on hit and miss alike.
      std::shared_ptr<const DataSet> fresh; ///< set when this call ran the hand-off
      const CacheLookup lookup = memoize(
          &cache, {slot.data_fp, couple_signature(spec, wire_codec, r)},
          [&]() -> CacheArtifact {
            ThreadCpuTimer xfer_timer;
            DataPlaneCapture capture;
            RunCounterSink wire;
            const RunSinkScope wire_scope(&wire);
            auto [sim_end, viz_end] = insitu::make_inproc_channel();
            if (spec.fault.any()) {
              sim_end = std::make_unique<insitu::FaultInjector>(
                  std::move(sim_end), spec.fault, std::uint64_t(2 * r));
              viz_end = std::make_unique<insitu::FaultInjector>(
                  std::move(viz_end), spec.fault, std::uint64_t(2 * r + 1));
            }
            // One hand-off for both payload kinds. Lossless: the wire
            // message borrows the dataset's bulk arrays (kept alive by
            // the shared_ptr keepalive) and the delivered message's
            // segments back the received dataset copy-on-write, so the
            // payload crosses the channel without a userspace memcpy.
            // Quantized: the packed lossy payload travels as one owned
            // segment, and the frame decoder delivers it as one segment
            // again (a stored frame's payload slice, or the decompressed
            // buffer of an lz4 frame).
            const WireMessage msg = [&] {
              const trace::Span span("serialize");
              if (bits == 0) return wire_message_for_dataset(shared);
              WireMessage packed;
              packed.append_owned(Buffer::adopt(compress_dataset(*shared, bits)));
              return packed;
            }();
            auto record = std::make_shared<CoupleRecord>();
            const auto delivered =
                insitu::transfer_with_retry(*sim_end, *viz_end, msg, spec.transfer_retry,
                                            record->robustness, wire_codec);
            if (delivered.has_value()) {
              const trace::Span span("deserialize");
              fresh = bits == 0 ? deserialize_dataset(*delivered)
                                : decompress_dataset(delivered->contiguous_bytes());
              record->delivered = true;
              if (bits > 0) record->decoded = fresh;
            }
            record->bytes_sent = sim_end->bytes_sent();
            cluster::PerfCounters recorded;
            recorded.phases.add("transfer", xfer_timer.elapsed());
            recorded.bytes_copied = capture.taken().bytes_copied;
            recorded.bytes_borrowed = capture.taken().bytes_borrowed;
            recorded.bytes_on_wire = wire.bytes_on_wire.load(std::memory_order_relaxed);
            recorded.compress_cpu_seconds =
                wire.compress_cpu_seconds.load(std::memory_order_relaxed);
            const std::size_t bytes =
                sizeof(CoupleRecord) +
                (record->decoded ? static_cast<std::size_t>(record->decoded->byte_size()) : 0);
            return CacheArtifact{std::move(record), bytes, std::move(recorded), slot.viz_fp};
          });
      const CoupleRecord& record = *lookup.as<CoupleRecord>();
      // A hit hands the viz the share itself (lossless) or the recorded
      // decoded share (quantized); a miss consumes what it delivered.
      if (record.delivered) slot.viz_data = fresh ? fresh : bits == 0 ? shared : record.decoded;
      slot.transfer_cpu += lookup.recorded.phases.get("transfer");
      slot.transferred = record.bytes_sent;
      slot.robustness.merge(record.robustness);
      slot.replay_copied += lookup.recorded.bytes_copied;
      slot.replay_borrowed += lookup.recorded.bytes_borrowed;
      slot.replay_on_wire += lookup.recorded.bytes_on_wire;
      slot.replay_codec_cpu += lookup.recorded.compress_cpu_seconds;
    };

    // ---- stage "viz": first collective-bearing stage, always on the
    // rank thread in timestep order. Folds the produce/couple slot
    // measurements into the rank report, settles the all-ranks drop
    // decision, then runs the visualization proxy. All ranks must color
    // on the same scale for partial images to composite, so the active
    // scalar's range is allreduced across ranks first (unless the spec
    // pinned one explicitly).
    const auto viz_stage = [&](Index t) {
      TimestepSlot& slot = slot_for(t);
      auto& gen_phase = report.phases["generate"];
      gen_phase.cpu_seconds += slot.generate_cpu;
      gen_phase.parallel_items =
          std::max(gen_phase.parallel_items, slot.generate_items);
      report.counters.bytes_copied += slot.replay_copied;
      report.counters.bytes_borrowed += slot.replay_borrowed;
      report.counters.bytes_on_wire += slot.replay_on_wire;
      report.counters.compress_cpu_seconds += slot.replay_codec_cpu;
      if (!tight) {
        // CPU cost lands in the "transfer" phase (informational) and
        // the byte count feeds the interconnect model.
        report.phases["transfer"].cpu_seconds += slot.transfer_cpu;
        rank_transferred += slot.transferred;
        report.dataset_bytes =
            std::max(report.dataset_bytes, Bytes(slot.transferred));
        rank_robustness.merge(slot.robustness);

        // Degrade gracefully and stay collective-consistent: if ANY
        // rank lost this timestep's frame, every rank skips the
        // timestep together (the viz/composite path below runs
        // collectives, so a lone rank cannot drop out on its own).
        slot.delivered =
            comm.allreduce_scalar(slot.viz_data != nullptr ? 1.0 : 0.0,
                                  mpi::ReduceOp::kMin) > 0.5;
        if (!slot.delivered) {
          slot.viz_data.reset();
          if (r == 0) {
            std::lock_guard<std::mutex> lock(harness_mutex);
            ++timesteps_dropped_total;
          }
          return;
        }
      }

      insitu::VizConfig rank_cfg = spec.viz;
      rank_cfg.timestep = t; // drives the per-timestep plane/iso phase
      rank_cfg.artifact_cache = &cache;
      rank_cfg.input_fingerprint = slot.viz_fp;
      if (!rank_cfg.has_explicit_scalar_range()) {
        const std::string& field_name =
            insitu::is_particle_algorithm(rank_cfg.algorithm)
                ? rank_cfg.particle_scalar
                : rank_cfg.volume_field;
        if (!field_name.empty() && slot.viz_data->point_fields().has(field_name)) {
          const auto [lo, hi] =
              slot.viz_data->point_fields().get(field_name).range();
          rank_cfg.scalar_range_lo =
              Real(comm.allreduce_scalar(lo, mpi::ReduceOp::kMin));
          rank_cfg.scalar_range_hi =
              Real(comm.allreduce_scalar(hi, mpi::ReduceOp::kMax));
        }
      }
      // Sparse exchange (DESIGN.md §4.3): ranks 1..M-1 render every image
      // into one frame and pack it as soon as its render timer stops, so
      // only the sparse bytes outlive the image. Rank 0 keeps each frame:
      // it is the merge target. The pack is outside every measured phase.
      ImageBuffer frame;
      const insitu::VizRankOutput viz_out = insitu::run_viz_rank(
          *slot.viz_data, rank_cfg, base_camera, frame, [&](ImageBuffer& image) {
            report.image_bytes = std::max(report.image_bytes, packed_image_bytes(image));
            if (r == 0)
              slot.partials.push_back(std::move(image));
            else
              slot.packed.push_back(pack_partial(image, blend));
          });
      for (const char* phase : {"sample", "extract", "build", "render"}) {
        const double cpu = viz_out.counters.phases.get(phase);
        if (cpu <= 0) continue;
        auto& phase_slot = report.phases[phase];
        phase_slot.cpu_seconds += cpu;
      }
      // Item counts enter the utilization model at PAPER scale.
      const auto data_items = [&](Index items) {
        return Index(double(items) * spec.data_scale);
      };
      report.phases["sample"].parallel_items = data_items(viz_out.input_elements);
      report.phases["extract"].parallel_items = data_items(viz_out.working_elements);
      report.phases["build"].parallel_items = data_items(viz_out.working_elements);
      const Index prims_per_image =
          viz_out.counters.primitives_emitted /
          std::max<Index>(1, spec.viz.images_per_timestep);
      const bool pixel_bound =
          spec.viz.algorithm == insitu::VizAlgorithm::kRaycastSpheres ||
          spec.viz.algorithm == insitu::VizAlgorithm::kRaycastVolume ||
          spec.viz.algorithm == insitu::VizAlgorithm::kRaycastDvr;
      const Index raw_render_items =
          render_items(spec.viz, viz_out.working_elements, prims_per_image);
      report.phases["render"].parallel_items =
          pixel_bound ? Index(double(raw_render_items) * spec.pixel_scale)
                      : data_items(raw_render_items);
      report.counters.merge(viz_out.counters);
    };

    // ---- stage "composite": each image merges at rank 0 over minimpi
    // (collectives — rank thread, timestep order). For the DVR blend,
    // ranks first share their partition's eye distance.
    const auto composite_stage = [&](Index t) {
      TimestepSlot& slot = slot_for(t);
      if (!slot.delivered) return;
      if (ordered_alpha) {
        const double my_dist =
            double(length(slot.viz_data->bounds().center() - base_camera.eye()));
        const auto dist_bytes = comm.gather(
            std::span<const std::uint8_t>(
                reinterpret_cast<const std::uint8_t*>(&my_dist), sizeof my_dist),
            0);
        if (r == 0) {
          std::vector<double> dists(static_cast<std::size_t>(M));
          for (int src = 0; src < M; ++src)
            std::memcpy(&dists[static_cast<std::size_t>(src)],
                        dist_bytes[static_cast<std::size_t>(src)].data(),
                        sizeof(double));
          slot.view_order.resize(static_cast<std::size_t>(M));
          std::iota(slot.view_order.begin(), slot.view_order.end(),
                    std::size_t(0));
          // Equal view distances (symmetric partitions) tie-break on
          // rank so the blend order — and therefore the composited
          // image — never depends on the sort implementation.
          std::sort(slot.view_order.begin(), slot.view_order.end(),
                    [&](std::size_t a, std::size_t b) {
                      return dists[a] != dists[b] ? dists[a] < dists[b] : a < b;
                    });
        }
      }

      // Every rank but 0 sends the active rectangle the viz stage packed;
      // rank 0 sends nothing and merges the received buffers into its own
      // partial in place. The model still charges the dense partial
      // (`image_bytes`).
      const auto images = static_cast<std::size_t>(spec.viz.images_per_timestep);
      for (std::size_t img = 0; img < images; ++img) {
        const std::vector<std::uint8_t> packed =
            r != 0 ? std::move(slot.packed[img]) : std::vector<std::uint8_t>{};
        report.counters.bytes_communicated += packed.size();
        const auto gathered = [&] {
          const trace::Span span("composite.gather");
          return comm.gather(packed, 0);
        }();
        if (r != 0) continue;

        // KernelTimer: the compositors fan out over the thread pool, and
        // rank 0 must be charged for the worker-executed pixel chunks.
        KernelTimer comp_timer;
        const auto received = std::span(gathered).subspan(1);
        ImageBuffer& image = slot.partials[img];
        ImageBuffer merged;
        if (ordered_alpha) {
          merged = alpha_composite_partials(image, received, slot.view_order,
                                            report.counters);
        } else {
          depth_composite_partials(image, received, report.counters);
          merged = std::move(image);
        }
        auto& comp_phase = report.phases["composite"];
        comp_phase.cpu_seconds += comp_timer.elapsed();
        comp_phase.parallel_items =
            Index(double(merged.num_pixels()) * spec.pixel_scale);
        slot.merged.push_back(std::move(merged));
      }
    };

    // ---- stage "write": artifact output + final-image capture, then
    // the slot's payloads release (freeing its in-flight token is the
    // pipeline's job). Only rank 0 holds composited images.
    const auto write_stage = [&](Index t) {
      TimestepSlot& slot = slot_for(t);
      for (std::size_t img = 0; img < slot.merged.size(); ++img) {
        ImageBuffer& merged = slot.merged[img];
        if (!spec.artifact_dir.empty()) {
          const trace::Span span("write");
          ThreadCpuTimer write_timer;
          merged.write_ppm(spec.artifact_dir + "/" + spec.name +
                           strprintf("_t%03lld_i%03zu.ppm", static_cast<long long>(t),
                                     img));
          report.phases["write"].cpu_seconds += write_timer.elapsed();
        }
        if (t == spec.timesteps - 1 && img + 1 == slot.merged.size()) {
          std::lock_guard<std::mutex> lock(harness_mutex);
          final_image = std::move(merged);
        }
      }
      slot.viz_data.reset();
      slot.partials.clear();
      slot.packed.clear();
      slot.merged.clear();
    };

    StagePipeline::Options pipe_options;
    pipe_options.depth = pipeline_depth;
    // produce + couple are rank-local (no collectives) — only they may
    // leave the rank thread. Depth 1 keeps everything inline.
    pipe_options.async_stages = pipeline_depth > 1 ? 2 : 0;
    pipe_options.worker_wrap = [&](const std::function<void()>& loop) {
      // Stage workers attribute exactly like the rank thread they
      // serve: same trace track, same run sink; their CPU (plus pool
      // chunks they borrowed) folds into the rank total.
      const trace::TrackScope worker_track(ctx.trace_track_base + r);
      const RunSinkScope worker_sink(&run_sink);
      KernelTimer worker_timer;
      loop();
      const double cpu = worker_timer.elapsed();
      std::lock_guard<std::mutex> lock(stage_worker_cpu_mutex);
      stage_worker_cpu += cpu;
    };
    StagePipeline pipeline({{"produce", produce_stage},
                            {"couple", couple_stage},
                            {"viz", viz_stage},
                            {"composite", composite_stage},
                            {"write", write_stage}},
                           pipe_options);
    pipeline.run(spec.timesteps);

    {
      std::lock_guard<std::mutex> lock(harness_mutex);
      reports[static_cast<std::size_t>(r)] = std::move(report);
      transferred_total += rank_transferred;
      robustness_total.merge(rank_robustness);
      rank_totals[static_cast<std::size_t>(r)] =
          rank_timer.elapsed() + stage_worker_cpu;
    }
  });

  // Join THIS run's in-flight read-ahead before accounting (and before
  // callers delete proxy directories out from under a late prefetch).
  prefetch_group.wait();

  // ---- aggregate measurements and map onto the modelled machine.
  RunResult result;
  result.counters.bytes_copied += run_sink.bytes_copied.load(std::memory_order_relaxed);
  result.counters.bytes_borrowed += run_sink.bytes_borrowed.load(std::memory_order_relaxed);
  result.counters.bytes_on_wire += run_sink.bytes_on_wire.load(std::memory_order_relaxed);
  result.counters.compress_cpu_seconds +=
      run_sink.compress_cpu_seconds.load(std::memory_order_relaxed);
  result.robustness = robustness_total;
  result.timesteps_dropped = timesteps_dropped_total;
  for (const core::RankReport& report : reports) {
    result.counters.merge(report.counters);
    std::map<std::string, double>& phase_cpu = result.rank_phase_cpu.emplace_back();
    for (const auto& [name, sample] : report.phases) {
      phase_cpu[name] = sample.cpu_seconds;
      result.measured_cpu_seconds += sample.cpu_seconds;
    }
  }
  result.rank_cpu_total = rank_totals;
  // Memoization counters: this run's own lookups (teed into the run
  // sink by the cache) plus the shared cache's resident footprint when
  // the run ended (observational — the ONLY counters allowed to differ
  // between cache-on and cache-off runs).
  const CacheStats cache_stats_after = cache.stats();
  result.counters.cache_hits +=
      run_sink.cache_hits.load(std::memory_order_relaxed);
  result.counters.cache_misses +=
      run_sink.cache_misses.load(std::memory_order_relaxed);
  result.counters.prefetch_hits +=
      run_sink.prefetch_hits.load(std::memory_order_relaxed);
  result.counters.cache_bytes =
      std::max(result.counters.cache_bytes, cache_stats_after.bytes_resident);
  // Scale per-rank transfer volume to the full modelled node count.
  result.bytes_transferred =
      transferred_total / static_cast<Bytes>(std::max(1, M)) *
      static_cast<Bytes>(internode ? P_viz : spec.layout.nodes);

  result.phase_times = core::reduce_reports(reports, spec.machine, options_);
  const core::NodePhaseTimes& times = result.phase_times;
  if (std::getenv("ETH_MODEL_DEBUG") != nullptr) {
    std::fprintf(stderr,
                 "[eth model] %s: gen=%.4fs(u=%.2f) viz=%.4fs(u=%.2f) "
                 "comp=%.4fs write=%.4fs data=%s image=%s\n",
                 spec.name.c_str(), times.generate, times.generate_utilization,
                 times.viz_compute, times.viz_utilization, times.root_composite,
                 times.root_write, format_bytes(times.dataset_bytes).c_str(),
                 format_bytes(times.image_bytes).c_str());
  }
  const cluster::Timeline timeline =
      core::compose_timeline(times, spec.layout, spec.machine, options_,
                             spec.timesteps, spec.viz.images_per_timestep,
                             options_.direct_send_composite, pipeline_depth);
  const cluster::RunPowerReport power = timeline.report();
  result.busy_spans = timeline.spans();

  // Observability (DESIGN.md §11): sample this run's data-plane and
  // cache counters (cache-replayed bytes included) and the minor page
  // faults the process took during the run as trace counters, and
  // project the modelled BusySpans onto "model node" tracks
  // (modelled seconds scaled to trace nanoseconds) so the simulated
  // timeline sits next to the measured wall spans in one Perfetto view.
  if (trace::enabled()) {
    trace::counter("bytes_copied", double(result.counters.bytes_copied));
    trace::counter("bytes_borrowed", double(result.counters.bytes_borrowed));
    trace::counter("bytes_on_wire", double(result.counters.bytes_on_wire));
    trace::counter("cache_bytes", double(cache_stats_after.bytes_resident));
    trace::counter("minor_faults",
                   double(process_minor_faults() - minor_faults_at_entry));
    for (const cluster::BusySpan& span : result.busy_spans)
      trace::emit_span_at(span.label,
                          trace::kModelTrackBase + ctx.trace_track_base +
                              span.first_node,
                          std::int64_t(span.start * 1e9),
                          std::int64_t(span.duration() * 1e9));
  }

  result.exec_seconds = power.makespan;
  result.average_power = power.average_power;
  result.average_dynamic_power = power.average_dynamic_power;
  result.energy = power.energy;
  result.dynamic_energy = power.dynamic_energy;
  result.power_trace = power.trace;
  if (final_image.num_pixels() > 0) result.final_image = std::move(final_image);
  return result;
}

ResultTable robustness_table(const RunResult& result) {
  ResultTable table({"frames_sent", "frames_delivered", "frames_retried",
                     "frames_dropped", "frames_corrupt", "frames_timed_out",
                     "timesteps_dropped", "bytes_copied", "bytes_borrowed",
                     "bytes_on_wire", "cache_hits", "cache_misses",
                     "cache_bytes", "prefetch_hits"});
  table.begin_row();
  table.add_cell(result.robustness.frames_sent);
  table.add_cell(result.robustness.frames_delivered);
  table.add_cell(result.robustness.frames_retried);
  table.add_cell(result.robustness.frames_dropped);
  table.add_cell(result.robustness.frames_corrupt);
  table.add_cell(result.robustness.frames_timed_out);
  table.add_cell(result.timesteps_dropped);
  table.add_cell(Index(result.counters.bytes_copied));
  table.add_cell(Index(result.counters.bytes_borrowed));
  table.add_cell(Index(result.counters.bytes_on_wire));
  table.add_cell(result.counters.cache_hits);
  table.add_cell(result.counters.cache_misses);
  table.add_cell(Index(result.counters.cache_bytes));
  table.add_cell(result.counters.prefetch_hits);
  return table;
}

} // namespace eth
