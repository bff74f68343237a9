#pragma once
// Traced replay of a sweep point, layer by layer.
//
// replay_point() calls the same public functions Harness::run composes,
// in the same order and with the same arguments, but one call at a time
// on the calling thread and with the artifact cache off:
//
//   produce    Harness::produce_share, or sim::SimulationProxy::load
//              after the sim::DumpWriter preliminary dump
//   couple     wire_message_for_dataset / compress_dataset,
//              insitu::transfer_with_retry over make_inproc_channel
//              (FaultInjector-wrapped when faulted),
//              deserialize_dataset / decompress_dataset
//   viz        insitu::run_viz_rank (also at one pool thread)
//   composite  pack_image, mpi::run_world + Comm::gather, unpack_image,
//              depth_composite_tree / alpha_composite_premultiplied
//   write      ImageBuffer::write_ppm
//
// Measurement rank r of M consumes share r * P / M, exactly as in the
// harness; the scalar range is the min/max over all shares (the
// harness's allreduce). Each call runs inside an eth::trace span on
// track point * kSweepTrackStride + share, so a span's track names the
// request and nesting names its parent. The returned final image must
// equal Harness::run's for the same spec with the cache off.

#include <map>
#include <optional>
#include <string>

#include "common/run_counters.hpp"
#include "core/experiment.hpp"
#include "parallel/thread_pool.hpp"

namespace perfbench {

class Replayer {
public:
  /// PPMs of workloads with an artifact_dir go to `artifact_dir` instead,
  /// so the replay never overwrites the timed runs' files.
  explicit Replayer(std::string artifact_dir);

  /// Replay one point; returns its final composited image (none when the
  /// last timestep was dropped). Span metrics need eth::trace enabled.
  std::optional<eth::ImageBuffer> replay_point(const eth::ExperimentSpec& spec,
                                               int point_index);

  /// Per-layer totals over every replayed point. Span totals and call
  /// counts come from the trace summary, so call this before resetting
  /// the trace.
  std::map<std::string, double> metrics() const;

private:
  std::shared_ptr<const eth::DataSet> couple(const eth::ExperimentSpec& spec,
                                             std::shared_ptr<const eth::DataSet> data,
                                             int rank);

  std::string artifact_dir_;
  eth::ThreadPool single_thread_pool_{1};
  eth::RunCounterSink couple_sink_; ///< data-plane tallies of the couple calls
  double wire_payload_bytes_ = 0;   ///< serialized payload x send attempts
  eth::Index frames_sent_ = 0;
  eth::Index frames_retried_ = 0;
  double viz_wall_ = 0;             ///< run_viz_rank at the default pool
  double viz_wall_single_ = 0;      ///< run_viz_rank at one pool thread
  double packed_bytes_ = 0;
  eth::Index packed_partials_ = 0;
  eth::cluster::PerfCounters viz_counters_; ///< merged run_viz_rank counters
};

} // namespace perfbench
