#pragma once
// The benchmark's workloads and its correctness digests.
//
// A workload is an eth_explore configuration, so it runs the same
// parse -> sweep path a user's config does, with one sweep worker. The
// benchmark writes its input seed into the generator and sampling seeds
// of the expanded points (the fault schedule stays the workload's own);
// the program sees only the resulting specs.

#include <cstdint>
#include <string>
#include <vector>

#include "core/sweep.hpp"

namespace perfbench {

struct Workload {
  std::string name;
  std::vector<eth::SweepPoint> points;
};

/// Expand workload `name` for `seed`. Proxy dumps and PPM artifacts go
/// under `work_dir`. Throws eth::Error for an unknown name.
Workload make_workload(const std::string& name, std::uint64_t seed,
                       const std::string& work_dir);

/// One line per point: the hash of the final composited image, the hash
/// of every PPM the point wrote, and the deterministic robustness and
/// data-plane columns. Cache counters are left out: they are allowed to
/// differ between cache-on and cache-off runs.
std::string point_digest(const eth::SweepPoint& point, const eth::RunResult& result);

/// Content hash of an image's colour and depth planes (0 for no image).
std::uint64_t image_hash(const eth::ImageBuffer* image);

/// Reference file: one point_digest line per point, in sweep order.
std::vector<std::string> read_reference(const std::string& path);
void write_reference(const std::string& path, const std::vector<std::string>& lines);

} // namespace perfbench
