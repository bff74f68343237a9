#pragma once
// On-disk dataset format, playing the role of legacy-VTK files in the
// paper's workflow: "a preliminary run of the simulation ... writes data
// out as if for simple post-processing", and the simulation proxy later
// "reads the simulation data into memory".
//
// Format: a short self-describing ASCII header (so files are greppable
// on a login node, like legacy VTK), followed by the little-endian
// binary payload produced by data/serialize.hpp.
//
//   # eth DataFile v1
//   kind PointSet
//   bytes <payload-size>
//   <binary payload>

#include <memory>
#include <string>

#include "data/dataset.hpp"

namespace eth {

/// Write `ds` to `path`. Throws eth::Error on IO failure.
void write_dataset(const DataSet& ds, const std::string& path);

/// Read any dataset written by write_dataset.
std::unique_ptr<DataSet> read_dataset(const std::string& path);

} // namespace eth
