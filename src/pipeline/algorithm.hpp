#pragma once
// The ETH pipeline's filters, in the style of VTK's data-centric
// operators ("VTK implements a data-centric pipeline of operators,
// filters and rendering operations that operate on data, then pass it
// along to the next element" — paper §III).
//
// An Algorithm is a stateless filter: its parameters are fixed at
// construction, and run() maps one input dataset to one output. The
// sweep-wide artifact cache (core/artifact_cache.hpp) is the memo. A
// chain passes each run's output and output fingerprint on to the next
// filter's run.

#include <cstdint>
#include <memory>
#include <string>

#include "cluster/counters.hpp"
#include "core/artifact_cache.hpp"
#include "data/dataset.hpp"

namespace eth {

class Algorithm {
public:
  virtual ~Algorithm() = default;

  Algorithm(const Algorithm&) = delete;
  Algorithm& operator=(const Algorithm&) = delete;

  /// Run on `input`, whose content identity is `input_fp` (0 =
  /// unknown), resolving (input_fp, cache_signature()) through `cache`
  /// with memoize() (core/artifact_cache.hpp): concurrent callers of one
  /// key execute once, and a null or disabled cache or an unknown input
  /// executes every call and stores nothing. The lookup holds the
  /// output (as<DataSet>()), its fingerprint (content_fp, 0 when the
  /// input's is unknown) and the counters the execution measured, with
  /// its phase_name() CPU time; a hit replays them, so accounting is
  /// identical either way.
  CacheLookup run(const DataSet& input, ArtifactCache* cache = nullptr,
                  std::uint64_t input_fp = 0) const;

protected:
  Algorithm() = default;

  /// Produce the output from `input`, recording the work into
  /// `counters`.
  virtual std::unique_ptr<DataSet> execute(const DataSet& input,
                                           cluster::PerfCounters& counters) const = 0;

  /// Phase-timer bucket execute() time is charged to ("extract" for
  /// geometry extraction filters, "sample" for samplers, ...).
  virtual const char* phase_name() const { return "extract"; }

  /// Trace-span name for this algorithm's execute() (DESIGN.md §11).
  /// Must be a string literal; overridden per filter so a trace shows
  /// "filter.isosurface" rather than a generic bucket.
  virtual const char* trace_name() const { return "filter"; }

  /// Canonical operation-plus-parameters string for memoization keys.
  /// Must cover EVERY parameter that influences execute()'s output
  /// (floats via %a so the string is bit-exact).
  virtual std::string cache_signature() const = 0;
};

} // namespace eth
