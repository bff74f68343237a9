#pragma once
// The ETH pipeline: a demand-driven chain of operators in the style of
// VTK's data-centric pipeline ("VTK implements a data-centric pipeline
// of operators, filters and rendering operations that operate on data,
// then pass it along to the next element" — paper §III).
//
// An Algorithm owns one optional upstream connection and produces one
// DataSet. update() pulls the upstream output (recursively), re-executes
// when dirty, and caches. modified() dirties this algorithm and, through
// pull semantics, everything downstream of it on the next update().

#include <memory>
#include <string>

#include "cluster/counters.hpp"
#include "data/dataset.hpp"

namespace eth {

class ArtifactCache;

class Algorithm {
public:
  virtual ~Algorithm() = default;

  Algorithm(const Algorithm&) = delete;
  Algorithm& operator=(const Algorithm&) = delete;

  /// Connect a fixed dataset as the input (source-style use).
  void set_input(std::shared_ptr<const DataSet> input);

  /// Connect another algorithm's output as the input (filter-style use).
  void set_input_connection(std::shared_ptr<Algorithm> upstream);

  /// Pull: bring the output up to date and return it.
  std::shared_ptr<const DataSet> update();

  /// Mark dirty; the next update() re-executes this algorithm.
  void modified() { dirty_ = true; }

  /// Work accounting accumulated over every execute() since the last
  /// reset_counters(); the harness reads these after a run.
  const cluster::PerfCounters& counters() const { return counters_; }
  void reset_counters() { counters_ = cluster::PerfCounters{}; }

  /// Attach a memoization cache (core/artifact_cache.hpp) and declare
  /// the content identity of this algorithm's input. Filters that
  /// implement cache_signature() then resolve (input fingerprint,
  /// signature) through the cache instead of re-executing; on a hit
  /// the recorded first-execution counters are replayed into
  /// counters(), so accounting is identical either way. A null or
  /// disabled cache, a zero fingerprint, or an empty signature all
  /// compute through memoize() (core/artifact_cache.hpp): execute()
  /// runs every time and nothing is stored.
  void set_cache(ArtifactCache* cache, std::uint64_t input_fingerprint) {
    cache_ = cache;
    input_fp_ = input_fingerprint;
  }

  /// Content identity of the current output (0 = unknown). Valid after
  /// update(); chains automatically through connected pipelines — a
  /// downstream filter inherits its upstream's output fingerprint (and
  /// cache handle) on the next pull.
  std::uint64_t output_fingerprint() const { return output_fp_; }

protected:
  Algorithm() = default;

  /// Produce the output from `input`. Sources receive nullptr.
  /// Implementations record their work into `counters`.
  virtual std::unique_ptr<DataSet> execute(const DataSet* input,
                                           cluster::PerfCounters& counters) = 0;

  /// True when this algorithm needs no input (a source).
  virtual bool is_source() const { return false; }

  /// Phase-timer bucket execute() time is charged to ("extract" for
  /// geometry extraction filters, "sample" for samplers, ...).
  virtual const char* phase_name() const { return "extract"; }

  /// Trace-span name for this algorithm's execute() (DESIGN.md §11).
  /// Must be a string literal; overridden per filter so a trace shows
  /// "filter.isosurface" rather than a generic bucket.
  virtual const char* trace_name() const { return "filter"; }

  /// Canonical operation-plus-parameters string for memoization keys.
  /// Must cover EVERY parameter that influences execute()'s output
  /// (floats via %a so the string is bit-exact); empty (the default)
  /// opts the filter out of caching.
  virtual std::string cache_signature() const { return {}; }

private:
  std::shared_ptr<const DataSet> fixed_input_;
  std::shared_ptr<Algorithm> upstream_;
  std::shared_ptr<const DataSet> output_;
  cluster::PerfCounters counters_;
  ArtifactCache* cache_ = nullptr;
  std::uint64_t input_fp_ = 0;
  std::uint64_t output_fp_ = 0;
  bool dirty_ = true;
};

} // namespace eth
