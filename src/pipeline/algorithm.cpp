#include "pipeline/algorithm.hpp"

#include "common/error.hpp"
#include "common/trace.hpp"
#include "core/artifact_cache.hpp"
#include "parallel/thread_pool.hpp"

namespace eth {

void Algorithm::set_input(std::shared_ptr<const DataSet> input) {
  require(input != nullptr, "Algorithm::set_input: null dataset");
  fixed_input_ = std::move(input);
  upstream_ = nullptr;
  modified();
}

void Algorithm::set_input_connection(std::shared_ptr<Algorithm> upstream) {
  require(upstream != nullptr, "Algorithm::set_input_connection: null upstream");
  require(upstream.get() != this, "Algorithm: cannot connect to itself");
  upstream_ = std::move(upstream);
  fixed_input_ = nullptr;
  modified();
}

std::shared_ptr<const DataSet> Algorithm::update() {
  std::shared_ptr<const DataSet> input;
  if (upstream_) {
    // Pull upstream first; if it re-executed, its output pointer
    // changes, which we detect by comparing against our cached input.
    input = upstream_->update();
    if (input != fixed_input_) {
      fixed_input_ = input;
      dirty_ = true;
    }
    // Chain provenance: the upstream's output identity is this
    // filter's input identity, and the cache handle rides along.
    if (upstream_->output_fp_ != 0) input_fp_ = upstream_->output_fp_;
    if (cache_ == nullptr) cache_ = upstream_->cache_;
  } else {
    input = fixed_input_;
  }
  if (!is_source())
    require(input != nullptr, "Algorithm::update: filter has no input connected");

  if (dirty_) {
    // Resolve through the cache: concurrent ranks asking for the same
    // artifact compute it exactly once. The factory's measured counters
    // are merged below on hit and miss alike (the accounting rule). An
    // unknown input or an empty signature leaves the output's identity
    // unknown, and memoize() computes through.
    const std::string signature = input_fp_ != 0 ? cache_signature() : std::string();
    const ArtifactKey key{signature.empty() ? 0 : input_fp_, signature};
    const CacheLookup lookup = memoize(cache_, key, [&]() -> CacheArtifact {
      // KernelTimer: filters fan their loops out over the thread pool;
      // worker-executed chunks are still charged here.
      const trace::Span span(trace_name());
      KernelTimer timer;
      cluster::PerfCounters fresh;
      std::unique_ptr<DataSet> produced = execute(input.get(), fresh);
      require(produced != nullptr, "Algorithm::execute returned null output");
      fresh.phases.add(phase_name(), timer.elapsed());
      std::shared_ptr<const DataSet> value = std::move(produced);
      const std::size_t bytes = static_cast<std::size_t>(value->byte_size());
      return CacheArtifact{value, bytes, std::move(fresh),
                           key.input_fp != 0 ? fingerprint_chain(key.input_fp, signature)
                                             : 0};
    });
    output_ = lookup.as<DataSet>();
    output_fp_ = lookup.content_fp;
    counters_.merge(lookup.recorded);
    dirty_ = false;
  }
  return output_;
}

} // namespace eth
