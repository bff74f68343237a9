#include "pipeline/algorithm.hpp"

#include "common/error.hpp"
#include "common/trace.hpp"
#include "parallel/thread_pool.hpp"

namespace eth {

CacheLookup Algorithm::run(const DataSet& input, ArtifactCache* cache,
                           std::uint64_t input_fp) const {
  const std::string signature = cache_signature();
  return memoize(cache, {input_fp, signature}, [&]() -> CacheArtifact {
    // KernelTimer: filters fan their loops out over the thread pool;
    // worker-executed chunks are still charged here.
    const trace::Span span(trace_name());
    KernelTimer timer;
    cluster::PerfCounters fresh;
    std::shared_ptr<const DataSet> value = execute(input, fresh);
    require(value != nullptr, "Algorithm::execute returned null output");
    fresh.phases.add(phase_name(), timer.elapsed());
    const std::size_t bytes = static_cast<std::size_t>(value->byte_size());
    return CacheArtifact{std::move(value), bytes, std::move(fresh),
                         input_fp != 0 ? fingerprint_chain(input_fp, signature) : 0};
  });
}

} // namespace eth
