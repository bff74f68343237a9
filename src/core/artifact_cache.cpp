#include "core/artifact_cache.hpp"

#include <charconv>
#include <cstdlib>
#include <cstring>

namespace eth {

Bytes parse_cache_bytes(const char* value) {
  constexpr Bytes kDefault = Bytes(512) << 20; // 512 MiB
  if (value == nullptr) return kDefault;
  const char* end = value + std::strlen(value);
  Bytes parsed = 0;
  // from_chars takes no sign, prefix or whitespace: digits only.
  const auto [stop, error] = std::from_chars(value, end, parsed);
  return error == std::errc() && stop == end ? parsed : kDefault;
}

ArtifactCache& global_artifact_cache() {
  // Leaked singleton: worker threads (read-ahead prefetch tasks) may
  // touch the cache during static destruction if it were destroyed.
  static ArtifactCache* cache = [] {
    const Bytes budget = parse_cache_bytes(std::getenv("ETH_CACHE_BYTES"));
    auto* c = new ArtifactCache(budget);
    c->set_enabled(budget != 0);
    return c;
  }();
  return *cache;
}

} // namespace eth
