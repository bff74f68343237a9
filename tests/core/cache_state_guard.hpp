#pragma once
// Test helper shared by the suites that toggle the process-wide
// artifact cache.

#include "core/artifact_cache.hpp"

namespace eth {

/// Restores the global cache's enabled flag and empties it afterwards,
/// so a test that toggles or fills the cache leaks no state into the
/// rest of the suite.
class CacheStateGuard {
public:
  CacheStateGuard() : was_enabled_(global_artifact_cache().enabled()) {}
  ~CacheStateGuard() {
    global_artifact_cache().set_enabled(was_enabled_);
    global_artifact_cache().clear();
  }
  CacheStateGuard(const CacheStateGuard&) = delete;
  CacheStateGuard& operator=(const CacheStateGuard&) = delete;

private:
  bool was_enabled_;
};

} // namespace eth
