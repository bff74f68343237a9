#pragma once
// Error handling for ETH.
//
// Policy (per C++ Core Guidelines E.2/E.14): throw eth::Error for
// violated preconditions and unrecoverable runtime failures; library code
// never calls std::abort or exit. `require` is the single checked entry
// point so that call sites read as contracts.

#include <stdexcept>
#include <string>

namespace eth {

/// Exception type thrown for all ETH library errors.
class Error : public std::runtime_error {
public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// Unconditionally raise an eth::Error (for unreachable branches and
/// unsupported enum values).
[[noreturn]] void fail(const std::string& message);

/// Throw eth::Error with `message` when `condition` is false.
/// Usage: require(n >= 0, "particle count must be non-negative");
void require(bool condition, const std::string& message);

/// Literal-message overload: tests first and builds the std::string
/// only on failure, because passing checks sit inside per-ray,
/// per-sample and per-token loops where a heap allocation per call
/// would dominate the work being checked.
inline void require(bool condition, const char* message) {
  if (!condition) fail(message);
}

/// Failure taxonomy for the in-situ transport path (DESIGN.md §8).
/// Every transport-layer failure is classified so callers can decide
/// what is retryable (timeouts, corrupt frames) and what is fatal
/// (oversized messages, i.e. protocol violations).
enum class TransportErrorCode {
  kConnectionRefused, ///< peer's port never accepted within the deadline
  kConnectionClosed,  ///< peer closed the stream mid-message
  kTimeout,           ///< recv deadline or rendezvous deadline elapsed
  kCorruptFrame,      ///< frame CRC32 mismatch (payload bit damage)
  kTruncated,         ///< frame shorter than its header promises
  kMessageTooLarge,   ///< length prefix exceeds kMaxMessageBytes
};
const char* to_string(TransportErrorCode code);

/// Exception thrown for classified transport failures. Derives from
/// eth::Error so existing catch sites keep working; new code can switch
/// on code() to pick a retry/drop/abort policy.
class TransportError : public Error {
public:
  TransportError(TransportErrorCode code, const std::string& what);
  TransportErrorCode code() const { return code_; }

private:
  TransportErrorCode code_;
};

/// Throw TransportError(code, message) when `condition` is false.
void require_transport(bool condition, TransportErrorCode code,
                       const std::string& message);

/// Literal-message overload, allocation-free on success (see require).
inline void require_transport(bool condition, TransportErrorCode code,
                              const char* message) {
  if (!condition) throw TransportError(code, message);
}

} // namespace eth
