#pragma once
// Deterministic random number generation.
//
// Every stochastic component in ETH (synthetic data generators, the
// Bernoulli spatial sampler, jittered camera paths) takes an explicit
// seed so experiment runs are exactly reproducible — a hard requirement
// for a design-space exploration harness, where two configurations must
// see identical input data. We use xoshiro256** seeded through
// SplitMix64, the standard pairing recommended by the xoshiro authors.

#include <cmath>
#include <cstdint>
#include <utility>

#include "common/vec.hpp"

namespace eth {

/// SplitMix64: used to expand a single user seed into xoshiro state.
class SplitMix64 {
public:
  explicit constexpr SplitMix64(std::uint64_t seed) : state_(seed) {}

  constexpr std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }

private:
  std::uint64_t state_;
};

/// xoshiro256**: fast, high-quality, 2^256-1 period.
class Rng {
public:
  explicit Rng(std::uint64_t seed = 0x853c49e6748fea9bull) { reseed(seed); }

  /// Restart the stream: `Rng(seed)` and `reseed(seed)` draw the same
  /// values, normals included (no Box-Muller variate survives).
  void reseed(std::uint64_t seed) {
    SplitMix64 sm(seed);
    for (auto& s : s_) s = sm.next();
    pending_ = Pending::kNone;
  }

  std::uint64_t next_u64() {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Uniform in [0, 1).
  double uniform() {
    return double(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Uniform in [lo, hi).
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

  /// Uniform integer in [0, n). n must be > 0.
  std::uint64_t uniform_index(std::uint64_t n) {
    // Lemire's nearly-divisionless bounded generation.
    const std::uint64_t x = next_u64();
    const unsigned __int128 m = static_cast<unsigned __int128>(x) * n;
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Bernoulli trial with probability p.
  bool bernoulli(double p) { return uniform() < p; }

  /// Standard normal via Box-Muller (cached second variate).
  double normal() {
    switch (pending_) {
      case Pending::kVariate:
        pending_ = Pending::kNone;
        return cached_;
      case Pending::kPair:
        pending_ = Pending::kNone;
        return box_muller(pair_u1_, pair_u2_).second;
      case Pending::kNone:
        break;
    }
    const double u1 = nonzero_uniform();
    const auto [first, second] = box_muller(u1, uniform());
    cached_ = second;
    pending_ = Pending::kVariate;
    return first;
  }

  double normal(double mean, double stddev) { return mean + stddev * normal(); }

  /// Skip `n` 64-bit draws: each of uniform(), uniform_index() and
  /// bernoulli() is one, point_in_box() three and unit_vector() two.
  /// The Box-Muller cache is untouched, as drawing would leave it.
  void discard(std::uint64_t n) {
    for (; n > 0; --n) next_u64();
  }

  /// Skip one normal(): the stream and the Box-Muller cache end exactly
  /// as normal() leaves them, but no variate is computed. A pair drawn
  /// here keeps its two uniforms, and its second variate is computed
  /// only if a later normal() takes it.
  void discard_normal() {
    if (pending_ != Pending::kNone) {
      pending_ = Pending::kNone;
      return;
    }
    pair_u1_ = nonzero_uniform();
    pair_u2_ = uniform();
    pending_ = Pending::kPair;
  }

  /// Uniform direction on the unit sphere.
  Vec3f unit_vector() {
    const double z = uniform(-1.0, 1.0);
    const double phi = uniform(0.0, 6.283185307179586);
    const double r = std::sqrt(std::max(0.0, 1.0 - z * z));
    return {Real(r * std::cos(phi)), Real(r * std::sin(phi)), Real(z)};
  }

  /// Uniform point inside the axis-aligned box [lo, hi].
  Vec3f point_in_box(Vec3f lo, Vec3f hi) {
    return {Real(uniform(lo.x, hi.x)), Real(uniform(lo.y, hi.y)), Real(uniform(lo.z, hi.z))};
  }

private:
  /// State of Box-Muller's second variate.
  enum class Pending : std::uint8_t {
    kNone,
    kVariate, ///< computed, in cached_
    kPair,    ///< not yet computed from (pair_u1_, pair_u2_)
  };

  static constexpr std::uint64_t rotl(std::uint64_t v, int k) {
    return (v << k) | (v >> (64 - k));
  }

  /// Box-Muller's u1: log(u1) must be finite.
  double nonzero_uniform() {
    double u1 = uniform();
    while (u1 <= 1e-300) u1 = uniform();
    return u1;
  }

  /// Both variates of one uniform pair. normal() and a discarded pair
  /// go through this one function, so a variate's bits never depend on
  /// which of them computed it.
  static std::pair<double, double> box_muller(double u1, double u2) {
    const double r = std::sqrt(-2.0 * std::log(u1));
    const double theta = 6.283185307179586 * u2;
    return {r * std::cos(theta), r * std::sin(theta)};
  }

  std::uint64_t s_[4]{};
  Pending pending_ = Pending::kNone;
  double cached_ = 0.0;
  double pair_u1_ = 0.0;
  double pair_u2_ = 0.0;
};

/// Derive a child seed for a (seed, stream) pair. Used to give each rank
/// of a parallel generator its own independent stream.
inline std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  SplitMix64 sm(seed ^ (0x9E3779B97F4A7C15ull + stream * 0xBF58476D1CE4E5B9ull));
  sm.next();
  return sm.next();
}

} // namespace eth
