#include "sim/hacc_generator.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "parallel/thread_pool.hpp"

namespace eth::sim {

namespace {

/// Particles per replay block: the skip pass checkpoints the generator
/// at every multiple of this. A constant, never derived from the pool
/// size or the particle count.
constexpr Index kBlockParticles = 8192;

struct Halo {
  Vec3f center;
  Real scale;    ///< Plummer a
  Real sigma_v;  ///< velocity dispersion
};

/// Halo catalogue for (seed, timestep): centers drift with a fixed
/// per-halo velocity; the profile deepens slightly as time advances.
std::vector<Halo> make_halos(const HaccParams& p) {
  std::vector<Halo> halos(static_cast<std::size_t>(p.num_halos));
  Rng rng(derive_seed(p.seed, 0xA105));
  const Real t = Real(p.timestep);
  for (Halo& h : halos) {
    const Vec3f base = rng.point_in_box({0, 0, 0}, {p.box_size, p.box_size, p.box_size});
    const Vec3f drift = rng.unit_vector() * Real(rng.uniform(0.05, 0.25));
    Vec3f c = base + drift * t;
    // Periodic wrap.
    for (int a = 0; a < 3; ++a)
      c[a] = c[a] - p.box_size * std::floor(c[a] / p.box_size);
    h.center = c;
    // Contraction: structure grows denser with time, like gravitational
    // collapse (scale shrinks toward 60 % of initial).
    const Real contraction = Real(1) / (Real(1) + Real(0.05) * t);
    h.scale = p.halo_scale_radius * Real(rng.uniform(0.5, 1.8)) *
              std::max(contraction, Real(0.6));
    h.sigma_v = Real(rng.uniform(80.0, 250.0));
  }
  return halos;
}

/// Sample a radius from the Plummer profile with scale a
/// (inverse-CDF: r = a / sqrt(u^(-2/3) - 1)).
Real plummer_radius(Rng& rng, Real a) {
  const double u = std::max(1e-9, rng.uniform());
  const double r = double(a) / std::sqrt(std::pow(u, -2.0 / 3.0) - 1.0);
  return Real(std::min(r, double(a) * 25.0)); // truncate the heavy tail
}

// The particle stream of (seed, timestep) draws, per particle:
//   kind      uniform() < background_fraction selects a background particle
//   position  background: point_in_box (3 draws); halo: halo index,
//             Plummer radius and direction (4 draws)
//   velocity  background: speed, then direction (3 draws); halo: 3 normals
// Velocity draws follow the position draws, so a particle that lands in
// no requested slab can skip them without computing anything.

void skip_halo_velocity(Rng& rng) {
  rng.discard_normal();
  rng.discard_normal();
  rng.discard_normal();
}

/// Advance past one particle without computing it.
void skip_particle(Rng& rng, double background_fraction) {
  if (rng.uniform() < background_fraction) {
    rng.discard(6);
  } else {
    rng.discard(4);
    skip_halo_velocity(rng);
  }
}

/// The requested slabs, ascending and distinct, as half-open x ranges.
/// Slab bounds are the same float expressions for every share, so the
/// slabs tile the box without gaps or overlaps.
class Slabs {
public:
  Slabs(const std::vector<int>& shares, int parts, Real box_size) {
    for (const int share : shares) {
      lo_.push_back(box_size * Real(share) / Real(parts));
      hi_.push_back(box_size * Real(share + 1) / Real(parts));
    }
  }

  std::size_t size() const { return lo_.size(); }

  /// Index of the slab holding x, or -1: only the last slab starting at
  /// or below x can.
  int find(Real x) const {
    const auto it = std::upper_bound(lo_.begin(), lo_.end(), x);
    if (it == lo_.begin()) return -1;
    const auto k = static_cast<std::size_t>(it - lo_.begin()) - 1;
    return x < hi_[k] ? static_cast<int>(k) : -1;
  }

private:
  std::vector<Real> lo_, hi_;
};

/// A particle of a requested slab, as the replay hands it to the merge.
struct KeptParticle {
  Vec3f pos;
  Vec3f vel;
  Real id;
  Real speed;
  int slab;
};

/// Replay particles [begin, end) from the generator state at `begin`,
/// appending each one that lands in a requested slab to `kept`.
void replay_block(const HaccParams& p, const std::vector<Halo>& halos, const Slabs& slabs,
                  Rng rng, Index begin, Index end, std::vector<KeptParticle>& kept) {
  const auto wrap = [&](Vec3f v) {
    for (int a = 0; a < 3; ++a) v[a] = v[a] - p.box_size * std::floor(v[a] / p.box_size);
    return v;
  };
  const auto keep = [&](int slab, Index i, Vec3f pos, Vec3f vel) {
    kept.push_back({pos, vel, Real(i), length(vel), slab});
  };
  for (Index i = begin; i < end; ++i) {
    if (rng.uniform() < p.background_fraction) {
      const Vec3f pos = rng.point_in_box({0, 0, 0}, {p.box_size, p.box_size, p.box_size});
      const int slab = slabs.find(pos.x);
      if (slab < 0) {
        rng.discard(3);
        continue;
      }
      // Speed before direction: the order in which the serial generator's
      // `unit_vector() * Real(uniform(10, 60))` drew them.
      const Real speed = Real(rng.uniform(10.0, 60.0));
      keep(slab, i, pos, rng.unit_vector() * speed);
    } else {
      const auto h = static_cast<std::size_t>(rng.uniform_index(
          static_cast<std::uint64_t>(p.num_halos)));
      const Halo& halo = halos[h];
      const Real r = plummer_radius(rng, halo.scale);
      const Vec3f pos = wrap(halo.center + rng.unit_vector() * r);
      const int slab = slabs.find(pos.x);
      if (slab < 0) {
        skip_halo_velocity(rng);
        continue;
      }
      // Dispersion falls off with radius, crudely virial.
      const Real sigma = halo.sigma_v / std::sqrt(Real(1) + r / halo.scale);
      keep(slab, i, pos,
           Vec3f{Real(rng.normal(0.0, sigma)), Real(rng.normal(0.0, sigma)),
                 Real(rng.normal(0.0, sigma))});
    }
  }
}

/// Slabs `shares` (ascending, distinct) of `parts`, in that order.
std::vector<std::unique_ptr<PointSet>> generate_slabs(const HaccParams& p,
                                                      const std::vector<int>& shares,
                                                      int parts) {
  require(p.num_particles >= 0, "generate_hacc: negative particle count");
  require(p.num_halos > 0, "generate_hacc: need at least one halo");
  require(p.background_fraction >= 0.0 && p.background_fraction <= 1.0,
          "generate_hacc: background fraction must be in [0, 1]");
  require(p.box_size > 0, "generate_hacc: box size must be positive");
  const std::vector<Halo> halos = make_halos(p);
  const Slabs slabs(shares, parts, p.box_size);

  // Skip pass: checkpoint the generator at the start of every block.
  const Index n = p.num_particles;
  const Index blocks = (n + kBlockParticles - 1) / kBlockParticles;
  std::vector<Rng> block_start(static_cast<std::size_t>(blocks));
  Rng rng(derive_seed(p.seed, 0xBEEF + static_cast<std::uint64_t>(p.timestep)));
  for (Index b = 0; b < blocks; ++b) {
    block_start[static_cast<std::size_t>(b)] = rng;
    if (b + 1 == blocks) break;
    for (Index i = 0; i < kBlockParticles; ++i) skip_particle(rng, p.background_fraction);
  }

  // Replay: blocks are independent given their checkpoints. Each block's
  // list is reserved here at the block length, an upper bound, so pool
  // workers never allocate: workers must not contend on the one malloc
  // arena's lock (parallel/thread_pool.cpp). Capacity never written is
  // never paged in.
  std::vector<std::vector<KeptParticle>> kept(static_cast<std::size_t>(blocks));
  for (Index b = 0; b < blocks; ++b)
    kept[static_cast<std::size_t>(b)].reserve(
        static_cast<std::size_t>(std::min(kBlockParticles, n - b * kBlockParticles)));
  parallel_for(0, blocks, 1, [&](Index b_begin, Index b_end) {
    for (Index b = b_begin; b < b_end; ++b)
      replay_block(p, halos, slabs, block_start[static_cast<std::size_t>(b)],
                   b * kBlockParticles, std::min(n, (b + 1) * kBlockParticles),
                   kept[static_cast<std::size_t>(b)]);
  });

  // Merge in block order, which is stream order.
  std::vector<Index> counts(slabs.size(), 0);
  for (const std::vector<KeptParticle>& block : kept)
    for (const KeptParticle& q : block) ++counts[static_cast<std::size_t>(q.slab)];
  struct Cursor {
    std::span<Vec3f> pos;
    std::span<Real> id, vel, speed;
    std::size_t next = 0;
  };
  std::vector<std::unique_ptr<PointSet>> out;
  std::vector<Cursor> cursors;
  for (const Index count : counts) {
    PointSet& ps = *out.emplace_back(std::make_unique<PointSet>(count));
    FieldCollection& fields = ps.point_fields();
    fields.add(Field("id", count, 1, FieldAssociation::kPoint));
    fields.add(Field("velocity", count, 3, FieldAssociation::kPoint));
    fields.add(Field("speed", count, 1, FieldAssociation::kPoint));
    cursors.push_back({ps.positions(), fields.get("id").values(),
                       fields.get("velocity").values(), fields.get("speed").values()});
  }
  for (std::vector<KeptParticle>& block : kept) {
    for (const KeptParticle& q : block) {
      Cursor& c = cursors[static_cast<std::size_t>(q.slab)];
      c.pos[c.next] = q.pos;
      c.id[c.next] = q.id;
      c.vel[3 * c.next] = q.vel.x;
      c.vel[3 * c.next + 1] = q.vel.y;
      c.vel[3 * c.next + 2] = q.vel.z;
      c.speed[c.next] = q.speed;
      ++c.next;
    }
    std::vector<KeptParticle>().swap(block);
  }
  return out;
}

} // namespace

std::unique_ptr<PointSet> generate_hacc(const HaccParams& p) {
  return generate_hacc_rank(p, 0, 1);
}

PointSet extract_hacc_slab(const PointSet& full, Real box_size, int rank, int ranks) {
  require(box_size > 0, "extract_hacc_slab: box size must be positive");
  require(ranks > 0 && rank >= 0 && rank < ranks, "extract_hacc_slab: bad rank");
  // The same half-open interval predicate generate_hacc_rank applies,
  // over the same stream order.
  const Real slab_lo = box_size * Real(rank) / Real(ranks);
  const Real slab_hi = box_size * Real(rank + 1) / Real(ranks);
  std::vector<Index> keep;
  for (Index i = 0; i < full.num_points(); ++i) {
    const Real x = full.position(i).x;
    if (x >= slab_lo && x < slab_hi) keep.push_back(i);
  }
  return full.subset(keep);
}

std::unique_ptr<PointSet> generate_hacc_rank(const HaccParams& p, int rank, int ranks) {
  require(ranks > 0 && rank >= 0 && rank < ranks, "generate_hacc: bad rank");
  return std::move(generate_slabs(p, {rank}, ranks).front());
}

std::vector<std::shared_ptr<const PointSet>> generate_hacc_shares(
    const HaccParams& p, std::span<const int> shares, int parts) {
  require(parts > 0, "generate_hacc_shares: parts must be positive");
  for (const int share : shares)
    require(share >= 0 && share < parts, "generate_hacc_shares: bad share");
  std::vector<int> distinct(shares.begin(), shares.end());
  std::sort(distinct.begin(), distinct.end());
  distinct.erase(std::unique(distinct.begin(), distinct.end()), distinct.end());

  std::vector<std::shared_ptr<const PointSet>> slabs;
  for (std::unique_ptr<PointSet>& slab : generate_slabs(p, distinct, parts))
    slabs.push_back(std::move(slab));
  std::vector<std::shared_ptr<const PointSet>> out;
  for (const int share : shares) {
    const auto k = std::lower_bound(distinct.begin(), distinct.end(), share) - distinct.begin();
    out.push_back(slabs[static_cast<std::size_t>(k)]);
  }
  return out;
}

} // namespace eth::sim
