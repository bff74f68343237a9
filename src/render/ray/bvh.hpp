#pragma once
// SphereBVH: the "specialized acceleration structure" of the paper's
// raycast-spheres method (§IV-C): particles are inserted "at a cost of
// roughly O(N log N)" and traversal finds ray/sphere hits "with a cost
// that is sub-linear in the number of particles".
//
// Binned-SAH builder over 40-byte nodes in depth-first layout; leaves
// reference a permuted primitive index array. The build cost is exactly
// the "additional setup phase" the paper's performance-counter analysis
// attributes raycasting's extra computation to — the harness times
// build and traversal separately.

#include <span>
#include <vector>

#include "cluster/counters.hpp"
#include "common/aabb.hpp"
#include "common/simd_kernels.hpp"
#include "render/camera.hpp"

namespace eth {

struct SphereHit {
  Real t = -1;       ///< ray parameter of the nearest hit (< 0 = miss)
  Index primitive = -1;
  Vec3f normal;      ///< outward unit normal at the hit point

  bool valid() const { return t >= 0; }
};

class SphereBVH {
public:
  /// Build over `centers` with a common `radius`. Empty input allowed.
  enum class SplitMethod { kBinnedSAH, kMedian };

  SphereBVH() = default;
  SphereBVH(std::span<const Vec3f> centers, Real radius,
            SplitMethod split = SplitMethod::kBinnedSAH, int max_leaf_size = 4);

  bool empty() const { return prim_order_.empty(); }
  Index num_primitives() const { return static_cast<Index>(prim_order_.size()); }
  Index num_nodes() const { return static_cast<Index>(nodes_.size()); }
  AABB bounds() const { return nodes_.empty() ? AABB::empty() : box_of(nodes_[0]); }
  Real radius() const { return radius_; }

  /// Resident size (the memoization layer's byte budget).
  Bytes byte_size() const {
    return static_cast<Bytes>(nodes_.size() * sizeof(Node) +
                              prim_order_.size() * sizeof(Index) +
                              centers_.size() * sizeof(Vec3f));
  }

  /// Nearest sphere intersection along `ray` within (tmin, tmax): the
  /// scalar reference traversal.
  SphereHit intersect(const Ray& ray, Real tmin, Real tmax,
                      cluster::PerfCounters& counters) const;

  /// Lanes of the widest kernel table (AVX2): the largest packet.
  static constexpr int kMaxPacket = 8;

  /// intersect() for `count` (1..table.width) rays sharing one origin,
  /// traced as one packet through `table`'s sphere_packet kernel. Every
  /// hit and the node visits added to `counters` equal those of
  /// intersect() ray by ray.
  void intersect_packet(const simd::KernelTable& table, const Ray* rays, int count,
                        Real tmin, Real tmax, SphereHit* hits,
                        cluster::PerfCounters& counters) const;

  /// The tree as the sphere_packet kernel reads it (non-empty trees).
  simd::SphereBvhView kernel_view() const {
    static_assert(sizeof(Vec3f) == 3 * sizeof(float), "centers_ is read as xyz floats");
    return {nodes_.data(), reinterpret_cast<const float*>(centers_.data()), radius_};
  }

  /// Depth of the tree (diagnostics / ablation benches).
  int max_depth() const;

  /// Invariant check used by property tests: every primitive is
  /// referenced exactly once and every leaf's primitives are inside its
  /// box. Throws eth::Error on violation.
  void validate(std::span<const Vec3f> centers) const;

private:
  // Interior: left child = index + 1, right child = `right_or_first`.
  // Leaf: `right_or_first` = first primitive slot, `count` > 0. The
  // kernel table's node type, so the packet kernel reads the tree as is.
  using Node = simd::BvhNode;

  static AABB box_of(const Node& node) {
    return AABB::of({node.lo[0], node.lo[1], node.lo[2]},
                    {node.hi[0], node.hi[1], node.hi[2]});
  }
  static bool is_leaf(const Node& node) { return node.count > 0; }
  SphereHit hit_of(const Ray& ray, Real closest, Index slot) const;

  Index build_recursive(std::span<const Vec3f> centers, Index begin, Index end,
                        SplitMethod split, int max_leaf_size, int depth);
  int depth_of(Index node) const;

  std::vector<Node> nodes_;
  std::vector<Index> prim_order_;
  /// Copy in BVH (leaf slot) order for cache-coherent leaves; the packet
  /// kernel reads it too (DESIGN.md §14).
  std::vector<Vec3f> centers_;
  Real radius_ = 0;
};

/// Analytic ray/sphere test used by both the BVH and the brute-force
/// reference in tests. Returns the smallest t in (tmin, tmax) or -1.
Real ray_sphere(const Ray& ray, Vec3f center, Real radius, Real tmin, Real tmax);

} // namespace eth
