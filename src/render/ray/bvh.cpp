#include "render/ray/bvh.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/error.hpp"
#include "common/simd_kernels.hpp"

namespace eth {

Real ray_sphere(const Ray& ray, Vec3f center, Real radius, Real tmin, Real tmax) {
  const Vec3f oc = ray.origin - center;
  // Direction is unit length, so a = 1.
  const Real half_b = dot(oc, ray.direction);
  const Real c = length2(oc) - radius * radius;
  const Real disc = half_b * half_b - c;
  if (disc < 0) return Real(-1);
  const Real sqrt_d = std::sqrt(disc);
  Real t = -half_b - sqrt_d;
  if (t <= tmin) t = -half_b + sqrt_d; // ray starts inside: use exit point
  if (t <= tmin || t >= tmax) return Real(-1);
  return t;
}

SphereBVH::SphereBVH(std::span<const Vec3f> centers, Real radius, SplitMethod split,
                     int max_leaf_size) {
  require(radius > 0 || centers.empty(), "SphereBVH: radius must be positive");
  require(max_leaf_size >= 1, "SphereBVH: max_leaf_size must be >= 1");
  radius_ = radius;
  const Index n = static_cast<Index>(centers.size());
  if (n == 0) return;

  prim_order_.resize(static_cast<std::size_t>(n));
  std::iota(prim_order_.begin(), prim_order_.end(), Index(0));
  nodes_.reserve(static_cast<std::size_t>(2 * n));
  build_recursive(centers, 0, n, split, max_leaf_size, 0);

  // Gather centers into BVH leaf order for cache-coherent traversal
  // (the scalar leaf loop and the SIMD packet kernel both read them).
  centers_.resize(static_cast<std::size_t>(n));
  for (Index slot = 0; slot < n; ++slot)
    centers_[static_cast<std::size_t>(slot)] =
        centers[static_cast<std::size_t>(prim_order_[static_cast<std::size_t>(slot)])];
}

Index SphereBVH::build_recursive(std::span<const Vec3f> centers, Index begin, Index end,
                                 SplitMethod split, int max_leaf_size, int depth) {
  const Index node_index = static_cast<Index>(nodes_.size());
  nodes_.emplace_back();

  AABB box;
  AABB centroid_box;
  for (Index s = begin; s < end; ++s) {
    const Vec3f c = centers[static_cast<std::size_t>(prim_order_[static_cast<std::size_t>(s)])];
    centroid_box.extend(c);
    box.extend(c);
  }
  box = box.inflated(radius_);
  Node& node = nodes_[static_cast<std::size_t>(node_index)];
  for (int a = 0; a < 3; ++a) {
    node.lo[a] = box.lo[a];
    node.hi[a] = box.hi[a];
  }

  const Index count = end - begin;
  constexpr int kMaxDepth = 64;
  if (count <= max_leaf_size || depth >= kMaxDepth ||
      centroid_box.diagonal() <= Real(0)) {
    nodes_[static_cast<std::size_t>(node_index)].right_or_first = begin;
    nodes_[static_cast<std::size_t>(node_index)].count = count;
    return node_index;
  }

  const int axis = centroid_box.longest_axis();
  Index mid = begin + count / 2;

  if (split == SplitMethod::kMedian) {
    std::nth_element(prim_order_.begin() + begin, prim_order_.begin() + mid,
                     prim_order_.begin() + end, [&](Index a, Index b) {
                       return centers[static_cast<std::size_t>(a)][axis] <
                              centers[static_cast<std::size_t>(b)][axis];
                     });
  } else {
    // Binned SAH: 16 bins along the widest centroid axis.
    constexpr int kBins = 16;
    struct Bin {
      AABB box;
      Index count = 0;
    };
    Bin bins[kBins];
    const Real lo = centroid_box.lo[axis];
    const Real span = std::max(centroid_box.extent()[axis], Real(1e-12));
    const auto bin_of = [&](Vec3f c) {
      return std::min<int>(kBins - 1, static_cast<int>((c[axis] - lo) / span * kBins));
    };
    for (Index s = begin; s < end; ++s) {
      const Vec3f c = centers[static_cast<std::size_t>(prim_order_[static_cast<std::size_t>(s)])];
      Bin& bin = bins[bin_of(c)];
      bin.box.extend(c);
      ++bin.count;
    }
    // Sweep for the cheapest split plane by surface-area heuristic.
    AABB right_acc[kBins];
    AABB acc;
    for (int b = kBins - 1; b > 0; --b) {
      acc.extend(bins[b].box);
      right_acc[b] = acc;
    }
    Real best_cost = std::numeric_limits<Real>::max();
    int best_split = -1;
    AABB left_acc;
    Index left_count = 0;
    for (int b = 0; b + 1 < kBins; ++b) {
      left_acc.extend(bins[b].box);
      left_count += bins[b].count;
      const Index right_count = count - left_count;
      if (left_count == 0 || right_count == 0) continue;
      const Real cost = left_acc.surface_area() * Real(left_count) +
                        right_acc[b + 1].surface_area() * Real(right_count);
      if (cost < best_cost) {
        best_cost = cost;
        best_split = b;
      }
    }
    if (best_split < 0) {
      // All centroids in one bin: fall back to median split.
      std::nth_element(prim_order_.begin() + begin, prim_order_.begin() + mid,
                       prim_order_.begin() + end, [&](Index a, Index b) {
                         return centers[static_cast<std::size_t>(a)][axis] <
                                centers[static_cast<std::size_t>(b)][axis];
                       });
    } else {
      const auto it = std::partition(
          prim_order_.begin() + begin, prim_order_.begin() + end, [&](Index a) {
            return bin_of(centers[static_cast<std::size_t>(a)]) <= best_split;
          });
      mid = static_cast<Index>(it - prim_order_.begin());
      if (mid == begin || mid == end) mid = begin + count / 2; // degenerate guard
    }
  }

  build_recursive(centers, begin, mid, split, max_leaf_size, depth + 1);
  const Index right_child =
      build_recursive(centers, mid, end, split, max_leaf_size, depth + 1);
  nodes_[static_cast<std::size_t>(node_index)].right_or_first = right_child;
  nodes_[static_cast<std::size_t>(node_index)].count = 0;
  return node_index;
}

SphereHit SphereBVH::intersect(const Ray& ray, Real tmin, Real tmax,
                               cluster::PerfCounters& counters) const {
  if (nodes_.empty()) return {};

  const Vec3f inv_d{Real(1) / ray.direction.x, Real(1) / ray.direction.y,
                    Real(1) / ray.direction.z};
  Real closest = tmax;
  Index visited = 0;
  Index slot = -1; // leaf-order slot of the accepted sphere

  Index stack[64];
  int top = 0;
  stack[top++] = 0;
  while (top > 0) {
    const Node& node = nodes_[static_cast<std::size_t>(stack[--top])];
    ++visited;
    if (!box_of(node).hit(ray.origin, inv_d, tmin, closest)) continue;
    if (is_leaf(node)) {
      for (Index s = node.right_or_first; s < node.right_or_first + node.count; ++s) {
        const Vec3f c = centers_[static_cast<std::size_t>(s)];
        const Real t = ray_sphere(ray, c, radius_, tmin, closest);
        if (t > 0) {
          closest = t;
          slot = s;
        }
      }
    } else {
      // Push children; near-first ordering is approximated by pushing
      // the right child first so the left (index+1, contiguous) child
      // pops next.
      require(top + 2 <= 64, "SphereBVH: traversal stack overflow");
      stack[top++] = node.right_or_first;
      stack[top++] = static_cast<Index>(&node - nodes_.data()) + 1;
    }
  }
  counters.bvh_nodes_visited += visited;
  return hit_of(ray, closest, slot);
}

void SphereBVH::intersect_packet(const simd::KernelTable& table, const Ray* rays,
                                 int count, Real tmin, Real tmax, SphereHit* hits,
                                 cluster::PerfCounters& counters) const {
  require(count >= 1 && count <= table.width && count <= kMaxPacket,
          "SphereBVH::intersect_packet: packet must hold 1..width rays");
  for (int l = 0; l < count; ++l) hits[l] = SphereHit{};
  if (nodes_.empty()) return;

  float dx[kMaxPacket] = {}, dy[kMaxPacket] = {}, dz[kMaxPacket] = {};
  float closest[kMaxPacket] = {};
  std::int64_t slot[kMaxPacket] = {}, visited[kMaxPacket] = {};
  for (int l = 0; l < count; ++l) {
    require(rays[l].origin == rays[0].origin,
            "SphereBVH::intersect_packet: rays must share one origin");
    dx[l] = rays[l].direction.x;
    dy[l] = rays[l].direction.y;
    dz[l] = rays[l].direction.z;
  }
  const simd::SphereRays packet{count, rays[0].origin.x, rays[0].origin.y,
                                rays[0].origin.z, dx, dy, dz, tmin, tmax};
  simd::SphereHits out{closest, slot, visited};
  require(table.sphere_packet(kernel_view(), packet, out),
          "SphereBVH: traversal stack overflow");
  for (int l = 0; l < count; ++l) {
    counters.bvh_nodes_visited += visited[l];
    hits[l] = hit_of(rays[l], closest[l], slot[l]);
  }
}

SphereHit SphereBVH::hit_of(const Ray& ray, Real closest, Index slot) const {
  SphereHit hit;
  if (slot >= 0) {
    // The nearest sphere's normal, from the same inputs in either path.
    const Vec3f c = centers_[static_cast<std::size_t>(slot)];
    hit.t = closest;
    hit.primitive = prim_order_[static_cast<std::size_t>(slot)];
    hit.normal = normalize(ray.origin + ray.direction * closest - c);
  }
  return hit;
}

int SphereBVH::max_depth() const { return nodes_.empty() ? 0 : depth_of(0); }

int SphereBVH::depth_of(Index node_index) const {
  const Node& node = nodes_[static_cast<std::size_t>(node_index)];
  if (is_leaf(node)) return 1;
  return 1 + std::max(depth_of(node_index + 1), depth_of(node.right_or_first));
}

void SphereBVH::validate(std::span<const Vec3f> centers) const {
  require(centers.size() == prim_order_.size(), "SphereBVH::validate: size mismatch");
  if (centers.empty()) return;

  std::vector<char> seen(centers.size(), 0);
  for (std::size_t node_index = 0; node_index < nodes_.size(); ++node_index) {
    const Node& node = nodes_[node_index];
    if (!is_leaf(node)) {
      require(node.right_or_first > static_cast<Index>(node_index) &&
                  node.right_or_first < static_cast<Index>(nodes_.size()),
              "SphereBVH::validate: bad child index");
      continue;
    }
    const AABB leaf_box = box_of(node);
    for (Index s = node.right_or_first; s < node.right_or_first + node.count; ++s) {
      require(s >= 0 && s < static_cast<Index>(prim_order_.size()),
              "SphereBVH::validate: leaf slot out of range");
      const Index prim = prim_order_[static_cast<std::size_t>(s)];
      require(seen[static_cast<std::size_t>(prim)] == 0,
              "SphereBVH::validate: primitive referenced twice");
      seen[static_cast<std::size_t>(prim)] = 1;
      const AABB sphere_box =
          AABB::of(centers[static_cast<std::size_t>(prim)], centers[static_cast<std::size_t>(prim)])
              .inflated(radius_);
      require(leaf_box.contains(sphere_box.lo) && leaf_box.contains(sphere_box.hi),
              "SphereBVH::validate: primitive outside its leaf box");
    }
  }
  for (const char s : seen)
    require(s == 1, "SphereBVH::validate: primitive missing from every leaf");
}

} // namespace eth
