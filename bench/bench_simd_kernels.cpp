// bench_simd_kernels — per-kernel scalar-vs-vector throughput for the
// SIMD kernel table (DESIGN.md §14).
//
// Each row times ONE kernel two ways on identical inputs: the scalar
// loop exactly as the call site's fallback writes it, and the widest
// vector table this build dispatches (`native`: AVX2 when available,
// else the 4-wide build). Outputs are memcmp'd — the speedup column is
// only meaningful because the results are bit-identical, which is the
// whole point of the lane abstraction. sphere_packet and march_iso are
// timed through the sphere and volume raycasters (their scalar twins
// are SphereBVH::intersect and the loop inside render_volume_scene),
// with ETH_SIMD pinned per run via the dispatch override; the
// sphere_packet row runs both sides on a one-worker pool.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <vector>

#include "bench_common.hpp"
#include "common/rng.hpp"
#include "common/simd.hpp"
#include "common/simd_kernels.hpp"
#include "common/timer.hpp"
#include "data/structured_grid.hpp"
#include "insitu/viz.hpp"
#include "parallel/thread_pool.hpp"
#include "render/ray/raycaster.hpp"
#include "sim/hacc_generator.hpp"

namespace eth::bench {
namespace {

constexpr int kRepeats = 5;

double best_of(const std::function<void()>& fn) {
  double best = 1e30;
  for (int r = 0; r < kRepeats; ++r) {
    WallTimer timer;
    fn();
    best = std::min(best, timer.elapsed());
  }
  return best;
}

const simd::KernelTable* native_table() {
  return simd::kernels_w8() != nullptr ? simd::kernels_w8() : simd::kernels_w4();
}

struct Row {
  std::string kernel;
  Index n = 0;
  double scalar_s = 0;
  double simd_s = 0;
  bool identical = false;
};

// ------------------------------------------------------------ bvh packet

Row bench_sphere_packet() {
  // One rank's share of hacc-explore: slab 0 of 64 of a 400k-particle,
  // 64-halo box, rendered by the harness camera's quarter orbit of 8
  // images at 256^2. The scalar side traces each pixel of the root box's
  // screen rectangle with SphereBVH::intersect, the vector side traces
  // row packets through sphere_packet.
  sim::HaccParams params;
  params.num_particles = 400'000;
  params.num_halos = 64;
  params.seed = 1000;
  const auto slab = sim::generate_hacc_rank(params, 0, 64);
  const SphereRaycastOptions options;
  RaycastRenderer renderer;
  cluster::PerfCounters build_c;
  renderer.build_spheres(*slab, options, build_c);
  const Camera camera =
      Camera::framing(AABB::of({0, 0, 0}, Vec3f{1, 1, 1} * params.box_size),
                      normalize(Vec3f{-0.55f, -0.4f, -0.73f}));
  const Index image_dim = 256, n_images = 8;

  struct Frames {
    std::vector<ImageBuffer> images;
    Index nodes_visited = 0;
  };
  const auto render = [&](Frames& out) {
    out.images.assign(std::size_t(n_images), ImageBuffer(image_dim, image_dim));
    return best_of([&] {
      cluster::PerfCounters c;
      for (Index i = 0; i < n_images; ++i)
        renderer.render_spheres(*slab, insitu::camera_for_image(camera, i, n_images),
                                out.images[std::size_t(i)], options, c);
      out.nodes_visited = c.bvh_nodes_visited;
    });
  };

  Row row{"sphere_packet(raycast_spheres)", n_images * image_dim * image_dim, 0, 0,
          false};
  Frames scalar, simd;
  // Both sides at one pool thread, as bench_parallel_render times its
  // one-worker column: the row then compares traversals, not how the
  // pool's workers were scheduled (at the default pool the 8 images
  // take only 7-20 ms, so a little CPU steal moved the ratio).
  ThreadPool pool(1);
  set_global_pool(&pool);
  simd::set_isa_override("scalar");
  row.scalar_s = render(scalar);
  simd::set_isa_override("native");
  row.simd_s = render(simd);
  simd::set_isa_override(nullptr);
  set_global_pool(nullptr);
  row.identical = scalar.nodes_visited == simd.nodes_visited;
  for (std::size_t i = 0; i < scalar.images.size(); ++i) {
    const ImageBuffer& a = scalar.images[i];
    const ImageBuffer& b = simd.images[i];
    row.identical = row.identical &&
                    std::memcmp(a.colors().data(), b.colors().data(),
                                a.colors().size() * sizeof(Vec4f)) == 0 &&
                    std::memcmp(a.depths().data(), b.depths().data(),
                                a.depths().size() * sizeof(Real)) == 0;
  }
  return row;
}

// ----------------------------------------------------------- iso march

Row bench_march_iso() {
  const Index dim = 96, image_dim = 256;
  const Real step = Real(6) / Real(dim - 1);
  auto grid = std::make_shared<StructuredGrid>(Vec3i{int(dim), int(dim), int(dim)},
                                               Vec3f{-3, -3, -3},
                                               Vec3f{step, step, step});
  Field& f = grid->add_scalar_field("v");
  for (Index k = 0; k < dim; ++k)
    for (Index j = 0; j < dim; ++j)
      for (Index i = 0; i < dim; ++i) {
        const Vec3f p = grid->point_position(i, j, k);
        f.set(grid->point_index(i, j, k),
              std::sin(p.x * Real(1.3)) * std::cos(p.y) + Real(0.3) * p.z);
      }
  const Camera camera({0, 0, 10}, {0, 0, 0}, {0, 1, 0}, 0.6f, 0.1f, 100);
  RaycastRenderer renderer;

  const auto render = [&] {
    ImageBuffer img(image_dim, image_dim);
    img.clear();
    cluster::PerfCounters c;
    IsoRaycastOptions iso;
    iso.isovalue = 0.4f;
    renderer.render_volume_scene(*grid, "v", camera, img, iso, {}, c);
    return img;
  };

  Row row{"march_iso(raycast_volume)", image_dim * image_dim, 0, 0, false};
  ImageBuffer scalar_img, simd_img;
  {
    simd::set_isa_override("scalar");
    row.scalar_s = best_of([&] { scalar_img = render(); });
  }
  {
    simd::set_isa_override("native");
    row.simd_s = best_of([&] { simd_img = render(); });
  }
  simd::set_isa_override(nullptr);
  row.identical =
      std::memcmp(scalar_img.colors().data(), simd_img.colors().data(),
                  scalar_img.colors().size() * sizeof(Vec4f)) == 0 &&
      std::memcmp(scalar_img.depths().data(), simd_img.depths().data(),
                  scalar_img.depths().size() * sizeof(Real)) == 0;
  return row;
}

// ------------------------------------------------- blends / depth merge

struct PixelRun {
  std::vector<float> rgba_a, rgba_b, depth_a, depth_b;
};

PixelRun make_pixels(Index n) {
  Rng rng(11);
  PixelRun p;
  p.rgba_a.resize(std::size_t(4 * n));
  p.rgba_b.resize(std::size_t(4 * n));
  p.depth_a.resize(std::size_t(n));
  p.depth_b.resize(std::size_t(n));
  for (Index i = 0; i < 4 * n; ++i) {
    p.rgba_a[std::size_t(i)] = Real(rng.uniform());
    p.rgba_b[std::size_t(i)] = Real(rng.uniform());
  }
  // ~50/50 depth winners: both merge branches stay hot.
  for (Index i = 0; i < n; ++i) {
    p.depth_a[std::size_t(i)] = Real(rng.uniform(0, 2));
    p.depth_b[std::size_t(i)] = Real(rng.uniform(0, 2));
  }
  return p;
}

Row bench_depth_merge() {
  const Index n = 1 << 20;
  const PixelRun base = make_pixels(n);
  std::vector<float> s_rgba, s_depth, v_rgba, v_depth;

  Row row{"depth_merge", n, 0, 0, false};
  row.scalar_s = best_of([&] {
    s_rgba = base.rgba_a;
    s_depth = base.depth_a;
    for (Index p = 0; p < n; ++p) {
      const auto sp = std::size_t(p);
      if (base.depth_b[sp] < s_depth[sp]) {
        s_depth[sp] = base.depth_b[sp];
        std::memcpy(&s_rgba[4 * sp], &base.rgba_b[4 * sp], 4 * sizeof(float));
      }
    }
  });
  const simd::KernelTable* table = native_table();
  row.simd_s = best_of([&] {
    v_rgba = base.rgba_a;
    v_depth = base.depth_a;
    table->depth_merge(v_rgba.data(), v_depth.data(), base.rgba_b.data(),
                       base.depth_b.data(), n);
  });
  row.identical = s_rgba == v_rgba &&
                  std::memcmp(s_depth.data(), v_depth.data(),
                              s_depth.size() * sizeof(float)) == 0;
  return row;
}

Row bench_premul_blend() {
  const Index n = 1 << 20;
  const PixelRun base = make_pixels(n);
  std::vector<float> s_rgba, s_depth, v_rgba, v_depth;

  Row row{"premul_blend", n, 0, 0, false};
  row.scalar_s = best_of([&] {
    s_rgba = base.rgba_a;
    s_depth = base.depth_a;
    for (Index p = 0; p < n; ++p) {
      const auto sp = std::size_t(p);
      const float sw = base.rgba_b[4 * sp + 3];
      if (sw <= 0) continue;
      const float trans = 1.0f - s_rgba[4 * sp + 3];
      for (int c = 0; c < 4; ++c)
        s_rgba[4 * sp + c] = s_rgba[4 * sp + c] + base.rgba_b[4 * sp + c] * trans;
      if (base.depth_b[sp] < s_depth[sp]) s_depth[sp] = base.depth_b[sp];
    }
  });
  const simd::KernelTable* table = native_table();
  row.simd_s = best_of([&] {
    v_rgba = base.rgba_a;
    v_depth = base.depth_a;
    table->premul_blend(v_rgba.data(), v_depth.data(), base.rgba_b.data(),
                        base.depth_b.data(), n);
  });
  row.identical = s_rgba == v_rgba && s_depth == v_depth;
  return row;
}

// ------------------------------------------------------- stride gather

Row bench_stride_copy() {
  const Index n = 1 << 20, stride = 2;
  const Index max_src = n * stride - 1;
  Rng rng(17);
  std::vector<float> src(static_cast<std::size_t>(n * stride));
  for (auto& v : src) v = Real(rng.uniform());
  std::vector<float> s_dst(static_cast<std::size_t>(n)), v_dst(static_cast<std::size_t>(n));

  Row row{"stride_copy", n, 0, 0, false};
  row.scalar_s = best_of([&] {
    for (Index i = 0; i < n; ++i)
      s_dst[std::size_t(i)] = src[std::size_t(std::min(i * stride, max_src))];
  });
  const simd::KernelTable* table = native_table();
  row.simd_s =
      best_of([&] { table->stride_copy(src.data(), v_dst.data(), n, stride, max_src); });
  row.identical = s_dst == v_dst;
  return row;
}

} // namespace
} // namespace eth::bench

int main() {
  using namespace eth;
  using namespace eth::bench;

  print_header("bench_simd_kernels", "the SIMD lane tentpole (DESIGN.md §14)",
               "Scalar loop vs dispatched vector kernel, identical inputs, "
               "bit-identical outputs.");
  std::printf("vector table: %s (width %d)\n", native_table()->name,
              native_table()->width);

  const std::vector<Row> rows = {
      bench_sphere_packet(), bench_march_iso(),   bench_depth_merge(),
      bench_premul_blend(),   bench_stride_copy(),
  };

  ResultTable table({"kernel", "elements", "scalar_s", "simd_s", "speedup",
                     "identical"});
  bool all_identical = true;
  double packet_speedup = 0, blend_speedup = 0;
  for (const Row& row : rows) {
    const double speedup = row.scalar_s / row.simd_s;
    all_identical = all_identical && row.identical;
    if (row.kernel == "sphere_packet(raycast_spheres)") packet_speedup = speedup;
    if (row.kernel == "depth_merge" || row.kernel == "premul_blend")
      blend_speedup = std::max(blend_speedup, speedup);
    table.begin_row();
    table.add_cell(row.kernel);
    table.add_cell(row.n);
    table.add_cell(row.scalar_s, "%.5f");
    table.add_cell(row.simd_s, "%.5f");
    table.add_cell(speedup, "%.2f");
    table.add_cell(row.identical ? "yes" : "NO");
  }

  std::printf("%s\n", table.to_text().c_str());
  check_shape(all_identical, "vector outputs bit-identical to scalar loops");
  check_shape(packet_speedup >= 2.0, "BVH packet traversal >= 2x over scalar");
  check_shape(blend_speedup >= 2.0, "compositor blend >= 2x over scalar");
  save_table(table, "simd_kernels");
  return 0;
}
