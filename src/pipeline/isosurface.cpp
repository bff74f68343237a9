#include "pipeline/isosurface.hpp"

#include "common/string_util.hpp"

#include <vector>

#include "common/timer.hpp"
#include "data/structured_grid.hpp"
#include "data/triangle_mesh.hpp"
#include "parallel/thread_pool.hpp"

namespace eth {

namespace {

// Kuhn 6-tetrahedron decomposition of the unit cube around the main
// diagonal (corner 0 -> corner 6); translation-invariant, so adjacent
// cells agree on shared faces and the contour is watertight.
constexpr int kTets[6][4] = {
    {0, 1, 2, 6}, {0, 2, 3, 6}, {0, 3, 7, 6},
    {0, 7, 4, 6}, {0, 4, 5, 6}, {0, 5, 1, 6},
};

struct TetVertex {
  Vec3f position;
  Real value;
};

/// Interpolated crossing point on the edge (a, b) at `iso`.
Vec3f edge_crossing(const TetVertex& a, const TetVertex& b, Real iso) {
  const Real denom = b.value - a.value;
  const Real t = denom != Real(0) ? clamp((iso - a.value) / denom, Real(0), Real(1))
                                  : Real(0.5);
  return lerp(a.position, b.position, t);
}

/// Contour a single tetrahedron; appends 0, 1 or 2 triangles.
/// Orientation follows the field gradient (front faces look toward
/// lower values); downstream shading is two-sided so only consistency
/// matters.
void contour_tet(const TetVertex v[4], Real iso, std::vector<Vec3f>& out) {
  int inside[4], n_in = 0;
  int outside[4], n_out = 0;
  for (int i = 0; i < 4; ++i) {
    if (v[i].value >= iso)
      inside[n_in++] = i;
    else
      outside[n_out++] = i;
  }
  if (n_in == 0 || n_in == 4) return;

  if (n_in == 1 || n_in == 3) {
    // One vertex isolated: a single triangle between its three edges.
    const int apex = n_in == 1 ? inside[0] : outside[0];
    const int* base = n_in == 1 ? outside : inside;
    const Vec3f p0 = edge_crossing(v[apex], v[base[0]], iso);
    const Vec3f p1 = edge_crossing(v[apex], v[base[1]], iso);
    const Vec3f p2 = edge_crossing(v[apex], v[base[2]], iso);
    out.push_back(p0);
    out.push_back(p1);
    out.push_back(p2);
    return;
  }

  // 2-2 split: quad across four edges, emitted as two triangles.
  const int a0 = inside[0], a1 = inside[1];
  const int b0 = outside[0], b1 = outside[1];
  const Vec3f p00 = edge_crossing(v[a0], v[b0], iso);
  const Vec3f p01 = edge_crossing(v[a0], v[b1], iso);
  const Vec3f p10 = edge_crossing(v[a1], v[b0], iso);
  const Vec3f p11 = edge_crossing(v[a1], v[b1], iso);
  out.push_back(p00);
  out.push_back(p01);
  out.push_back(p11);
  out.push_back(p00);
  out.push_back(p11);
  out.push_back(p10);
}

} // namespace

IsosurfaceExtractor::IsosurfaceExtractor(std::string field_name, Real isovalue)
    : field_name_(std::move(field_name)), isovalue_(isovalue) {}

std::unique_ptr<DataSet> IsosurfaceExtractor::execute(
    const DataSet& input, cluster::PerfCounters& counters) const {
  require(input.kind() == DataSetKind::kStructuredGrid,
          "IsosurfaceExtractor: input must be a StructuredGrid");
  const auto& grid = static_cast<const StructuredGrid&>(input);
  const Field& field = grid.point_fields().get(field_name_);

  const Vec3i cells = grid.cell_dims();
  counters.elements_processed += grid.num_cells();
  counters.bytes_read += grid.byte_size();
  counters.max_parallel_items =
      std::max(counters.max_parallel_items, grid.num_cells());

  // Parallel over z-slabs; each chunk emits into a private soup, merged
  // in chunk order for determinism.
  const Index nz = cells.z;
  const Index n_chunks = std::min<Index>(std::max<Index>(1, nz), 64);
  std::vector<std::vector<Vec3f>> soups(static_cast<std::size_t>(n_chunks));

  parallel_for(0, n_chunks, 1, [&](Index c0, Index c1) {
    for (Index c = c0; c < c1; ++c) {
      const Index k_begin = nz * c / n_chunks;
      const Index k_end = nz * (c + 1) / n_chunks;
      std::vector<Vec3f>& soup = soups[static_cast<std::size_t>(c)];
      for (Index k = k_begin; k < k_end; ++k)
        for (Index j = 0; j < cells.y; ++j)
          for (Index i = 0; i < cells.x; ++i) {
            const std::array<Real, 8> corner = grid.cell_corners(field, i, j, k);
            // Cheap cell rejection first — the common case by far.
            Real lo = corner[0], hi = corner[0];
            for (int c8 = 1; c8 < 8; ++c8) {
              lo = std::min(lo, corner[static_cast<std::size_t>(c8)]);
              hi = std::max(hi, corner[static_cast<std::size_t>(c8)]);
            }
            if (isovalue_ < lo || isovalue_ > hi) continue;

            for (const auto& tet : kTets) {
              TetVertex v[4];
              for (int t = 0; t < 4; ++t)
                v[t] = TetVertex{grid.cell_corner_position(i, j, k, tet[t]),
                                 corner[static_cast<std::size_t>(tet[t])]};
              contour_tet(v, isovalue_, soup);
            }
          }
    }
  });

  auto mesh = std::make_unique<TriangleMesh>();
  Index total_verts = 0;
  for (const auto& soup : soups) total_verts += static_cast<Index>(soup.size());
  mesh->reserve(total_verts, total_verts / 3);

  for (const auto& soup : soups) {
    for (std::size_t t = 0; t + 3 <= soup.size(); t += 3) {
      Index idx[3];
      for (int corner = 0; corner < 3; ++corner) {
        const Vec3f p = soup[t + static_cast<std::size_t>(corner)];
        idx[corner] = mesh->add_vertex(p, -normalize(grid.gradient(field, p)));
      }
      mesh->add_triangle(idx[0], idx[1], idx[2]);
    }
  }

  counters.primitives_emitted += mesh->num_triangles();
  counters.bytes_written += mesh->byte_size();
  counters.flop_estimate += double(grid.num_cells()) * 16.0 +
                            double(mesh->num_triangles()) * 60.0;
  return mesh;
}

std::string IsosurfaceExtractor::cache_signature() const {
  return strprintf("isosurface field=%s iso=%a", field_name_.c_str(),
                   static_cast<double>(isovalue_));
}

} // namespace eth
