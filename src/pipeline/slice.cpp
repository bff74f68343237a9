#include "pipeline/slice.hpp"

#include "common/string_util.hpp"

#include <cmath>
#include <vector>

#include "data/structured_grid.hpp"
#include "data/triangle_mesh.hpp"
#include "parallel/thread_pool.hpp"

namespace eth {

SlicePlaneExtractor::SlicePlaneExtractor(std::string field_name, Vec3f origin,
                                         Vec3f normal)
    : field_name_(std::move(field_name)), origin_(origin), normal_(normalize(normal)) {
  require(length(normal) > Real(0), "SlicePlaneExtractor: zero normal");
}

std::unique_ptr<DataSet> SlicePlaneExtractor::execute(
    const DataSet& input, cluster::PerfCounters& counters) const {
  require(input.kind() == DataSetKind::kStructuredGrid,
          "SlicePlaneExtractor: input must be a StructuredGrid");
  const auto& grid = static_cast<const StructuredGrid&>(input);
  const Field& field = grid.point_fields().get(field_name_);
  const AABB box = grid.bounds();

  auto mesh = std::make_unique<TriangleMesh>();
  Field scalars("scalar", 0, 1, FieldAssociation::kPoint);

  // In-plane orthonormal basis (u, v).
  Vec3f ref = std::abs(normal_.x) < Real(0.9) ? Vec3f{1, 0, 0} : Vec3f{0, 1, 0};
  const Vec3f u = normalize(cross(normal_, ref));
  const Vec3f v = cross(normal_, u);

  // Project the 8 box corners onto (u, v) relative to the plane point
  // closest to the box center; the resulting rectangle bounds the
  // plane/box intersection polygon.
  const Vec3f center = box.center();
  const Vec3f plane_center = center - normal_ * dot(center - origin_, normal_);
  Real ulo = 0, uhi = 0, vlo = 0, vhi = 0;
  bool first = true;
  for (int corner = 0; corner < 8; ++corner) {
    const Vec3f p{(corner & 1) ? box.hi.x : box.lo.x, (corner & 2) ? box.hi.y : box.lo.y,
                  (corner & 4) ? box.hi.z : box.lo.z};
    const Vec3f rel = p - plane_center;
    const Real pu = dot(rel, u), pv = dot(rel, v);
    if (first) {
      ulo = uhi = pu;
      vlo = vhi = pv;
      first = false;
    } else {
      ulo = std::min(ulo, pu);
      uhi = std::max(uhi, pu);
      vlo = std::min(vlo, pv);
      vhi = std::max(vhi, pv);
    }
  }

  // Does the plane intersect the box at all?
  Real dlo = 0, dhi = 0;
  first = true;
  for (int corner = 0; corner < 8; ++corner) {
    const Vec3f p{(corner & 1) ? box.hi.x : box.lo.x, (corner & 2) ? box.hi.y : box.lo.y,
                  (corner & 4) ? box.hi.z : box.lo.z};
    const Real d = dot(p - origin_, normal_);
    if (first) {
      dlo = dhi = d;
      first = false;
    } else {
      dlo = std::min(dlo, d);
      dhi = std::max(dhi, d);
    }
  }
  if (dlo > 0 || dhi < 0) {
    // Plane misses the volume: empty mesh.
    counters.bytes_read += grid.byte_size();
    mesh->point_fields().add(std::move(scalars));
    return mesh;
  }

  // Tessellate at (roughly) grid resolution so the slice resolves every
  // cell it crosses.
  const Real step = std::min({grid.spacing().x, grid.spacing().y, grid.spacing().z});
  const auto nu = std::max<Index>(2, static_cast<Index>((uhi - ulo) / step) + 1);
  const auto nv = std::max<Index>(2, static_cast<Index>((vhi - vlo) / step) + 1);

  // Vertex lattice: positions on the plane, kept when inside the
  // (slightly inflated) box; quads with all 4 corners kept are emitted.
  // The field sampling — the hot part — is row-parallel: each chunk of
  // lattice rows collects its kept vertices into a private list, and
  // the lists are appended to the mesh in ascending chunk order, which
  // reproduces the exact vertex ids the serial row-major loop assigns.
  const AABB keep_box = box.inflated(step * Real(0.5));
  std::vector<Index> vertex_id(static_cast<std::size_t>(nu * nv), -1);

  struct LatticeVertex {
    Index flat;  ///< jv * nu + iu
    Vec3f p;
    Real scalar;
  };
  const Index n_rows = nv;
  const Index n_chunks = plan_chunks(n_rows, 4);
  std::vector<std::vector<LatticeVertex>> chunk_verts(
      static_cast<std::size_t>(n_chunks));
  parallel_for_chunks(0, n_rows, n_chunks, [&](Index c, Index jv0, Index jv1) {
    std::vector<LatticeVertex>& verts = chunk_verts[static_cast<std::size_t>(c)];
    for (Index jv = jv0; jv < jv1; ++jv)
      for (Index iu = 0; iu < nu; ++iu) {
        const Real pu = ulo + (uhi - ulo) * Real(iu) / Real(nu - 1);
        const Real pv = vlo + (vhi - vlo) * Real(jv) / Real(nv - 1);
        const Vec3f p = plane_center + u * pu + v * pv;
        if (!keep_box.contains(p)) continue;
        verts.push_back({jv * nu + iu, p, grid.sample(field, p)});
      }
  });
  for (const auto& verts : chunk_verts)
    for (const LatticeVertex& lv : verts) {
      const Index id = mesh->add_vertex(lv.p, normal_);
      scalars.resize(id + 1);
      scalars.set(id, lv.scalar);
      vertex_id[static_cast<std::size_t>(lv.flat)] = id;
    }

  for (Index jv = 0; jv + 1 < nv; ++jv)
    for (Index iu = 0; iu + 1 < nu; ++iu) {
      const Index v00 = vertex_id[static_cast<std::size_t>(jv * nu + iu)];
      const Index v10 = vertex_id[static_cast<std::size_t>(jv * nu + iu + 1)];
      const Index v01 = vertex_id[static_cast<std::size_t>((jv + 1) * nu + iu)];
      const Index v11 = vertex_id[static_cast<std::size_t>((jv + 1) * nu + iu + 1)];
      if (v00 < 0 || v10 < 0 || v01 < 0 || v11 < 0) continue;
      mesh->add_triangle(v00, v10, v11);
      mesh->add_triangle(v00, v11, v01);
    }

  counters.elements_processed += nu * nv;
  counters.bytes_read += grid.byte_size();
  counters.primitives_emitted += mesh->num_triangles();
  counters.max_parallel_items = std::max(counters.max_parallel_items, nu * nv);
  counters.flop_estimate += double(nu * nv) * 30.0;
  mesh->point_fields().add(std::move(scalars));
  counters.bytes_written += mesh->byte_size();
  return mesh;
}

std::string SlicePlaneExtractor::cache_signature() const {
  return strprintf("slice field=%s o=%a,%a,%a n=%a,%a,%a", field_name_.c_str(),
                   static_cast<double>(origin_.x), static_cast<double>(origin_.y),
                   static_cast<double>(origin_.z), static_cast<double>(normal_.x),
                   static_cast<double>(normal_.y), static_cast<double>(normal_.z));
}

} // namespace eth
