#include "solver/advdiff.hpp"

#include <cmath>
#include <mutex>

#include "runtime/exchange.hpp"
#include "solver/testt.hpp"

namespace meshpar::solver {

using overlap::Decomposition;
using overlap::SubMesh;

namespace {

/// Assembles one step's nodal residual from triangle fluxes. Works on any
/// (sub)mesh given per-triangle node ids, coordinates and areas.
/// Returns the flop count.
double assemble_residual(const mesh::Mesh2D& m,
                         const std::vector<double>& tri_area,
                         const std::vector<double>& u,
                         const AdvDiffParams& p, std::vector<double>& rhs) {
  const int ntri = m.num_tris();
  double flops = 0;
  for (int t = 0; t < ntri; ++t) {
    const auto& tri = m.tris[t];
    const int a = tri[0], b = tri[1], c = tri[2];
    const double area = tri_area[t];
    for (int rep = 0; rep < p.work; ++rep) {
      // P1 gradient of u on the triangle.
      double bx[3], by[3];
      bx[0] = m.y[b] - m.y[c];
      by[0] = m.x[c] - m.x[b];
      bx[1] = m.y[c] - m.y[a];
      by[1] = m.x[a] - m.x[c];
      bx[2] = m.y[a] - m.y[b];
      by[2] = m.x[b] - m.x[a];
      double gx = 0, gy = 0;
      const double inv2a = 1.0 / (2.0 * area);
      for (int k = 0; k < 3; ++k) {
        gx += u[tri[k]] * bx[k] * inv2a;
        gy += u[tri[k]] * by[k] * inv2a;
      }
      // Advective + diffusive contribution per vertex.
      const double adv = p.vx * gx + p.vy * gy;
      for (int k = 0; k < 3; ++k) {
        double diff = -p.kappa * (gx * bx[k] + gy * by[k]) * 0.5;
        rhs[tri[k]] += (-adv * area / 3.0 + diff) * (rep == p.work - 1);
      }
    }
    flops += 40.0 * p.work;
  }
  return flops;
}

}  // namespace

std::vector<double> advdiff_sequential(const mesh::Mesh2D& m,
                                       const std::vector<double>& u0,
                                       const AdvDiffParams& p) {
  std::vector<double> u = u0, rhs(m.num_nodes());
  for (int s = 0; s < p.steps; ++s) {
    std::fill(rhs.begin(), rhs.end(), 0.0);
    assemble_residual(m, m.tri_area, u, p, rhs);
    for (int n = 0; n < m.num_nodes(); ++n)
      u[n] += p.dt * rhs[n] / m.node_area[n];
    if (p.norm_every > 0 && (s + 1) % p.norm_every == 0) {
      double norm = 0;
      for (double v : u) norm += v * v;
      (void)norm;  // the sequential run only mirrors the reduction's cost
    }
  }
  return u;
}

std::vector<double> advdiff_spmd(runtime::World& world, const mesh::Mesh2D& m,
                                 const overlap::Decomposition& d,
                                 const std::vector<double>& u0,
                                 const AdvDiffParams& p) {
  std::vector<double> out;
  std::mutex out_mu;
  world.run([&](runtime::Rank& rank) {
    const int me = rank.id();
    const SubMesh& sub = d.subs[me];
    const runtime::Exchanger ex(d, me);
    const int nl = sub.local.num_nodes();

    std::vector<double> u(nl), rhs(nl), area_n(nl), area_t;
    for (int l = 0; l < nl; ++l) {
      u[l] = u0[sub.node_l2g[l]];
      area_n[l] = m.node_area[sub.node_l2g[l]];
    }
    area_t.reserve(sub.tri_l2g.size());
    for (int g : sub.tri_l2g) area_t.push_back(m.tri_area[g]);

    for (int s = 0; s < p.steps; ++s) {
      std::fill(rhs.begin(), rhs.end(), 0.0);
      // C$ITERATION DOMAIN: OVERLAP — all local triangles.
      rank.add_flops(assemble_residual(sub.local, area_t, u, p, rhs));
      for (int n = 0; n < nl; ++n) u[n] += p.dt * rhs[n] / area_n[n];
      rank.add_flops(3.0 * nl);
      // C$SYNCHRONIZE METHOD: overlap-som ON ARRAY: u
      ex.update(rank, u);
      if (p.norm_every > 0 && (s + 1) % p.norm_every == 0) {
        double partial = 0;
        for (int n = 0; n < sub.num_kernel_nodes; ++n) partial += u[n] * u[n];
        rank.add_flops(2.0 * sub.num_kernel_nodes);
        // C$SYNCHRONIZE METHOD: + reduction ON SCALAR: norm
        (void)rank.allreduce_sum(partial);
      }
    }

    std::vector<double> global = gather_field(rank, d, u, m.num_nodes());
    if (me == 0) {
      std::lock_guard<std::mutex> lock(out_mu);
      out = std::move(global);
    }
  });
  return out;
}

}  // namespace meshpar::solver
