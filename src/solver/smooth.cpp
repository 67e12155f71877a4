#include "solver/smooth.hpp"

#include <mutex>

#include "runtime/exchange.hpp"
#include "runtime/inspector.hpp"
#include "solver/testt.hpp"

namespace meshpar::solver {

using overlap::Decomposition;
using overlap::SubMesh;

namespace {

/// One smoothing step on an arbitrary (sub)mesh: new = scatter(old) over
/// the first `ntri` triangles, normalized by the (global) node areas, for
/// the first `nnode` nodes.
void step(const std::vector<std::array<int, 3>>& tris,
          const std::vector<double>& tri_area,
          const std::vector<double>& node_area, int ntri, int nnode,
          const std::vector<double>& u, std::vector<double>& out) {
  std::vector<double> acc(u.size(), 0.0);
  for (int t = 0; t < ntri; ++t) {
    const auto& tri = tris[t];
    double vm = (u[tri[0]] + u[tri[1]] + u[tri[2]]) * tri_area[t] / 18.0;
    for (int v : tri) acc[v] += vm / node_area[v];
  }
  for (int n = 0; n < nnode; ++n) out[n] = acc[n];
}

}  // namespace

std::vector<double> smooth_sequential(const mesh::Mesh2D& m,
                                      const std::vector<double>& u0,
                                      int steps) {
  std::vector<double> u = u0, next(u0.size());
  for (int s = 0; s < steps; ++s) {
    step(m.tris, m.tri_area, m.node_area, m.num_tris(), m.num_nodes(), u,
         next);
    u = next;
  }
  return u;
}

std::vector<double> smooth_spmd(runtime::World& world, const mesh::Mesh2D& m,
                                const Decomposition& d,
                                const std::vector<double>& u0, int steps) {
  std::vector<double> out;
  std::mutex out_mu;
  const int depth = d.depth;

  world.run([&](runtime::Rank& rank) {
    const SubMesh& sub = d.subs[rank.id()];
    const runtime::Exchanger ex(d, rank.id());
    const int nl = sub.local.num_nodes();

    std::vector<double> u(nl), next(nl), area_n(nl), area_t;
    for (int l = 0; l < nl; ++l) {
      u[l] = u0[sub.node_l2g[l]];
      area_n[l] = m.node_area[sub.node_l2g[l]];
    }
    for (int g : sub.tri_l2g) area_t.push_back(m.tri_area[g]);

    for (int s = 0; s < steps; ++s) {
      int phase = s % depth;
      if (phase == 0 && s > 0) {
        // C$SYNCHRONIZE METHOD: overlap-som ON ARRAY: u  (every D steps)
        ex.update(rank, u);
      }
      // C$ITERATION DOMAIN: OVERLAP:(depth - phase) triangles, writing the
      // nodes still valid after this step.
      int ntri = sub.tris_up_to_layer(depth - phase);
      int nnode = sub.nodes_up_to_layer(depth - phase - 1);
      next = u;  // keep stale halo entries unchanged beyond the domain
      step(sub.local.tris, area_t, area_n, ntri, nnode, u, next);
      rank.add_flops(11.0 * ntri + nnode);
      u = next;
    }
    // Final update so every rank ends coherent.
    ex.update(rank, u);

    std::vector<double> global = gather_field(rank, d, u, m.num_nodes());
    if (rank.id() == 0) {
      std::lock_guard<std::mutex> lock(out_mu);
      out = std::move(global);
    }
  });
  return out;
}

std::vector<double> smooth_spmd_inspector(runtime::World& world,
                                          const mesh::Mesh2D& m,
                                          const partition::NodePartition& p,
                                          const std::vector<double>& u0,
                                          int steps, InspectorStats* stats) {
  std::vector<double> out;
  InspectorStats local_stats;
  std::mutex out_mu;
  std::vector<int> tri_owner = partition::triangle_owners(m, p);

  world.run([&](runtime::Rank& rank) {
    const int me = rank.id();
    // What this rank knows a priori: owned nodes, owned triangles (global
    // numbering), and the ownership map. No overlap information.
    runtime::InspectorInput input;
    for (int n = 0; n < m.num_nodes(); ++n)
      if (p.part_of[n] == me) input.owned_nodes.push_back(n);
    for (int t = 0; t < m.num_tris(); ++t)
      if (tri_owner[t] == me) input.tris_global.push_back(m.tris[t]);
    input.node_owner = p.part_of;

    runtime::InspectorSchedule sched = runtime::inspect(rank, input);
    const int nl = sched.num_local();

    std::vector<double> u(nl), acc(nl), area_n(nl), area_t;
    for (int l = 0; l < nl; ++l) {
      u[l] = u0[sched.local_to_global[l]];
      area_n[l] = m.node_area[sched.local_to_global[l]];
    }
    for (int t = 0; t < m.num_tris(); ++t)
      if (tri_owner[t] == me) area_t.push_back(m.tri_area[t]);

    for (int s = 0; s < steps; ++s) {
      // Gather exchange: refresh ghost copies of u. (The initial u is
      // globally known, so the first step's gather is skipped.)
      if (s > 0) runtime::executor_update(rank, sched, u);
      std::fill(acc.begin(), acc.end(), 0.0);
      for (std::size_t t = 0; t < sched.tris_local.size(); ++t) {
        const auto& tri = sched.tris_local[t];
        double vm = (u[tri[0]] + u[tri[1]] + u[tri[2]]) * area_t[t] / 18.0;
        for (int v : tri) acc[v] += vm / area_n[v];
      }
      rank.add_flops(11.0 * static_cast<double>(sched.tris_local.size()));
      // Scatter exchange: ghost partials accumulate into their owners.
      runtime::executor_scatter_add(rank, sched, acc);
      for (int n = 0; n < sched.num_owned; ++n) u[n] = acc[n];
      rank.add_flops(sched.num_owned);
    }
    // Final gather so the gathered field is coherent (parity with
    // smooth_spmd's trailing update).
    runtime::executor_update(rank, sched, u);

    // Reassemble on rank 0 (owned prefix, like gather_field but over the
    // inspector's numbering).
    constexpr int kGatherTag = 920;
    std::vector<double> owned(u.begin(), u.begin() + sched.num_owned);
    std::vector<double> owned_ids(sched.local_to_global.begin(),
                                  sched.local_to_global.begin() +
                                      sched.num_owned);
    if (me != 0) {
      rank.send(0, kGatherTag, owned_ids);
      rank.send(0, kGatherTag + 1, owned);
    }
    std::lock_guard<std::mutex> lock(out_mu);
    local_stats.inspector_msgs += sched.inspector_msgs;
    local_stats.inspector_bytes += sched.inspector_bytes;
    if (me == 0) {
      out.assign(m.num_nodes(), 0.0);
      for (int l = 0; l < sched.num_owned; ++l)
        out[sched.local_to_global[l]] = u[l];
      for (int r = 1; r < rank.size(); ++r) {
        std::vector<double> ids = rank.recv(r, kGatherTag);
        std::vector<double> vals = rank.recv(r, kGatherTag + 1);
        for (std::size_t i = 0; i < ids.size(); ++i)
          out[static_cast<int>(ids[i])] = vals[i];
      }
    }
  });
  if (stats) *stats = local_stats;
  return out;
}

namespace {

void step3d(const std::vector<std::array<int, 4>>& tets,
            const std::vector<double>& tet_vol,
            const std::vector<double>& node_vol, int ntet, int nnode,
            const std::vector<double>& u, std::vector<double>& out) {
  std::vector<double> acc(u.size(), 0.0);
  for (int t = 0; t < ntet; ++t) {
    const auto& tet = tets[t];
    double vm = (u[tet[0]] + u[tet[1]] + u[tet[2]] + u[tet[3]]) *
                tet_vol[t] / 32.0;
    for (int v : tet) acc[v] += vm / node_vol[v];
  }
  for (int n = 0; n < nnode; ++n) out[n] = acc[n];
}

}  // namespace

std::vector<double> smooth3d_sequential(const mesh::Mesh3D& m,
                                        const std::vector<double>& u0,
                                        int steps) {
  std::vector<double> u = u0, next(u0.size());
  for (int s = 0; s < steps; ++s) {
    step3d(m.tets, m.tet_volume, m.node_volume, m.num_tets(), m.num_nodes(),
           u, next);
    u = next;
  }
  return u;
}

std::vector<double> smooth3d_spmd(runtime::World& world,
                                  const mesh::Mesh3D& m,
                                  const overlap::Decomposition3D& d,
                                  const std::vector<double>& u0, int steps) {
  std::vector<double> out;
  std::mutex out_mu;
  const int depth = d.depth;

  world.run([&](runtime::Rank& rank) {
    const overlap::SubMesh3D& sub = d.subs[rank.id()];
    const runtime::Exchanger ex(d.sends[rank.id()], d.recvs[rank.id()],
                                rank.id());
    const int nl = static_cast<int>(sub.node_l2g.size());

    std::vector<double> u(nl), next(nl), vol_n(nl), vol_t;
    for (int l = 0; l < nl; ++l) {
      u[l] = u0[sub.node_l2g[l]];
      vol_n[l] = m.node_volume[sub.node_l2g[l]];
    }
    for (int g : sub.tet_l2g) vol_t.push_back(m.tet_volume[g]);

    for (int s = 0; s < steps; ++s) {
      int phase = s % depth;
      if (phase == 0 && s > 0) ex.update(rank, u);
      int ntet = sub.tets_up_to_layer(depth - phase);
      int nnode = sub.nodes_up_to_layer(depth - phase - 1);
      next = u;
      step3d(sub.local.tets, vol_t, vol_n, ntet, nnode, u, next);
      rank.add_flops(14.0 * ntet + nnode);
      u = next;
    }
    ex.update(rank, u);

    // Gather owned values to rank 0.
    constexpr int kGatherTag = 930;
    std::vector<double> kernel(u.begin(), u.begin() + sub.num_kernel_nodes);
    if (rank.id() != 0) {
      rank.send(0, kGatherTag, kernel);
      return;
    }
    std::vector<double> global(m.num_nodes(), 0.0);
    auto place = [&](int part, const std::vector<double>& values) {
      const overlap::SubMesh3D& s2 = d.subs[part];
      for (int l = 0; l < s2.num_kernel_nodes; ++l)
        global[s2.node_l2g[l]] = values[l];
    };
    place(0, kernel);
    for (int r = 1; r < rank.size(); ++r) place(r, rank.recv(r, kGatherTag));
    std::lock_guard<std::mutex> lock(out_mu);
    out = std::move(global);
  });
  return out;
}

}  // namespace meshpar::solver
