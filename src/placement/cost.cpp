#include "placement/cost.hpp"

#include <set>
#include <utility>

#include "mesh/generators.hpp"
#include "placement/model.hpp"
#include "support/source_location.hpp"

namespace meshpar::placement {

CostReport simulate_cost(const ProgramModel& model, const Placement& p,
                         const overlap::Decomposition& d) {
  CostReport r;
  r.syncs = p.syncs.size();
  r.syncs_in_cycle = p.syncs_in_cycle();

  const long long parts = d.parts();
  long long doubles = 0;
  // Fused syncs (same fuse_group + point + action) share one aggregated
  // exchange: the per-message cost is paid once per group, the payload once
  // per member.
  std::set<std::pair<const lang::Stmt*, int>> counted_groups;
  for (const SyncPoint& sp : p.syncs) {
    switch (sp.action) {
      case automaton::CommAction::kUpdateCopy:
      case automaton::CommAction::kAssembleAdd:
        if (sp.fuse_group < 0 ||
            counted_groups.insert({sp.before, sp.fuse_group}).second)
          r.messages += d.exchange_messages();
        doubles += d.exchange_volume();
        break;
      case automaton::CommAction::kReduceScalar:
        // Gather to rank 0 and broadcast, one double each way — exactly
        // what Rank::allreduce_sum costs in the runtime.
        r.messages += 2 * (parts - 1);
        doubles += 2 * (parts - 1);
        break;
      case automaton::CommAction::kNone:
        break;
    }
  }
  r.bytes = doubles * static_cast<long long>(sizeof(double));

  for (const LoopDomain& dom : p.domains) {
    if (!dom.loop) continue;
    const LoopRule* rule = model.partition_rule(*dom.loop);
    if (!rule) continue;
    LoopCost lc;
    lc.loop = "do@" + to_string(dom.loop->loc);
    lc.layers = dom.layers;
    if (rule->entity == automaton::EntityKind::kNode) {
      lc.entity = "node";
      for (const overlap::SubMesh& sub : d.subs) {
        lc.domain_cells += sub.nodes_up_to_layer(dom.layers);
        lc.kernel_cells += sub.num_kernel_nodes;
      }
    } else if (rule->entity == automaton::EntityKind::kTriangle) {
      lc.entity = "triangle";
      for (const overlap::SubMesh& sub : d.subs) {
        lc.domain_cells += sub.tris_up_to_layer(dom.layers);
        lc.kernel_cells += sub.num_owned_tris();
      }
    } else {
      continue;  // 3-D entities are outside the 2-D example mesh's scope
    }
    r.loops.push_back(std::move(lc));
  }
  return r;
}

overlap::Decomposition decomposition_for(const ProgramModel& model,
                                         const mesh::Mesh2D& m, int parts) {
  const partition::NodePartition part =
      partition::partition_nodes(m, parts, partition::Algorithm::kRcb);
  return model.autom().pattern() == automaton::PatternKind::kNodeBoundary
             ? overlap::decompose_node_boundary(m, part)
             : overlap::decompose_entity_layer(m, part,
                                               model.autom().halo_depth());
}

overlap::Decomposition example_decomposition(const ProgramModel& model,
                                             mesh::Mesh2D* mesh_out) {
  mesh::Mesh2D m = mesh::rectangle(10, 10);
  overlap::Decomposition d = decomposition_for(model, m, /*parts=*/3);
  if (mesh_out) *mesh_out = std::move(m);
  return d;
}

}  // namespace meshpar::placement
