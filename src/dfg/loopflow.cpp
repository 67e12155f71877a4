#include "dfg/loopflow.hpp"

#include <deque>
#include <set>

namespace meshpar::dfg {

bool path_inside_loop(const Cfg& cfg, const std::vector<StmtDefUse>& defuse,
                      NodeId from, NodeId to, const lang::Stmt& loop, int var) {
  NodeId header = cfg.node_of(loop);
  auto allowed = [&](NodeId n) {
    if (n == header) return true;
    const lang::Stmt* s = cfg.stmt(n);
    return s && cfg.inside(*s, loop);
  };
  auto kills = [&](NodeId n) {
    const lang::Stmt* s = cfg.stmt(n);
    if (!s) return false;
    const StmtDefUse& du = defuse[s->id];
    return du.def && du.kills() && du.def->var == var;
  };
  std::set<NodeId> seen;
  std::deque<NodeId> q;
  for (NodeId s : cfg.succs(from)) {
    if (!allowed(s)) continue;
    if (seen.insert(s).second) q.push_back(s);
  }
  while (!q.empty()) {
    NodeId x = q.front();
    q.pop_front();
    if (x == to) return true;
    if (kills(x)) continue;
    for (NodeId s : cfg.succs(x)) {
      if (!allowed(s)) continue;
      if (seen.insert(s).second) q.push_back(s);
    }
  }
  return false;
}

const VarAccess* find_access(const std::vector<VarAccess>& accesses, int var) {
  const VarAccess* found = nullptr;
  for (const auto& a : accesses) {
    if (a.var != var) continue;
    if (!found || a.shape == AccessShape::kElementwise) found = &a;
  }
  return found;
}

}  // namespace meshpar::dfg
