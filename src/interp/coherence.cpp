#include "interp/coherence.hpp"

#include <algorithm>

namespace meshpar::interp {

CoherenceModel::CoherenceModel(const placement::ProgramModel& model)
    : pattern_(model.autom().pattern()),
      depth_(model.autom().halo_depth()),
      tracked_(model.sub().symbols.size()) {
  for (std::size_t sym = 0; sym < tracked_.size(); ++sym)
    if (auto entity = model.entity_of(static_cast<int>(sym));
        entity && tracks(*entity))
      tracked_[sym] = entity;
  const std::size_t n = model.cfg().statements().size();
  def_sym_.assign(n, -1);
  scatter_.assign(n, 0);
  loop_of_.assign(n, nullptr);
  ticks_.resize(n);
  first_write_.assign(n, 1);
  // defuse() is indexed by Stmt::id (pre-order), so iterating it visits
  // statements in program order — which is what makes the first-write flags
  // below well defined.
  for (const auto& du : model.defuse()) {
    if (!du.stmt || !du.def || du.stmt->kind != lang::StmtKind::kAssign)
      continue;
    const int sym = du.stmt->lhs->sym;
    if (!tracked(sym)) continue;
    const auto id = static_cast<std::size_t>(du.stmt->id);
    def_sym_[id] = sym;
    if (du.def->shape == dfg::AccessShape::kIndirect ||
        model.patterns().assembly_at(*du.stmt))
      scatter_[id] = 1;
    if (const lang::Stmt* loop = model.enclosing_partitioned(*du.stmt)) {
      loop_of_[id] = loop;
      auto& syms = ticks_[static_cast<std::size_t>(loop->id)];
      // The loop's first store of the array starts its generation.
      const bool first = std::find(syms.begin(), syms.end(), sym) == syms.end();
      if (first) syms.push_back(sym);
      first_write_[id] = first;
    }
  }
}

ReadCheck CoherenceModel::read_check(const lang::Stmt& s, int sym) const {
  if (sym < 0 || def_sym(s) != sym) return ReadCheck::kNormal;
  if (is_scatter(s)) return ReadCheck::kSkipAccumulator;
  if (partitioned_loop(s)) return ReadCheck::kPreviousGeneration;
  return ReadCheck::kNormal;
}

int CoherenceModel::write_valid_layers(const lang::Stmt& s,
                                       int domain_layers) const {
  int k = std::clamp(domain_layers, 0, depth_);
  if (!is_scatter(s)) {
    // Elementwise stores complete every visited cell; under node-boundary
    // a node loop visits every local node.
    return pattern_ == automaton::PatternKind::kNodeBoundary ? depth_ : k;
  }
  // Nodes of layer j collect contributions from triangles of layer <= j+1,
  // so iterating k triangle layers completes only node layers <= k-1; for
  // the node-boundary pattern, owned-triangle assemblies always leave the
  // duplicated boundary nodes with partial sums.
  return pattern_ == automaton::PatternKind::kNodeBoundary ? 0 : k - 1;
}

int CoherenceModel::read_required_layers(dfg::AccessShape shape,
                                         int domain_layers) const {
  (void)shape;
  // Every tracked node is potentially a duplicated boundary node under the
  // node-boundary pattern, so any read demands full coherence there.
  if (pattern_ == automaton::PatternKind::kNodeBoundary) return depth_;
  return std::clamp(domain_layers, 0, depth_);
}

}  // namespace meshpar::interp
