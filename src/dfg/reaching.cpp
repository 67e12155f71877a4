#include "dfg/reaching.hpp"

#include <algorithm>
#include <iterator>

namespace meshpar::dfg {

namespace {

/// Sorted-vector set union; returns true if `dst` changed.
bool merge_into(std::vector<int>& dst, const std::vector<int>& src) {
  std::vector<int> out;
  out.reserve(dst.size() + src.size());
  std::set_union(dst.begin(), dst.end(), src.begin(), src.end(),
                 std::back_inserter(out));
  if (out.size() == dst.size()) return false;
  dst = std::move(out);
  return true;
}

}  // namespace

ReachingDefs ReachingDefs::solve(const lang::Subroutine& sub, const Cfg& cfg,
                                 const std::vector<StmtDefUse>& defuse) {
  ReachingDefs rd;
  rd.cfg_ = &cfg;
  rd.def_at_stmt_.assign(cfg.statements().size(), -1);

  // Entry definitions for parameters.
  for (const auto& p : sub.params) {
    Definition d;
    d.id = static_cast<int>(rd.defs_.size());
    d.var = sub.symbol(p);
    d.may = false;
    rd.defs_.push_back(d);
  }
  // Statement definitions.
  for (const lang::Stmt* s : cfg.statements()) {
    const StmtDefUse& du = defuse[s->id];
    if (!du.def) continue;
    Definition d;
    d.id = static_cast<int>(rd.defs_.size());
    d.var = du.def->var;
    d.stmt = s;
    d.may = du.def->shape != AccessShape::kScalar;
    rd.def_at_stmt_[s->id] = d.id;
    rd.defs_.push_back(d);
  }

  const int n = cfg.num_nodes();
  std::vector<std::vector<int>> out(n);
  rd.in_.assign(n, {});

  // Entry node generates the parameter definitions.
  std::vector<int> entry_gen;
  for (std::size_t i = 0; i < sub.params.size(); ++i)
    entry_gen.push_back(static_cast<int>(i));
  out[kEntry] = entry_gen;

  auto transfer = [&](NodeId node, const std::vector<int>& in_set) {
    const lang::Stmt* s = cfg.stmt(node);
    if (!s) return in_set;
    int gen = rd.def_at_stmt_[s->id];
    if (gen < 0) return in_set;
    const Definition& d = rd.defs_[gen];
    std::vector<int> result;
    result.reserve(in_set.size() + 1);
    for (int id : in_set) {
      if (!d.may && rd.defs_[id].var == d.var) continue;  // killed
      result.push_back(id);
    }
    auto it = std::lower_bound(result.begin(), result.end(), gen);
    if (it == result.end() || *it != gen) result.insert(it, gen);
    return result;
  };

  bool changed = true;
  while (changed) {
    changed = false;
    for (NodeId node = 0; node < n; ++node) {
      std::vector<int> in_set;
      for (NodeId p : cfg.preds(node)) merge_into(in_set, out[p]);
      if (node == kEntry) in_set = {};  // entry has no preds
      if (in_set != rd.in_[node]) {
        rd.in_[node] = in_set;
      }
      std::vector<int> new_out = node == kEntry
                                     ? entry_gen
                                     : transfer(node, rd.in_[node]);
      if (new_out != out[node]) {
        out[node] = std::move(new_out);
        changed = true;
      }
    }
  }
  return rd;
}

std::vector<int> ReachingDefs::reaching_at(NodeId n, int var) const {
  std::vector<int> out;
  for (int id : in_[n])
    if (defs_[id].var == var) out.push_back(id);
  return out;
}

std::vector<int> ReachingDefs::defs_of(int var) const {
  std::vector<int> out;
  for (const auto& d : defs_)
    if (d.var == var) out.push_back(d.id);
  return out;
}

int ReachingDefs::def_at(const lang::Stmt& s) const {
  return def_at_stmt_[s.id];
}

int ReachingDefs::entry_def(int var) const {
  for (const auto& d : defs_) {
    if (!d.is_entry()) break;  // entry defs are first
    if (d.var == var) return d.id;
  }
  return -1;
}

}  // namespace meshpar::dfg
