#include "dfg/depgraph.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <unordered_set>

#include "dfg/loopflow.hpp"

namespace meshpar::dfg {

using lang::Stmt;
using lang::StmtKind;

namespace {

/// True if the access is elementwise with respect to this loop.
bool elementwise_on(const VarAccess* a, const Stmt* loop) {
  return a && a->shape == AccessShape::kElementwise && a->index_loop == loop;
}

/// For a pair of accesses both elementwise on a common loop, the iteration
/// distance of the dependence is (src offset - dst offset): the source
/// instance at iteration i touches the element the destination instance
/// touches at iteration i + delta. delta < 0 means the dependence cannot
/// exist (it would flow backwards in time); 0 means loop-independent;
/// > 0 means carried with a computable forward direction.
enum class Direction { kImpossible, kIndependent, kCarriedForward, kUnknown };

Direction direction_on(const VarAccess* sa, const VarAccess* da,
                       const Stmt* loop) {
  if (!elementwise_on(sa, loop) || !elementwise_on(da, loop))
    return Direction::kUnknown;
  long long delta = sa->offset - da->offset;
  if (delta < 0) return Direction::kImpossible;
  if (delta == 0) return Direction::kIndependent;
  return Direction::kCarriedForward;
}

/// DO chains of every statement (outermost first), indexed by Stmt::id.
using LoopChains = std::vector<std::vector<const Stmt*>>;

/// Common enclosing DO loops of two statements, outermost first. DO loops
/// nest as a tree, so these are the shared prefix of the two chains.
std::span<const Stmt* const> common_loops(const LoopChains& chains,
                                          const Stmt* src, const Stmt* dst) {
  if (!src || !dst) return {};
  const auto& a = chains[src->id];
  const auto& b = chains[dst->id];
  std::size_t k = 0;
  while (k < a.size() && k < b.size() && a[k] == b[k]) ++k;
  return {a.data(), k};
}

/// Computes the DO loops that carry the dependence src -> dst on `var`.
std::vector<const Stmt*> carrying_loops(
    const Cfg& cfg, const std::vector<StmtDefUse>& defuse,
    std::span<const Stmt* const> loops, const Stmt* src, const Stmt* dst,
    int var, const VarAccess* src_access,
    const VarAccess* dst_access) {
  std::vector<const Stmt*> out;
  for (const Stmt* loop : loops) {
    switch (direction_on(src_access, dst_access, loop)) {
      case Direction::kIndependent:
        continue;  // same element each time around
      case Direction::kCarriedForward:
        out.push_back(loop);
        continue;
      case Direction::kImpossible:
        continue;  // the add() filter drops the whole dependence
      case Direction::kUnknown:
        break;
    }
    NodeId header = cfg.node_of(*loop);
    bool to_next_iter = path_inside_loop(cfg, defuse, cfg.node_of(*src),
                                         header, *loop, var);
    bool from_header = path_inside_loop(cfg, defuse, header,
                                        cfg.node_of(*dst), *loop, var);
    if (to_next_iter && from_header) out.push_back(loop);
  }
  return out;
}

}  // namespace

DepGraph DepGraph::build(const lang::Subroutine& sub, const Cfg& cfg,
                         const std::vector<StmtDefUse>& defuse) {
  DepGraph g;
  ReachingDefs rd = ReachingDefs::solve(sub, cfg, defuse);
  const std::vector<Stmt*>& stmts = cfg.statements();  // index = Stmt::id

  LoopChains chains(stmts.size());
  for (const Stmt* s : stmts) chains[s->id] = cfg.do_chain(*s);

  // Deduplication key (kind, src, dst, var) packed into one integer, with
  // statement id + 1 as the endpoint so that entry/exit (nullptr) is 0 and
  // symbol + 1 as the variable so that control (-1) is 0.
  const std::uint64_t n_ends = stmts.size() + 1;
  const std::size_t n_syms = sub.symbols.size();
  const std::uint64_t n_vars = n_syms + 1;
  std::unordered_set<std::uint64_t> seen;
  auto add = [&](DepKind kind, const Stmt* src, const Stmt* dst, int var,
                 const VarAccess* sa, const VarAccess* da) {
    std::uint64_t key = static_cast<std::uint64_t>(kind);
    key = key * n_ends + (src ? src->id + 1 : 0);
    key = key * n_ends + (dst ? dst->id + 1 : 0);
    key = key * n_vars + static_cast<std::uint64_t>(var + 1);
    if (seen.contains(key)) return;
    auto loops = common_loops(chains, src, dst);
    // Direction filter: a dependence between shifted elementwise accesses
    // with negative iteration distance would flow backwards in time — it
    // does not exist. (a(i) = ...; ... = a(i+1) has only the anti
    // dependence, not a true one.) The same key may come back with other
    // accesses, so a filtered offer is not remembered.
    if (kind != DepKind::kControl) {
      for (const Stmt* loop : loops) {
        if (direction_on(sa, da, loop) == Direction::kImpossible) return;
      }
    }
    seen.insert(key);
    Dependence d;
    d.kind = kind;
    d.src = src;
    d.dst = dst;
    d.var = var;
    if (kind != DepKind::kControl)
      d.carried_by = carrying_loops(cfg, defuse, loops, src, dst, var, sa, da);
    g.deps_.push_back(std::move(d));
  };

  // ---- true dependences (def -> use) ----
  for (const Stmt* s : stmts) {
    const StmtDefUse& du = defuse[s->id];
    for (const auto& use : du.uses) {
      for (int def_id : rd.reaching(*s, use.var)) {
        const Definition& def = rd.definitions()[def_id];
        const VarAccess* sa = nullptr;
        if (def.stmt) {
          const StmtDefUse& sdu = defuse[def.stmt->id];
          sa = sdu.def ? &*sdu.def : nullptr;
        }
        add(DepKind::kTrue, def.stmt, s, use.var, sa, &use);
      }
    }
  }

  // ---- output dependences (def -> def) ----
  for (const Stmt* s : stmts) {
    const StmtDefUse& du = defuse[s->id];
    if (!du.def) continue;
    const int var = du.def->var;
    for (int def_id : rd.reaching(*s, var)) {
      const Definition& def = rd.definitions()[def_id];
      if (def.stmt == s) continue;  // self via reflexivity is the true dep's job
      const VarAccess* sa = nullptr;
      if (def.stmt) {
        const StmtDefUse& sdu = defuse[def.stmt->id];
        sa = sdu.def ? &*sdu.def : nullptr;
      }
      add(DepKind::kOutput, def.stmt, s, var, sa, &*du.def);
    }
  }

  // ---- anti dependences (use -> later def) ----
  // Forward dataflow of exposed uses over bitsets: a use record (stmt,
  // var) flows until the variable is strongly redefined. Records are
  // numbered in (stmt id, var name) order, names ordered by name_rank, and
  // every pass visits the nodes in order, reading the newest out-set of
  // each predecessor. A defining node offers the records of its variable
  // that reach it and that it has not offered before, in ascending record
  // order. So each (use, def) pair reaches add() once, at the first visit
  // it flows into the def, and the dependences come out in that order.
  {
    using Bits = std::vector<std::uint64_t>;
    std::vector<std::pair<const Stmt*, int>> recs;  // (use stmt, var)
    std::vector<std::size_t> first_rec(stmts.size() + 1, 0);
    std::vector<int> vars;
    for (const Stmt* s : stmts) {
      vars.clear();
      for (const auto& use : defuse[s->id].uses) vars.push_back(use.var);
      std::sort(vars.begin(), vars.end(), [&](int a, int b) {
        return sub.name_rank[a] < sub.name_rank[b];
      });
      vars.erase(std::unique(vars.begin(), vars.end()), vars.end());
      for (int v : vars) recs.emplace_back(s, v);
      first_rec[s->id + 1] = recs.size();
    }
    const std::size_t words = (recs.size() + 63) / 64;
    std::vector<Bits> var_mask(n_syms, Bits(words));
    for (std::size_t r = 0; r < recs.size(); ++r)
      var_mask[recs[r].second][r / 64] |= std::uint64_t{1} << (r % 64);

    const int n = cfg.num_nodes();
    std::vector<Bits> out(n, Bits(words));
    std::vector<Bits> reported(n, Bits(words));
    Bits in(words);
    bool changed = true;
    while (changed) {
      changed = false;
      for (NodeId node = 0; node < n; ++node) {
        std::fill(in.begin(), in.end(), 0);
        for (NodeId p : cfg.preds(node))
          for (std::size_t w = 0; w < words; ++w) in[w] |= out[p][w];
        if (const Stmt* s = cfg.stmt(node)) {
          const StmtDefUse& du = defuse[s->id];
          if (du.def) {
            // Flowing uses of this variable are overwritten here: anti deps.
            const int var = du.def->var;
            const Bits& mask = var_mask[var];
            Bits& done = reported[node];
            for (std::size_t w = 0; w < words; ++w) {
              std::uint64_t fresh = in[w] & mask[w] & ~done[w];
              done[w] |= fresh;
              for (; fresh; fresh &= fresh - 1) {
                const Stmt* use_stmt =
                    recs[w * 64 + std::countr_zero(fresh)].first;
                add(DepKind::kAnti, use_stmt, s, var,
                    find_access(defuse[use_stmt->id].uses, var), &*du.def);
              }
            }
            if (du.kills())
              for (std::size_t w = 0; w < words; ++w) in[w] &= ~mask[w];
          }
          for (std::size_t r = first_rec[s->id]; r < first_rec[s->id + 1]; ++r)
            in[r / 64] |= std::uint64_t{1} << (r % 64);
        }
        if (in != out[node]) {
          out[node].swap(in);
          changed = true;
        }
      }
    }
  }

  // ---- control dependences (Ferrante-Ottenstein-Warren) ----
  for (NodeId a = 0; a < cfg.num_nodes(); ++a) {
    const Stmt* src = cfg.stmt(a);
    if (!src) continue;
    if (cfg.succs(a).size() < 2) continue;  // not a branch
    for (NodeId b : cfg.succs(a)) {
      if (cfg.postdominates(b, a)) continue;
      NodeId stop = cfg.ipdom()[a];
      for (NodeId x = b; x != stop && x != -1; x = cfg.ipdom()[x]) {
        const Stmt* dst = cfg.stmt(x);
        if (dst && dst != src)
          add(DepKind::kControl, src, dst, -1, nullptr, nullptr);
        if (x == cfg.ipdom()[x]) break;  // safety against degenerate chains
      }
    }
  }

  return g;
}

std::vector<const Dependence*> DepGraph::carried_by(
    const lang::Stmt& loop) const {
  std::vector<const Dependence*> out;
  for (const auto& d : deps_)
    if (std::find(d.carried_by.begin(), d.carried_by.end(), &loop) !=
        d.carried_by.end())
      out.push_back(&d);
  return out;
}

const char* to_string(DepKind k) {
  switch (k) {
    case DepKind::kTrue: return "true";
    case DepKind::kAnti: return "anti";
    case DepKind::kOutput: return "output";
    case DepKind::kControl: return "control";
  }
  return "?";
}

}  // namespace meshpar::dfg
