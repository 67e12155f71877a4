#include "dfg/patterns.hpp"

#include <algorithm>

#include "dfg/loopflow.hpp"

namespace meshpar::dfg {

using lang::BinOp;
using lang::Expr;
using lang::ExprKind;
using lang::Stmt;
using lang::StmtKind;

namespace {

/// Matches `v = v op e` / `v = e op v` with op in {+, *}, and
/// `v = v - e` (an additive accumulation of -e); returns the non-recurrent
/// operand, or nullptr if the statement does not match.
const Expr* match_accumulation(const Stmt& s, BinOp* op_out) {
  if (s.kind != StmtKind::kAssign) return nullptr;
  if (s.rhs->kind != ExprKind::kBinary) return nullptr;
  BinOp op = s.rhs->bin;
  if (op != BinOp::kAdd && op != BinOp::kMul && op != BinOp::kSub)
    return nullptr;
  const Expr& a = *s.rhs->args[0];
  const Expr& b = *s.rhs->args[1];
  const Expr* rest = nullptr;
  if (lang::expr_equal(a, *s.lhs)) {
    rest = &b;
  } else if (op != BinOp::kSub && lang::expr_equal(b, *s.lhs)) {
    // v = e - v is NOT an accumulation of -v.
    rest = &a;
  } else {
    return nullptr;
  }
  if (lang::expr_reads(*rest, s.lhs->name)) return nullptr;
  // v = v - e accumulates -e: additive for every ordering purpose.
  *op_out = op == BinOp::kSub ? BinOp::kAdd : op;
  return rest;
}

}  // namespace

Patterns Patterns::detect(const lang::Subroutine& sub, const Cfg& cfg,
                          const std::vector<StmtDefUse>& defuse) {
  Patterns p;
  ReachingDefs rd = ReachingDefs::solve(sub, cfg, defuse);

  // Collect all DO loops and, per loop, the statements inside it.
  std::vector<const Stmt*> loops;
  for (const Stmt* s : cfg.statements())
    if (s->kind == StmtKind::kDo) loops.push_back(s);

  auto stmts_inside = [&](const Stmt& loop) {
    std::vector<const Stmt*> out;
    for (const Stmt* s : cfg.statements())
      if (cfg.inside(*s, loop)) out.push_back(s);
    return out;
  };

  // Symbols declared as arrays. Undeclared names (loop variables and
  // implicit scalars) are scalars.
  const std::size_t n_syms = sub.symbols.size();
  std::vector<char> is_array(n_syms, 0);
  for (const lang::VarDecl& d : sub.decls)
    if (d.is_array())
      is_array[static_cast<std::size_t>(sub.symbol(d.name))] = 1;

  auto loop_invariant = [&](const Expr& e, const Stmt& loop) {
    std::vector<int> reads;
    lang::collect_reads(e, reads);
    for (int v : reads) {
      for (int def_id : rd.defs_of(v)) {
        const Definition& d = rd.definitions()[def_id];
        // A definition inside the loop — including the loop's own DO header
        // (and those of nested loops) — makes the expression variant.
        if (d.stmt && (d.stmt == &loop || cfg.inside(*d.stmt, loop)))
          return false;
      }
    }
    return true;
  };

  // ---- per-loop detection ----
  for (const Stmt* loop : loops) {
    auto inside = stmts_inside(*loop);

    // Variables defined / used inside this loop, by symbol.
    std::vector<char> defined(n_syms, 0), used(n_syms, 0);
    for (const Stmt* s : inside) {
      const StmtDefUse& du = defuse[s->id];
      if (du.def) defined[static_cast<std::size_t>(du.def->var)] = 1;
      for (const auto& u : du.uses) used[static_cast<std::size_t>(u.var)] = 1;
    }

    // -- accumulations: inductions, reductions, assemblies --
    for (const Stmt* s : inside) {
      BinOp op;
      const Expr* rest = match_accumulation(*s, &op);
      if (!rest) continue;
      const int v = s->lhs->sym;

      if (s->lhs->kind == ExprKind::kVarRef &&
          !is_array[static_cast<std::size_t>(v)]) {
        // Exactly one def of v inside the loop?
        int defs_in_loop = 0;
        for (const Stmt* t : inside) {
          const StmtDefUse& du = defuse[t->id];
          if (du.def && du.def->var == v) ++defs_in_loop;
        }
        if (defs_in_loop != 1) continue;
        // Other reads of v inside the loop (besides the self-read) would
        // observe the partial value: disqualify.
        bool other_reads = false;
        for (const Stmt* t : inside) {
          if (t == s) continue;
          const StmtDefUse& du = defuse[t->id];
          for (const auto& u : du.uses)
            if (u.var == v) other_reads = true;
        }
        if (other_reads) continue;

        if (op == BinOp::kAdd && loop_invariant(*rest, *loop)) {
          p.inductions_.push_back({s, v, loop});
        } else {
          // SPMD reductions start from per-processor partials; that is only
          // equivalent to the sequential accumulation when every value
          // flowing into the loop is the operator's identity (0 for +, 1
          // for *) — otherwise the global combine counts the start value
          // once per processor.
          const double identity = op == BinOp::kAdd ? 0.0 : 1.0;
          bool identity_init = true;
          for (int def_id : rd.reaching(*s, v)) {
            const Definition& d = rd.definitions()[def_id];
            if (d.stmt && cfg.inside(*d.stmt, *loop)) continue;  // self
            if (!d.stmt) {
              identity_init = false;  // parameter value flows in
              break;
            }
            const Stmt* init = d.stmt;
            bool is_identity =
                init->kind == StmtKind::kAssign &&
                ((init->rhs->kind == lang::ExprKind::kRealLit &&
                  init->rhs->real_val == identity) ||
                 (init->rhs->kind == lang::ExprKind::kIntLit &&
                  static_cast<double>(init->rhs->int_val) == identity));
            if (!is_identity) {
              identity_init = false;
              break;
            }
          }
          if (identity_init) p.reductions_.push_back({s, v, op, loop});
        }
      } else if (s->lhs->kind == ExprKind::kArrayRef) {
        // Array assembly candidate; group validation happens below.
        p.assemblies_.push_back({s, v, op, loop});
      }
    }

    // Validate assembly groups: every def of the array in the loop must be
    // an assembly with the same operator, and no other statement may read
    // the array (partial sums must not be observed mid-assembly). Groups
    // are validated in variable-name order.
    {
      std::vector<int> assembled;
      for (const auto& a : p.assemblies_)
        if (a.loop == loop) assembled.push_back(a.var);
      std::sort(assembled.begin(), assembled.end(), [&](int a, int b) {
        return sub.name_rank[a] < sub.name_rank[b];
      });
      assembled.erase(std::unique(assembled.begin(), assembled.end()),
                      assembled.end());
      for (int v : assembled) {
        bool ok = true;
        BinOp group_op = BinOp::kAdd;
        bool op_set = false;
        for (const Stmt* s : inside) {
          const StmtDefUse& du = defuse[s->id];
          if (du.def && du.def->var == v) {
            const Assembly* a = nullptr;
            for (const auto& cand : p.assemblies_)
              if (cand.stmt == s && cand.loop == loop) a = &cand;
            if (!a) {
              ok = false;
              break;
            }
            if (!op_set) {
              group_op = a->op;
              op_set = true;
            } else if (a->op != group_op) {
              ok = false;
              break;
            }
          }
          // Reads of v outside assembly self-reads?
          for (const auto& u : du.uses) {
            if (u.var != v) continue;
            bool is_self = false;
            for (const auto& cand : p.assemblies_)
              if (cand.stmt == s && cand.var == v) is_self = true;
            if (!is_self) ok = false;
          }
        }
        if (!ok) {
          p.assemblies_.erase(
              std::remove_if(p.assemblies_.begin(), p.assemblies_.end(),
                             [&](const Assembly& a) {
                               return a.loop == loop && a.var == v;
                             }),
              p.assemblies_.end());
        }
      }
    }

    // -- localizable scalars --
    NodeId header = cfg.node_of(*loop);
    for (int v = 0; v < static_cast<int>(n_syms); ++v) {
      const auto sv = static_cast<std::size_t>(v);
      if (!used[sv] || is_array[sv]) continue;
      if (rd.entry_def(v) >= 0) continue;  // a parameter: visible to the caller
      if (v == loop->do_sym) continue;
      if (!defined[sv]) continue;  // read-only: nothing to privatize

      bool ok = true;
      // (1) every use inside the loop sees only defs from inside the loop,
      // and (2) never across an iteration boundary.
      for (const Stmt* s : inside) {
        const StmtDefUse& du = defuse[s->id];
        bool uses_v = false;
        for (const auto& u : du.uses)
          if (u.var == v) uses_v = true;
        if (!uses_v) continue;
        for (int def_id : rd.reaching(*s, v)) {
          const Definition& d = rd.definitions()[def_id];
          if (!d.stmt || !cfg.inside(*d.stmt, *loop)) {
            ok = false;  // upward-exposed use
            break;
          }
        }
        if (!ok) break;
        // Cross-iteration flow: header -> use without an intervening kill.
        if (path_inside_loop(cfg, defuse, header, cfg.node_of(*s), *loop, v)) {
          ok = false;
          break;
        }
      }
      // (3) dead after the loop: no def inside the loop reaches any use
      // outside it.
      if (ok) {
        for (const Stmt* s : cfg.statements()) {
          if (cfg.inside(*s, *loop)) continue;
          const StmtDefUse& du = defuse[s->id];
          bool uses_v = false;
          for (const auto& u : du.uses)
            if (u.var == v) uses_v = true;
          if (!uses_v) continue;
          for (int def_id : rd.reaching(*s, v)) {
            const Definition& d = rd.definitions()[def_id];
            if (d.stmt && cfg.inside(*d.stmt, *loop)) {
              ok = false;
              break;
            }
          }
          if (!ok) break;
        }
      }
      if (ok) p.localizable_.emplace(loop, v);
    }
  }

  return p;
}

bool Patterns::is_localizable(const lang::Stmt& loop, int var) const {
  return localizable_.count({&loop, var}) > 0;
}

const Reduction* Patterns::reduction_at(const lang::Stmt& s) const {
  for (const auto& r : reductions_)
    if (r.stmt == &s) return &r;
  return nullptr;
}

const Assembly* Patterns::assembly_at(const lang::Stmt& s) const {
  for (const auto& a : assemblies_)
    if (a.stmt == &s) return &a;
  return nullptr;
}

bool Patterns::is_reduction_var(const lang::Stmt& loop, int var) const {
  for (const auto& r : reductions_)
    if (r.loop == &loop && r.var == var) return true;
  return false;
}

}  // namespace meshpar::dfg
