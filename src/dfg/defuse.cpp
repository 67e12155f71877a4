#include "dfg/defuse.hpp"

#include <algorithm>

namespace meshpar::dfg {

using lang::Expr;
using lang::ExprKind;
using lang::Stmt;
using lang::StmtKind;

namespace {

/// True if `e` is a reference to the variable of one of the DO loops in
/// `chain`; returns that loop.
const Stmt* elementwise_loop(const Expr& e,
                             const std::vector<const Stmt*>& chain) {
  if (e.kind != ExprKind::kVarRef) return nullptr;
  for (const Stmt* l : chain)
    if (l->do_sym == e.sym) return l;
  return nullptr;
}

class Extractor {
 public:
  Extractor(const Cfg& cfg) : cfg_(cfg) {}

  VarAccess classify(const Expr& ref, const Stmt& at) {
    VarAccess a;
    a.var = ref.sym;
    a.loc = ref.loc;
    if (ref.kind == ExprKind::kVarRef) {
      a.shape = AccessShape::kScalar;
      return a;
    }
    // Array reference: elementwise iff at least one index is a direct
    // enclosing DO variable (possibly shifted by a constant: a(i+1)) and
    // every other index is a constant.
    auto chain = cfg_.do_chain(at);
    const Stmt* idx_loop = nullptr;
    long long offset = 0;
    bool all_const_or_loopvar = true;
    auto shifted_loop = [&](const Expr& e, long long* off) -> const Stmt* {
      if (const Stmt* l = elementwise_loop(e, chain)) {
        *off = 0;
        return l;
      }
      if (e.kind == ExprKind::kBinary &&
          (e.bin == lang::BinOp::kAdd || e.bin == lang::BinOp::kSub)) {
        const Expr& lhs = *e.args[0];
        const Expr& rhs = *e.args[1];
        if (rhs.kind == ExprKind::kIntLit) {
          if (const Stmt* l = elementwise_loop(lhs, chain)) {
            *off = e.bin == lang::BinOp::kAdd ? rhs.int_val : -rhs.int_val;
            return l;
          }
        }
        if (e.bin == lang::BinOp::kAdd && lhs.kind == ExprKind::kIntLit) {
          if (const Stmt* l = elementwise_loop(rhs, chain)) {
            *off = lhs.int_val;
            return l;
          }
        }
      }
      return nullptr;
    };
    for (const auto& idx : ref.args) {
      long long off = 0;
      if (const Stmt* l = shifted_loop(*idx, &off)) {
        idx_loop = l;
        offset = off;
        continue;
      }
      if (idx->kind == ExprKind::kIntLit) continue;
      all_const_or_loopvar = false;
    }
    if (idx_loop && all_const_or_loopvar) {
      a.shape = AccessShape::kElementwise;
      a.index_loop = idx_loop;
      a.offset = offset;
    } else {
      a.shape = AccessShape::kIndirect;
    }
    for (const auto& idx : ref.args) lang::collect_reads(*idx, a.index_reads);
    return a;
  }

  /// Collects every read access in `e` (including array names and their
  /// index variables).
  void collect_uses(const Expr& e, const Stmt& at, std::vector<VarAccess>& out) {
    switch (e.kind) {
      case ExprKind::kIntLit:
      case ExprKind::kRealLit:
        return;
      case ExprKind::kVarRef:
        out.push_back(classify(e, at));
        return;
      case ExprKind::kArrayRef: {
        out.push_back(classify(e, at));
        for (const auto& idx : e.args) collect_uses(*idx, at, out);
        return;
      }
      case ExprKind::kUnary:
      case ExprKind::kBinary:
        for (const auto& a : e.args) collect_uses(*a, at, out);
        return;
    }
  }

  StmtDefUse extract(const Stmt& s) {
    StmtDefUse du;
    du.stmt = &s;
    switch (s.kind) {
      case StmtKind::kAssign: {
        du.def = classify(*s.lhs, s);
        // Index expressions of the lhs are *reads*.
        if (s.lhs->kind == ExprKind::kArrayRef)
          for (const auto& idx : s.lhs->args) collect_uses(*idx, s, du.uses);
        collect_uses(*s.rhs, s, du.uses);
        break;
      }
      case StmtKind::kDo: {
        VarAccess def;
        def.var = s.do_sym;
        def.shape = AccessShape::kScalar;
        def.loc = s.loc;
        du.def = def;
        collect_uses(*s.do_lo, s, du.uses);
        collect_uses(*s.do_hi, s, du.uses);
        if (s.do_step) collect_uses(*s.do_step, s, du.uses);
        break;
      }
      case StmtKind::kIf: {
        collect_uses(*s.cond, s, du.uses);
        break;
      }
      case StmtKind::kCall: {
        // Without interprocedural information, arguments are whole-object
        // uses. (The applicability checker warns about calls separately.)
        for (const auto& arg : s.call_args) {
          if (arg->kind == ExprKind::kVarRef ||
              arg->kind == ExprKind::kArrayRef) {
            VarAccess a;
            a.var = arg->sym;
            a.shape = AccessShape::kWhole;
            a.loc = arg->loc;
            du.uses.push_back(a);
            if (arg->kind == ExprKind::kArrayRef)
              for (const auto& idx : arg->args)
                collect_uses(*idx, s, du.uses);
          } else {
            collect_uses(*arg, s, du.uses);
          }
        }
        break;
      }
      case StmtKind::kGoto:
      case StmtKind::kContinue:
      case StmtKind::kReturn:
        break;
    }
    return du;
  }

 private:
  const Cfg& cfg_;
};

}  // namespace

std::vector<StmtDefUse> analyze_defuse(const lang::Subroutine& sub,
                                       const Cfg& cfg) {
  (void)sub;
  Extractor ex(cfg);
  std::vector<StmtDefUse> out(cfg.statements().size());
  for (const Stmt* s : cfg.statements()) out[s->id] = ex.extract(*s);
  return out;
}

const char* to_string(AccessShape s) {
  switch (s) {
    case AccessShape::kScalar: return "scalar";
    case AccessShape::kElementwise: return "elementwise";
    case AccessShape::kIndirect: return "indirect";
    case AccessShape::kWhole: return "whole";
  }
  return "?";
}

}  // namespace meshpar::dfg
