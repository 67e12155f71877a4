#include "lang/ast.hpp"

#include <algorithm>
#include <numeric>
#include <unordered_map>

namespace meshpar::lang {

const char* to_fortran(BinOp op) {
  switch (op) {
    case BinOp::kAdd: return "+";
    case BinOp::kSub: return "-";
    case BinOp::kMul: return "*";
    case BinOp::kDiv: return "/";
    case BinOp::kPow: return "**";
    case BinOp::kLt: return ".lt.";
    case BinOp::kLe: return ".le.";
    case BinOp::kGt: return ".gt.";
    case BinOp::kGe: return ".ge.";
    case BinOp::kEq: return ".eq.";
    case BinOp::kNe: return ".ne.";
    case BinOp::kAnd: return ".and.";
    case BinOp::kOr: return ".or.";
  }
  return "?";
}

ExprPtr Expr::clone() const {
  auto e = std::make_unique<Expr>();
  e->kind = kind;
  e->loc = loc;
  e->int_val = int_val;
  e->real_val = real_val;
  e->name = name;
  e->sym = sym;
  e->bin = bin;
  e->un = un;
  e->args.reserve(args.size());
  for (const auto& a : args) e->args.push_back(a->clone());
  return e;
}

ExprPtr int_lit(long long v, SrcLoc loc) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kIntLit;
  e->loc = loc;
  e->int_val = v;
  return e;
}

ExprPtr real_lit(double v, SrcLoc loc) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kRealLit;
  e->loc = loc;
  e->real_val = v;
  return e;
}

ExprPtr var(std::string name, SrcLoc loc) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kVarRef;
  e->loc = loc;
  e->name = std::move(name);
  return e;
}

ExprPtr aref(std::string name, std::vector<ExprPtr> indices, SrcLoc loc) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kArrayRef;
  e->loc = loc;
  e->name = std::move(name);
  e->args = std::move(indices);
  return e;
}

ExprPtr aref(std::string name, ExprPtr index, SrcLoc loc) {
  std::vector<ExprPtr> idx;
  idx.push_back(std::move(index));
  return aref(std::move(name), std::move(idx), loc);
}

ExprPtr unary(UnOp op, ExprPtr operand, SrcLoc loc) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kUnary;
  e->loc = loc;
  e->un = op;
  e->args.push_back(std::move(operand));
  return e;
}

ExprPtr binary(BinOp op, ExprPtr lhs, ExprPtr rhs, SrcLoc loc) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kBinary;
  e->loc = loc;
  e->bin = op;
  e->args.push_back(std::move(lhs));
  e->args.push_back(std::move(rhs));
  return e;
}

StmtPtr Stmt::clone() const {
  auto s = std::make_unique<Stmt>();
  s->kind = kind;
  s->loc = loc;
  s->label = label;
  s->id = id;
  if (lhs) s->lhs = lhs->clone();
  if (rhs) s->rhs = rhs->clone();
  s->do_var = do_var;
  s->do_sym = do_sym;
  if (do_lo) s->do_lo = do_lo->clone();
  if (do_hi) s->do_hi = do_hi->clone();
  if (do_step) s->do_step = do_step->clone();
  for (const auto& b : body) s->body.push_back(b->clone());
  if (cond) s->cond = cond->clone();
  for (const auto& b : then_body) s->then_body.push_back(b->clone());
  for (const auto& b : else_body) s->else_body.push_back(b->clone());
  s->target = target;
  s->callee = callee;
  for (const auto& a : call_args) s->call_args.push_back(a->clone());
  return s;
}

StmtPtr assign(ExprPtr lhs, ExprPtr rhs, SrcLoc loc) {
  auto s = std::make_unique<Stmt>();
  s->kind = StmtKind::kAssign;
  s->loc = loc;
  s->lhs = std::move(lhs);
  s->rhs = std::move(rhs);
  return s;
}

StmtPtr do_loop(std::string var, ExprPtr lo, ExprPtr hi,
                std::vector<StmtPtr> body, SrcLoc loc) {
  auto s = std::make_unique<Stmt>();
  s->kind = StmtKind::kDo;
  s->loc = loc;
  s->do_var = std::move(var);
  s->do_lo = std::move(lo);
  s->do_hi = std::move(hi);
  s->body = std::move(body);
  return s;
}

StmtPtr if_stmt(ExprPtr cond, std::vector<StmtPtr> then_body,
                std::vector<StmtPtr> else_body, SrcLoc loc) {
  auto s = std::make_unique<Stmt>();
  s->kind = StmtKind::kIf;
  s->loc = loc;
  s->cond = std::move(cond);
  s->then_body = std::move(then_body);
  s->else_body = std::move(else_body);
  return s;
}

StmtPtr goto_stmt(int target, SrcLoc loc) {
  auto s = std::make_unique<Stmt>();
  s->kind = StmtKind::kGoto;
  s->loc = loc;
  s->target = target;
  return s;
}

StmtPtr continue_stmt(int label, SrcLoc loc) {
  auto s = std::make_unique<Stmt>();
  s->kind = StmtKind::kContinue;
  s->loc = loc;
  s->label = label;
  return s;
}

StmtPtr call_stmt(std::string callee, std::vector<ExprPtr> args, SrcLoc loc) {
  auto s = std::make_unique<Stmt>();
  s->kind = StmtKind::kCall;
  s->loc = loc;
  s->callee = std::move(callee);
  s->call_args = std::move(args);
  return s;
}

StmtPtr return_stmt(SrcLoc loc) {
  auto s = std::make_unique<Stmt>();
  s->kind = StmtKind::kReturn;
  s->loc = loc;
  return s;
}

const VarDecl* Subroutine::find_decl(std::string_view var) const {
  for (const auto& d : decls)
    if (d.name == var) return &d;
  return nullptr;
}

bool Subroutine::is_param(std::string_view var) const {
  for (const auto& p : params)
    if (p == var) return true;
  return false;
}

int Subroutine::symbol(std::string_view var) const {
  for (std::size_t i = 0; i < symbols.size(); ++i)
    if (symbols[i] == var) return static_cast<int>(i);
  return -1;
}

const Subroutine* Program::find(std::string_view name) const {
  for (const auto& s : subs)
    if (s.name == name) return &s;
  return nullptr;
}

namespace {
/// Numbers statements in pre-order and interns every variable name.
class Resolver {
 public:
  explicit Resolver(Subroutine& sub) : sub_(sub) {
    sub_.symbols.clear();
    for (const auto& p : sub_.params) intern(p);
    for (const auto& d : sub_.decls) intern(d.name);
  }

  void number(std::vector<StmtPtr>& body, std::vector<Stmt*>& out) {
    for (auto& s : body) {
      s->id = static_cast<int>(out.size());
      out.push_back(s.get());
      resolve(s->lhs.get());
      resolve(s->rhs.get());
      if (s->kind == StmtKind::kDo) s->do_sym = intern(s->do_var);
      resolve(s->do_lo.get());
      resolve(s->do_hi.get());
      resolve(s->do_step.get());
      resolve(s->cond.get());
      for (auto& a : s->call_args) resolve(a.get());
      number(s->body, out);
      number(s->then_body, out);
      number(s->else_body, out);
    }
  }

 private:
  Subroutine& sub_;
  std::unordered_map<std::string, int> index_;

  int intern(const std::string& name) {
    auto [it, fresh] =
        index_.emplace(name, static_cast<int>(sub_.symbols.size()));
    if (fresh) sub_.symbols.push_back(name);
    return it->second;
  }

  void resolve(Expr* e) {
    if (!e) return;
    if (e->kind == ExprKind::kVarRef || e->kind == ExprKind::kArrayRef)
      e->sym = intern(e->name);
    for (auto& a : e->args) resolve(a.get());
  }
};

void collect_rec(const std::vector<StmtPtr>& body,
                 std::vector<const Stmt*>& out) {
  for (const auto& s : body) {
    out.push_back(s.get());
    collect_rec(s->body, out);
    collect_rec(s->then_body, out);
    collect_rec(s->else_body, out);
  }
}
}  // namespace

std::vector<Stmt*> number_statements(Subroutine& sub) {
  std::vector<Stmt*> out;
  Resolver(sub).number(sub.body, out);
  std::vector<int>& by_name = sub.by_name;
  by_name.resize(sub.symbols.size());
  std::iota(by_name.begin(), by_name.end(), 0);
  std::sort(by_name.begin(), by_name.end(), [&](int a, int b) {
    return sub.symbols[a] < sub.symbols[b];
  });
  sub.name_rank.assign(by_name.size(), 0);
  for (std::size_t r = 0; r < by_name.size(); ++r)
    sub.name_rank[by_name[r]] = static_cast<int>(r);
  return out;
}

std::vector<const Stmt*> collect_statements(const Subroutine& sub) {
  std::vector<const Stmt*> out;
  collect_rec(sub.body, out);
  return out;
}

void visit_exprs(const Expr& e, const std::function<void(const Expr&)>& fn) {
  fn(e);
  for (const auto& a : e.args) visit_exprs(*a, fn);
}

void visit_stmts(const std::vector<StmtPtr>& body,
                 const std::function<void(const Stmt&)>& fn) {
  for (const auto& s : body) {
    fn(*s);
    visit_stmts(s->body, fn);
    visit_stmts(s->then_body, fn);
    visit_stmts(s->else_body, fn);
  }
}

void collect_reads(const Expr& e, std::vector<int>& out) {
  visit_exprs(e, [&](const Expr& x) {
    if (x.kind == ExprKind::kVarRef || x.kind == ExprKind::kArrayRef)
      out.push_back(x.sym);
  });
}

bool expr_equal(const Expr& a, const Expr& b) {
  if (a.kind != b.kind) return false;
  switch (a.kind) {
    case ExprKind::kIntLit:
      return a.int_val == b.int_val;
    case ExprKind::kRealLit:
      return a.real_val == b.real_val;
    case ExprKind::kVarRef:
      return a.name == b.name;
    case ExprKind::kArrayRef:
      if (a.name != b.name || a.args.size() != b.args.size()) return false;
      break;
    case ExprKind::kUnary:
      if (a.un != b.un) return false;
      break;
    case ExprKind::kBinary:
      if (a.bin != b.bin) return false;
      break;
  }
  if (a.args.size() != b.args.size()) return false;
  for (std::size_t i = 0; i < a.args.size(); ++i)
    if (!expr_equal(*a.args[i], *b.args[i])) return false;
  return true;
}

bool expr_reads(const Expr& e, std::string_view var) {
  bool found = false;
  visit_exprs(e, [&](const Expr& x) {
    if ((x.kind == ExprKind::kVarRef || x.kind == ExprKind::kArrayRef) &&
        x.name == var)
      found = true;
  });
  return found;
}

}  // namespace meshpar::lang
