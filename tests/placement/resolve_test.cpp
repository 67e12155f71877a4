// Name resolution (lang::number_statements): every variable reference and
// every DO variable carries the index of its name in Subroutine::symbols,
// for every subroutine the interpreter, the sanitizer and the coherence
// tables can be handed — parsed, modeled, cloned and fissioned ones. The
// analyses built on top (def/use, reaching definitions, patterns,
// dependences) carry those same symbols, and the name rank orders them by
// name.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "dfg/depgraph.hpp"
#include "dfg/patterns.hpp"
#include "lang/ast.hpp"
#include "lang/corpus.hpp"
#include "lang/parser.hpp"
#include "placement/fission.hpp"
#include "placement/model.hpp"

namespace meshpar::lang {
namespace {

/// The expression roots of one statement (children excluded).
std::vector<const Expr*> roots(const Stmt& s) {
  std::vector<const Expr*> out;
  for (const Expr* e : {s.lhs.get(), s.rhs.get(), s.do_lo.get(),
                        s.do_hi.get(), s.do_step.get(), s.cond.get()})
    if (e) out.push_back(e);
  for (const auto& a : s.call_args) out.push_back(a.get());
  return out;
}

/// Every symbol index of a statement tree, in traversal order.
void collect_syms(const Stmt& s, std::vector<int>& out) {
  if (s.kind == StmtKind::kDo) out.push_back(s.do_sym);
  for (const Expr* root : roots(s))
    visit_exprs(*root, [&](const Expr& e) {
      if (e.kind == ExprKind::kVarRef || e.kind == ExprKind::kArrayRef)
        out.push_back(e.sym);
    });
  for (const auto* list : {&s.body, &s.then_body, &s.else_body})
    for (const auto& c : *list) collect_syms(*c, out);
}

void expect_resolved(const Subroutine& sub) {
  const auto& syms = sub.symbols;
  // Params, then the declarations not already named, come first.
  std::vector<std::string> head = sub.params;
  for (const VarDecl& d : sub.decls)
    if (!sub.is_param(d.name)) head.push_back(d.name);
  ASSERT_GE(syms.size(), head.size());
  for (std::size_t i = 0; i < head.size(); ++i)
    EXPECT_EQ(syms[i], head[i]) << "symbol " << i;
  EXPECT_EQ(std::set<std::string>(syms.begin(), syms.end()).size(),
            syms.size())
      << "a name is interned twice";

  auto check = [&](int sym, const std::string& name) {
    ASSERT_GE(sym, 0) << "'" << name << "' is unresolved";
    ASSERT_LT(static_cast<std::size_t>(sym), syms.size());
    EXPECT_EQ(syms[static_cast<std::size_t>(sym)], name);
    EXPECT_EQ(sub.symbol(name), sym);
  };
  std::set<int> mentioned;
  visit_stmts(sub.body, [&](const Stmt& s) {
    if (s.kind == StmtKind::kDo) {
      check(s.do_sym, s.do_var);
      mentioned.insert(s.do_sym);
    }
    for (const Expr* root : roots(s))
      visit_exprs(*root, [&](const Expr& e) {
        if (e.kind != ExprKind::kVarRef && e.kind != ExprKind::kArrayRef)
          return;
        check(e.sym, e.name);
        mentioned.insert(e.sym);
      });
  });
  // Past the head, a symbol exists only because the body mentions it.
  for (std::size_t i = head.size(); i < syms.size(); ++i)
    EXPECT_TRUE(mentioned.count(static_cast<int>(i))) << syms[i];

  // clone() keeps the resolution.
  for (const auto& s : sub.body) {
    std::vector<int> a, b;
    collect_syms(*s, a);
    collect_syms(*s->clone(), b);
    EXPECT_EQ(a, b);
  }
}

/// The name rank is a permutation that sorts the symbols by name, and
/// `by_name` is its inverse.
void expect_name_rank(const Subroutine& sub) {
  const std::size_t n = sub.symbols.size();
  ASSERT_EQ(sub.name_rank.size(), n);
  std::vector<int> by_rank(n, -1);
  for (std::size_t sym = 0; sym < n; ++sym) {
    const int r = sub.name_rank[sym];
    ASSERT_GE(r, 0);
    ASSERT_LT(static_cast<std::size_t>(r), n);
    EXPECT_EQ(by_rank[static_cast<std::size_t>(r)], -1) << "rank " << r;
    by_rank[static_cast<std::size_t>(r)] = static_cast<int>(sym);
  }
  for (std::size_t r = 1; r < n; ++r)
    EXPECT_LT(sub.symbols[static_cast<std::size_t>(by_rank[r - 1])],
              sub.symbols[static_cast<std::size_t>(by_rank[r])]);
  EXPECT_EQ(sub.by_name, by_rank);
}

/// The variable references under `e`, in pre-order.
void collect_refs(const Expr* e, std::vector<const Expr*>& out) {
  if (!e) return;
  visit_exprs(*e, [&](const Expr& x) {
    if (x.kind == ExprKind::kVarRef || x.kind == ExprKind::kArrayRef)
      out.push_back(&x);
  });
}

/// The symbols of the references inside an array reference's indices.
std::vector<int> index_syms(const Expr& ref) {
  std::vector<const Expr*> refs;
  for (const auto& idx : ref.args) collect_refs(idx.get(), refs);
  std::vector<int> out;
  for (const Expr* r : refs) out.push_back(r->sym);
  return out;
}

/// Every record of the analyses carries the symbol of the name it refers
/// to: each def/use access and its index reads, each definition, each
/// pattern record and each dependence.
void expect_records(const Subroutine& sub, const dfg::Cfg& cfg) {
  const auto defuse = dfg::analyze_defuse(sub, cfg);
  const auto rd = dfg::ReachingDefs::solve(sub, cfg, defuse);
  const auto pats = dfg::Patterns::detect(sub, cfg, defuse);
  const auto deps = dfg::DepGraph::build(sub, cfg, defuse);
  for (const Stmt* s : cfg.statements()) {
    SCOPED_TRACE("statement " + std::to_string(s->id));
    const dfg::StmtDefUse& du = defuse[static_cast<std::size_t>(s->id)];
    // The def: the assigned reference or the DO variable.
    std::vector<const Expr*> uses;
    if (s->kind == StmtKind::kAssign) {
      ASSERT_TRUE(du.def.has_value());
      EXPECT_EQ(du.def->var, s->lhs->sym);
      EXPECT_EQ(du.def->index_reads, index_syms(*s->lhs));
      for (const auto& idx : s->lhs->args) collect_refs(idx.get(), uses);
    } else if (s->kind == StmtKind::kDo) {
      ASSERT_TRUE(du.def.has_value());
      EXPECT_EQ(du.def->var, s->do_sym);
    } else {
      EXPECT_FALSE(du.def.has_value());
    }
    // The uses: every other reference of the statement, in pre-order.
    for (const Expr* e : {s->rhs.get(), s->do_lo.get(), s->do_hi.get(),
                          s->do_step.get(), s->cond.get()})
      collect_refs(e, uses);
    for (const auto& a : s->call_args) collect_refs(a.get(), uses);
    ASSERT_EQ(du.uses.size(), uses.size());
    for (std::size_t k = 0; k < uses.size(); ++k) {
      EXPECT_EQ(du.uses[k].var, uses[k]->sym) << uses[k]->name;
      if (du.uses[k].shape != dfg::AccessShape::kWhole) {
        EXPECT_EQ(du.uses[k].index_reads, index_syms(*uses[k]))
            << uses[k]->name;
      }
    }
  }
  for (const dfg::Definition& d : rd.definitions()) {
    const int expected =
        d.is_entry()
            ? sub.symbol(sub.params[static_cast<std::size_t>(d.id)])
            : defuse[static_cast<std::size_t>(d.stmt->id)].def->var;
    EXPECT_EQ(d.var, expected);
  }
  for (const dfg::Reduction& r : pats.reductions())
    EXPECT_EQ(r.var, r.stmt->lhs->sym);
  for (const dfg::Assembly& a : pats.assemblies())
    EXPECT_EQ(a.var, a.stmt->lhs->sym);
  for (const dfg::Induction& i : pats.inductions())
    EXPECT_EQ(i.var, i.stmt->lhs->sym);
  // A dependence's variable is accessed at one of its statements.
  auto accessed_at = [&](const Stmt* s, int var) {
    if (!s) return false;
    const dfg::StmtDefUse& du = defuse[static_cast<std::size_t>(s->id)];
    if (du.def && du.def->var == var) return true;
    for (const dfg::VarAccess& u : du.uses)
      if (u.var == var) return true;
    return false;
  };
  for (const dfg::Dependence& d : deps.all()) {
    if (d.kind == dfg::DepKind::kControl) {
      EXPECT_EQ(d.var, -1);
      continue;
    }
    EXPECT_TRUE(accessed_at(d.src, d.var) || accessed_at(d.dst, d.var))
        << to_string(d.kind) << " dependence on symbol " << d.var;
  }
}

/// A copy of `sub` made of cloned statements, resolved again by the CFG.
Subroutine clone_sub(const Subroutine& sub) {
  Subroutine copy;
  copy.name = sub.name;
  copy.params = sub.params;
  copy.decls = sub.decls;
  for (const auto& s : sub.body) copy.body.push_back(s->clone());
  return copy;
}

// The classic case-d loop (see fission_test.cpp): distributable into two.
constexpr const char* kFissionableSource =
    "      subroutine f(nsom,b,c)\n"
    "      integer nsom,i\n"
    "      real a(1001),b(1000),c(1000)\n"
    "      do i = 1,nsom\n"
    "        a(i) = b(i)\n"
    "        c(i) = a(i+1) * 2.0\n"
    "      end do\n"
    "      end\n";

constexpr const char* kFissionSpec =
    "pattern overlap-triangle-layer\n"
    "loopvar i over nsom partition nodes\n"
    "array a nodes\narray b nodes\narray c nodes\n"
    "input a coherent\ninput b coherent\ninput nsom replicated\n"
    "output c incoherent\n";

TEST(Ast, NumberStatementsResolvesEveryName) {
  struct Program {
    std::string name, source, spec;
  };
  std::vector<Program> programs = {
      {"testt", testt_source(), testt_spec()},
      {"coupled", coupled_source(), coupled_spec()}};
  for (int stages = 1; stages <= 32; ++stages)
    programs.push_back({"synthetic" + std::to_string(stages),
                        synthetic_source(stages), synthetic_spec(stages)});
  for (const auto& [name, source, spec] : programs) {
    SCOPED_TRACE(name);
    DiagnosticEngine diags;
    Subroutine sub = parse_subroutine(source, diags);
    ASSERT_FALSE(diags.has_errors()) << diags.str();
    ASSERT_FALSE(sub.symbols.empty());
    expect_resolved(sub);
    expect_name_rank(sub);
    // Re-numbering is idempotent.
    const std::vector<std::string> before = sub.symbols;
    number_statements(sub);
    EXPECT_EQ(sub.symbols, before);

    // The model's analyses, and the same analyses over a cloned copy.
    auto model = placement::ProgramModel::build(source, spec, diags);
    ASSERT_NE(model, nullptr) << diags.str();
    expect_records(model->sub(), model->cfg());
    Subroutine copy = clone_sub(sub);
    const dfg::Cfg cfg = dfg::Cfg::build(copy, diags);
    ASSERT_FALSE(diags.has_errors()) << diags.str();
    EXPECT_EQ(copy.symbols, sub.symbols);
    expect_name_rank(copy);
    expect_records(copy, cfg);
  }

  // The model of a fissioned program, the one its placements run against.
  DiagnosticEngine diags;
  auto model =
      placement::ProgramModel::build(kFissionableSource, kFissionSpec, diags);
  ASSERT_NE(model, nullptr) << diags.str();
  auto fissioned = placement::fission_forbidden_loops(*model);
  ASSERT_TRUE(fissioned.has_value());
  auto refit =
      placement::ProgramModel::build(fissioned->source, kFissionSpec, diags);
  ASSERT_NE(refit, nullptr) << diags.str();
  SCOPED_TRACE("fissioned");
  expect_resolved(refit->sub());
  expect_name_rank(refit->sub());
  expect_records(refit->sub(), refit->cfg());
  EXPECT_EQ(refit->sub().symbols, model->sub().symbols);
}

}  // namespace
}  // namespace meshpar::lang
