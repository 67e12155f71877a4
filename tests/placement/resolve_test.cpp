// Name resolution (lang::number_statements): every variable reference and
// every DO variable carries the index of its name in Subroutine::symbols,
// for every subroutine the interpreter, the sanitizer and the coherence
// tables can be handed — parsed, modeled, cloned and fissioned ones.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

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
  std::vector<std::pair<std::string, std::string>> programs = {
      {"testt", testt_source()}, {"coupled", coupled_source()}};
  for (int stages = 1; stages <= 32; ++stages)
    programs.emplace_back("synthetic" + std::to_string(stages),
                          synthetic_source(stages));
  for (const auto& [name, source] : programs) {
    SCOPED_TRACE(name);
    DiagnosticEngine diags;
    Subroutine sub = parse_subroutine(source, diags);
    ASSERT_FALSE(diags.has_errors()) << diags.str();
    ASSERT_FALSE(sub.symbols.empty());
    expect_resolved(sub);
    // Re-numbering is idempotent.
    const std::vector<std::string> before = sub.symbols;
    number_statements(sub);
    EXPECT_EQ(sub.symbols, before);
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
  EXPECT_EQ(refit->sub().symbols, model->sub().symbols);
}

}  // namespace
}  // namespace meshpar::lang
