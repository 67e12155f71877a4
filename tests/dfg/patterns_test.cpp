#include "dfg/patterns.hpp"

#include <gtest/gtest.h>

#include "lang/corpus.hpp"
#include "lang/parser.hpp"

namespace meshpar::dfg {
namespace {

struct Built {
  lang::Subroutine sub;
  Cfg cfg;
  std::vector<StmtDefUse> du;
  Patterns pats;
};

Built build(std::string_view src) {
  DiagnosticEngine diags;
  lang::Subroutine sub = lang::parse_subroutine(src, diags);
  EXPECT_FALSE(diags.has_errors()) << diags.str();
  Cfg cfg = Cfg::build(sub, diags);
  EXPECT_FALSE(diags.has_errors()) << diags.str();
  auto du = analyze_defuse(sub, cfg);
  auto pats = Patterns::detect(sub, cfg, du);
  return {std::move(sub), std::move(cfg), std::move(du), std::move(pats)};
}

TEST(Patterns, SumReduction) {
  auto b = build(
      "      subroutine foo(n,a)\n"
      "      integer n,i\n"
      "      real a,x(10),s\n"
      "      s = 0.0\n"
      "      do i = 1,n\n"
      "        s = s + x(i)\n"
      "      end do\n"
      "      a = s\n"
      "      end\n");
  ASSERT_EQ(b.pats.reductions().size(), 1u);
  const Reduction& r = b.pats.reductions()[0];
  EXPECT_EQ(r.var, b.sub.symbol("s"));
  EXPECT_EQ(r.op, lang::BinOp::kAdd);
  EXPECT_EQ(r.loop, b.cfg.statements()[1]);
  EXPECT_TRUE(b.pats.is_reduction_var(*r.loop, b.sub.symbol("s")));
  EXPECT_FALSE(b.pats.is_reduction_var(*r.loop, b.sub.symbol("x")));
}

TEST(Patterns, ProductReduction) {
  auto b = build(
      "      subroutine foo(n,a)\n"
      "      integer n,i\n"
      "      real a,x(10),p\n"
      "      p = 1.0\n"
      "      do i = 1,n\n"
      "        p = p * x(i)\n"
      "      end do\n"
      "      a = p\n"
      "      end\n");
  ASSERT_EQ(b.pats.reductions().size(), 1u);
  EXPECT_EQ(b.pats.reductions()[0].op, lang::BinOp::kMul);
}

TEST(Patterns, InductionNotReduction) {
  auto b = build(
      "      subroutine foo(n,a)\n"
      "      integer n,i,k\n"
      "      real a\n"
      "      k = 0\n"
      "      do i = 1,n\n"
      "        k = k + 1\n"
      "      end do\n"
      "      a = k\n"
      "      end\n");
  EXPECT_TRUE(b.pats.reductions().empty());
  ASSERT_EQ(b.pats.inductions().size(), 1u);
  EXPECT_EQ(b.pats.inductions()[0].var, b.sub.symbol("k"));
}

TEST(Patterns, AccumulatingLoopInvariantScalarIsInduction) {
  auto b = build(
      "      subroutine foo(n,c,a)\n"
      "      integer n,i\n"
      "      real a,c,s\n"
      "      s = 0.0\n"
      "      do i = 1,n\n"
      "        s = s + c\n"
      "      end do\n"
      "      a = s\n"
      "      end\n");
  EXPECT_TRUE(b.pats.reductions().empty());
  EXPECT_EQ(b.pats.inductions().size(), 1u);
}

TEST(Patterns, MidLoopReadDisqualifiesReduction) {
  auto b = build(
      "      subroutine foo(n,a)\n"
      "      integer n,i\n"
      "      real a,x(10),s\n"
      "      s = 0.0\n"
      "      do i = 1,n\n"
      "        s = s + x(i)\n"
      "        x(i) = s\n"
      "      end do\n"
      "      a = s\n"
      "      end\n");
  EXPECT_TRUE(b.pats.reductions().empty());
}

TEST(Patterns, ArrayAssembly) {
  auto b = build(
      "      subroutine foo(n,k)\n"
      "      integer n,i\n"
      "      integer k(10)\n"
      "      real x(10),v\n"
      "      do i = 1,n\n"
      "        v = 1.0\n"
      "        x(k(i)) = x(k(i)) + v\n"
      "      end do\n"
      "      end\n");
  ASSERT_EQ(b.pats.assemblies().size(), 1u);
  EXPECT_EQ(b.pats.assemblies()[0].var, b.sub.symbol("x"));
  EXPECT_EQ(b.pats.assemblies()[0].op, lang::BinOp::kAdd);
}

TEST(Patterns, MixedWriteDisqualifiesAssembly) {
  auto b = build(
      "      subroutine foo(n,k)\n"
      "      integer n,i\n"
      "      integer k(10)\n"
      "      real x(10)\n"
      "      do i = 1,n\n"
      "        x(k(i)) = x(k(i)) + 1.0\n"
      "        x(i) = 0.0\n"
      "      end do\n"
      "      end\n");
  EXPECT_TRUE(b.pats.assemblies().empty());
}

TEST(Patterns, LocalizableTemp) {
  auto b = build(
      "      subroutine foo(n)\n"
      "      integer n,i\n"
      "      real x(10),t\n"
      "      do i = 1,n\n"
      "        t = x(i) * 2.0\n"
      "        x(i) = t\n"
      "      end do\n"
      "      end\n");
  const lang::Stmt* loop = b.cfg.statements()[0];
  EXPECT_TRUE(b.pats.is_localizable(*loop, b.sub.symbol("t")));
}

TEST(Patterns, UpwardExposedTempNotLocalizable) {
  auto b = build(
      "      subroutine foo(n)\n"
      "      integer n,i\n"
      "      real x(10),t\n"
      "      t = 5.0\n"
      "      do i = 1,n\n"
      "        x(i) = t\n"
      "        t = x(i)\n"
      "      end do\n"
      "      end\n");
  const lang::Stmt* loop = b.cfg.statements()[1];
  EXPECT_FALSE(b.pats.is_localizable(*loop, b.sub.symbol("t")));
}

TEST(Patterns, LiveOutTempNotLocalizable) {
  auto b = build(
      "      subroutine foo(n,a)\n"
      "      integer n,i\n"
      "      real a,x(10),t\n"
      "      do i = 1,n\n"
      "        t = x(i)\n"
      "      end do\n"
      "      a = t\n"
      "      end\n");
  const lang::Stmt* loop = b.cfg.statements()[0];
  EXPECT_FALSE(b.pats.is_localizable(*loop, b.sub.symbol("t")));
}

TEST(Patterns, ParameterNotLocalizable) {
  auto b = build(
      "      subroutine foo(n,t)\n"
      "      integer n,i\n"
      "      real t,x(10)\n"
      "      do i = 1,n\n"
      "        t = x(i)\n"
      "        x(i) = t\n"
      "      end do\n"
      "      end\n");
  const lang::Stmt* loop = b.cfg.statements()[0];
  EXPECT_FALSE(b.pats.is_localizable(*loop, b.sub.symbol("t")));
}

TEST(Patterns, TesttFullDetection) {
  DiagnosticEngine diags;
  lang::Subroutine sub = lang::parse_subroutine(lang::testt_source(), diags);
  Cfg cfg = Cfg::build(sub, diags);
  auto du = analyze_defuse(sub, cfg);
  auto pats = Patterns::detect(sub, cfg, du);

  // sqrdiff is the only scalar reduction; NEW is assembled in the triangle
  // loop with three assembly statements.
  ASSERT_EQ(pats.reductions().size(), 1u);
  EXPECT_EQ(pats.reductions()[0].var, sub.symbol("sqrdiff"));
  EXPECT_EQ(pats.assemblies().size(), 3u);
  for (const auto& a : pats.assemblies()) EXPECT_EQ(a.var, sub.symbol("new"));

  // The triangle loop localizes s1, s2, s3, vm.
  const lang::Stmt* tri_loop = nullptr;
  const lang::Stmt* diff_loop = nullptr;
  for (const lang::Stmt* s : cfg.statements()) {
    if (s->kind != lang::StmtKind::kDo) continue;
    if (s->do_hi->name == "ntri") tri_loop = s;
    if (s->do_hi->name == "nsom" && !s->body.empty() &&
        s->body[0]->kind == lang::StmtKind::kAssign &&
        s->body[0]->lhs->name == "diff")
      diff_loop = s;
  }
  ASSERT_NE(tri_loop, nullptr);
  ASSERT_NE(diff_loop, nullptr);
  for (const char* name : {"s1", "s2", "s3", "vm"})
    EXPECT_TRUE(pats.is_localizable(*tri_loop, sub.symbol(name))) << name;
  EXPECT_FALSE(pats.is_localizable(*tri_loop, sub.symbol("new")));
  // diff is localizable in the difference loop, sqrdiff is not.
  EXPECT_TRUE(pats.is_localizable(*diff_loop, sub.symbol("diff")));
  EXPECT_FALSE(pats.is_localizable(*diff_loop, sub.symbol("sqrdiff")));
}

}  // namespace
}  // namespace meshpar::dfg
