#include "dfg/reaching.hpp"

#include <gtest/gtest.h>

#include "lang/corpus.hpp"
#include "lang/parser.hpp"

namespace meshpar::dfg {
namespace {

struct Built {
  lang::Subroutine sub;
  Cfg cfg;
  std::vector<StmtDefUse> du;
  ReachingDefs rd;
};

Built build(std::string_view src) {
  DiagnosticEngine diags;
  lang::Subroutine sub = lang::parse_subroutine(src, diags);
  EXPECT_FALSE(diags.has_errors()) << diags.str();
  Cfg cfg = Cfg::build(sub, diags);
  EXPECT_FALSE(diags.has_errors()) << diags.str();
  auto du = analyze_defuse(sub, cfg);
  auto rd = ReachingDefs::solve(sub, cfg, du);
  return {std::move(sub), std::move(cfg), std::move(du), std::move(rd)};
}

TEST(Reaching, ParameterEntryDefsReachFirstUse) {
  auto b = build(
      "      subroutine foo(a,b)\n"
      "      real a,b\n"
      "      a = b\n"
      "      end\n");
  auto ids = b.rd.reaching(*b.cfg.statements()[0], b.sub.symbol("b"));
  ASSERT_EQ(ids.size(), 1u);
  EXPECT_TRUE(b.rd.definitions()[ids[0]].is_entry());
  EXPECT_EQ(b.rd.entry_def(b.sub.symbol("b")), ids[0]);
}

TEST(Reaching, ScalarKill) {
  auto b = build(
      "      subroutine foo(a)\n"
      "      real a,x\n"
      "      x = 1.0\n"
      "      x = 2.0\n"
      "      a = x\n"
      "      end\n");
  const auto& s = b.cfg.statements();
  auto ids = b.rd.reaching(*s[2], b.sub.symbol("x"));
  ASSERT_EQ(ids.size(), 1u);
  EXPECT_EQ(b.rd.definitions()[ids[0]].stmt, s[1]);  // only the second def
}

TEST(Reaching, BranchMerges) {
  auto b = build(
      "      subroutine foo(c,a)\n"
      "      real c,a,x\n"
      "      if (c .gt. 0.0) then\n"
      "        x = 1.0\n"
      "      else\n"
      "        x = 2.0\n"
      "      end if\n"
      "      a = x\n"
      "      end\n");
  const auto& s = b.cfg.statements();
  auto ids = b.rd.reaching(*s[3], b.sub.symbol("x"));
  EXPECT_EQ(ids.size(), 2u);
}

TEST(Reaching, ArrayMayDefsAccumulate) {
  auto b = build(
      "      subroutine foo(n,a)\n"
      "      integer n,i\n"
      "      real a,x(10)\n"
      "      do i = 1,n\n"
      "        x(i) = 0.0\n"
      "      end do\n"
      "      do i = 1,n\n"
      "        x(i) = 1.0\n"
      "      end do\n"
      "      a = x(1)\n"
      "      end\n");
  const auto& s = b.cfg.statements();
  // Both loop stores reach the final read: array defs never kill.
  auto ids = b.rd.reaching(*s[4], b.sub.symbol("x"));
  EXPECT_EQ(ids.size(), 2u);
}

TEST(Reaching, LoopCarriedScalarReachesSelf) {
  auto b = build(
      "      subroutine foo(n,a)\n"
      "      integer n,i\n"
      "      real a,s\n"
      "      s = 0.0\n"
      "      do i = 1,n\n"
      "        s = s + a\n"
      "      end do\n"
      "      end\n");
  const auto& s = b.cfg.statements();
  const lang::Stmt* red = s[2];
  auto ids = b.rd.reaching(*red, b.sub.symbol("s"));
  // Both the initialization and the accumulation itself reach the use.
  EXPECT_EQ(ids.size(), 2u);
}

TEST(Reaching, ReachingExit) {
  auto b = build(
      "      subroutine foo(a)\n"
      "      real a\n"
      "      a = 1.0\n"
      "      end\n");
  auto ids = b.rd.reaching_exit(b.sub.symbol("a"));
  ASSERT_EQ(ids.size(), 1u);
  EXPECT_FALSE(b.rd.definitions()[ids[0]].is_entry());
}

TEST(Reaching, DefAtAndDefsOf) {
  auto b = build(
      "      subroutine foo(a)\n"
      "      real a,x\n"
      "      x = 1.0\n"
      "      x = 2.0\n"
      "      end\n");
  const auto& s = b.cfg.statements();
  EXPECT_GE(b.rd.def_at(*s[0]), 0);
  EXPECT_GE(b.rd.def_at(*s[1]), 0);
  EXPECT_NE(b.rd.def_at(*s[0]), b.rd.def_at(*s[1]));
  EXPECT_EQ(b.rd.defs_of(b.sub.symbol("x")).size(), 2u);
  EXPECT_EQ(b.rd.defs_of(b.sub.symbol("a")).size(), 1u);  // entry def only
}

TEST(Reaching, TesttOldReachedByInitAndCopy) {
  DiagnosticEngine diags;
  lang::Subroutine sub = lang::parse_subroutine(lang::testt_source(), diags);
  Cfg cfg = Cfg::build(sub, diags);
  auto du = analyze_defuse(sub, cfg);
  auto rd = ReachingDefs::solve(sub, cfg, du);
  // The gather statement "vm = old(s1)+old(s2)+old(s3)".
  const lang::Stmt* gather = nullptr;
  for (const lang::Stmt* s : cfg.statements())
    if (s->kind == lang::StmtKind::kAssign &&
        s->lhs->name == "vm" && lang::expr_reads(*s->rhs, "old"))
      gather = s;
  ASSERT_NE(gather, nullptr);
  auto ids = rd.reaching(*gather, sub.symbol("old"));
  // old(i)=init(i) and old(i)=new(i), both array may-defs.
  EXPECT_EQ(ids.size(), 2u);
  for (int id : ids) EXPECT_TRUE(rd.definitions()[id].may);
}

}  // namespace
}  // namespace meshpar::dfg
