#include "dfg/defuse.hpp"

#include <gtest/gtest.h>

#include "lang/corpus.hpp"
#include "lang/parser.hpp"

namespace meshpar::dfg {
namespace {

struct Built {
  lang::Subroutine sub;
  Cfg cfg;
  std::vector<StmtDefUse> du;
};

Built build(std::string_view src) {
  DiagnosticEngine diags;
  lang::Subroutine sub = lang::parse_subroutine(src, diags);
  EXPECT_FALSE(diags.has_errors()) << diags.str();
  Cfg cfg = Cfg::build(sub, diags);
  EXPECT_FALSE(diags.has_errors()) << diags.str();
  auto du = analyze_defuse(sub, cfg);
  return {std::move(sub), std::move(cfg), std::move(du)};
}

bool uses_var(const StmtDefUse& du, int v) {
  for (const auto& u : du.uses)
    if (u.var == v) return true;
  return false;
}

TEST(DefUse, ScalarAssignKills) {
  auto b = build(
      "      subroutine foo(a,b)\n"
      "      real a,b\n"
      "      a = b\n"
      "      end\n");
  const auto& du = b.du[0];
  ASSERT_TRUE(du.def.has_value());
  EXPECT_EQ(du.def->var, b.sub.symbol("a"));
  EXPECT_EQ(du.def->shape, AccessShape::kScalar);
  EXPECT_TRUE(du.kills());
  EXPECT_TRUE(uses_var(du, b.sub.symbol("b")));
  EXPECT_FALSE(uses_var(du, b.sub.symbol("a")));
}

TEST(DefUse, ElementwiseArrayAccess) {
  auto b = build(
      "      subroutine foo(n)\n"
      "      integer n,i\n"
      "      real x(10),y(10)\n"
      "      do i = 1,n\n"
      "        x(i) = y(i)\n"
      "      end do\n"
      "      end\n");
  const lang::Stmt* loop = b.cfg.statements()[0];
  const auto& du = b.du[1];
  ASSERT_TRUE(du.def.has_value());
  EXPECT_EQ(du.def->shape, AccessShape::kElementwise);
  EXPECT_EQ(du.def->index_loop, loop);
  EXPECT_FALSE(du.kills());  // array stores are may-defs
  // y read + i read on both sides
  ASSERT_GE(du.uses.size(), 2u);
  const VarAccess* y = nullptr;
  for (const auto& u : du.uses)
    if (u.var == b.sub.symbol("y")) y = &u;
  ASSERT_NE(y, nullptr);
  EXPECT_EQ(y->shape, AccessShape::kElementwise);
}

TEST(DefUse, ShiftedIndexIsElementwiseWithOffset) {
  auto b = build(
      "      subroutine foo(n)\n"
      "      integer n,i\n"
      "      real x(10),y(10),z(10)\n"
      "      do i = 1,n\n"
      "        x(i) = y(i+1) + z(i-2)\n"
      "      end do\n"
      "      end\n");
  const auto& du = b.du[1];
  const VarAccess* y = nullptr;
  const VarAccess* z = nullptr;
  for (const auto& u : du.uses) {
    if (u.var == b.sub.symbol("y")) y = &u;
    if (u.var == b.sub.symbol("z")) z = &u;
  }
  ASSERT_NE(y, nullptr);
  ASSERT_NE(z, nullptr);
  EXPECT_EQ(y->shape, AccessShape::kElementwise);
  EXPECT_EQ(y->offset, 1);
  EXPECT_EQ(z->shape, AccessShape::kElementwise);
  EXPECT_EQ(z->offset, -2);
  EXPECT_EQ(du.def->offset, 0);
}

TEST(DefUse, ConstantPlusLoopVarIsShifted) {
  auto b = build(
      "      subroutine foo(n)\n"
      "      integer n,i\n"
      "      real x(10),y(10)\n"
      "      do i = 1,n\n"
      "        x(i) = y(1+i)\n"
      "      end do\n"
      "      end\n");
  const auto& du = b.du[1];
  const VarAccess* y = nullptr;
  for (const auto& u : du.uses)
    if (u.var == b.sub.symbol("y")) y = &u;
  ASSERT_NE(y, nullptr);
  EXPECT_EQ(y->shape, AccessShape::kElementwise);
  EXPECT_EQ(y->offset, 1);
}

TEST(DefUse, NonConstantShiftIsIndirect) {
  auto b = build(
      "      subroutine foo(n,k)\n"
      "      integer n,i,k\n"
      "      real x(10),y(10)\n"
      "      do i = 1,n\n"
      "        x(i) = y(i+k)\n"
      "      end do\n"
      "      end\n");
  const auto& du = b.du[1];
  const VarAccess* y = nullptr;
  for (const auto& u : du.uses)
    if (u.var == b.sub.symbol("y")) y = &u;
  ASSERT_NE(y, nullptr);
  EXPECT_EQ(y->shape, AccessShape::kIndirect);
}

TEST(DefUse, ConstantSecondIndexStaysElementwise) {
  auto b = build(
      "      subroutine foo(n)\n"
      "      integer n,i,s\n"
      "      integer som(10,3)\n"
      "      do i = 1,n\n"
      "        s = som(i,2)\n"
      "      end do\n"
      "      end\n");
  const auto& du = b.du[1];
  const VarAccess* som = nullptr;
  for (const auto& u : du.uses)
    if (u.var == b.sub.symbol("som")) som = &u;
  ASSERT_NE(som, nullptr);
  EXPECT_EQ(som->shape, AccessShape::kElementwise);
}

TEST(DefUse, IndirectAccessThroughScalar) {
  auto b = build(
      "      subroutine foo(n)\n"
      "      integer n,i,s\n"
      "      real old(10)\n"
      "      real v\n"
      "      do i = 1,n\n"
      "        v = old(s)\n"
      "      end do\n"
      "      end\n");
  const auto& du = b.du[1];
  const VarAccess* old_a = nullptr;
  for (const auto& u : du.uses)
    if (u.var == b.sub.symbol("old")) old_a = &u;
  ASSERT_NE(old_a, nullptr);
  EXPECT_EQ(old_a->shape, AccessShape::kIndirect);
  ASSERT_EQ(old_a->index_reads.size(), 1u);
  EXPECT_EQ(old_a->index_reads[0], b.sub.symbol("s"));
  // The index scalar is itself a use.
  EXPECT_TRUE(uses_var(du, b.sub.symbol("s")));
}

TEST(DefUse, LhsIndexExpressionsAreUses) {
  auto b = build(
      "      subroutine foo(n)\n"
      "      integer n,i,s\n"
      "      real x(10)\n"
      "      do i = 1,n\n"
      "        x(s) = 1.0\n"
      "      end do\n"
      "      end\n");
  const auto& du = b.du[1];
  EXPECT_EQ(du.def->var, b.sub.symbol("x"));
  EXPECT_EQ(du.def->shape, AccessShape::kIndirect);
  EXPECT_TRUE(uses_var(du, b.sub.symbol("s")));
}

TEST(DefUse, DoHeaderDefinesLoopVariable) {
  auto b = build(
      "      subroutine foo(n)\n"
      "      integer n,i\n"
      "      do i = 1,n\n"
      "      end do\n"
      "      end\n");
  const auto& du = b.du[0];
  ASSERT_TRUE(du.def.has_value());
  EXPECT_EQ(du.def->var, b.sub.symbol("i"));
  EXPECT_TRUE(du.kills());
  EXPECT_TRUE(uses_var(du, b.sub.symbol("n")));
}

TEST(DefUse, IfConditionIsUseOnly) {
  auto b = build(
      "      subroutine foo(x,eps)\n"
      "      real x,eps\n"
      "      if (x .lt. eps) goto 100\n"
      "100   continue\n"
      "      end\n");
  const auto& du = b.du[0];
  EXPECT_FALSE(du.def.has_value());
  EXPECT_TRUE(uses_var(du, b.sub.symbol("x")));
  EXPECT_TRUE(uses_var(du, b.sub.symbol("eps")));
}

TEST(DefUse, CallArgumentsAreWholeUses) {
  auto b = build(
      "      subroutine foo(x)\n"
      "      real x(10)\n"
      "      call bar(x)\n"
      "      end\n");
  const auto& du = b.du[0];
  ASSERT_EQ(du.uses.size(), 1u);
  EXPECT_EQ(du.uses[0].var, b.sub.symbol("x"));
  EXPECT_EQ(du.uses[0].shape, AccessShape::kWhole);
}

TEST(DefUse, TesttGatherScatterShapes) {
  DiagnosticEngine diags;
  lang::Subroutine sub = lang::parse_subroutine(lang::testt_source(), diags);
  Cfg cfg = Cfg::build(sub, diags);
  ASSERT_FALSE(diags.has_errors());
  auto du = analyze_defuse(sub, cfg);
  // Find "vm = old(s1) + old(s2) + old(s3)".
  const StmtDefUse* vm_stmt = nullptr;
  for (const auto& d : du) {
    if (d.def && d.def->var == sub.symbol("vm") &&
        uses_var(d, sub.symbol("old"))) {
      vm_stmt = &d;
      break;
    }
  }
  ASSERT_NE(vm_stmt, nullptr);
  for (const auto& u : vm_stmt->uses) {
    if (u.var == sub.symbol("old")) {
      EXPECT_EQ(u.shape, AccessShape::kIndirect);
    }
  }
  // Find "new(s1) = new(s1) + vm/airesom(s1)".
  const StmtDefUse* scatter = nullptr;
  for (const auto& d : du) {
    if (d.def && d.def->var == sub.symbol("new") &&
        d.def->shape == AccessShape::kIndirect) {
      scatter = &d;
      break;
    }
  }
  ASSERT_NE(scatter, nullptr);
  EXPECT_TRUE(uses_var(*scatter, sub.symbol("vm")));
  EXPECT_TRUE(uses_var(*scatter, sub.symbol("airesom")));
}

}  // namespace
}  // namespace meshpar::dfg
