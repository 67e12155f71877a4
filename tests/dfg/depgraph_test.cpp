#include "dfg/depgraph.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "lang/corpus.hpp"
#include "lang/parser.hpp"

namespace meshpar::dfg {
namespace {

struct Built {
  lang::Subroutine sub;
  Cfg cfg;
  std::vector<StmtDefUse> du;
  DepGraph dg;
};

Built build(std::string_view src) {
  DiagnosticEngine diags;
  lang::Subroutine sub = lang::parse_subroutine(src, diags);
  EXPECT_FALSE(diags.has_errors()) << diags.str();
  Cfg cfg = Cfg::build(sub, diags);
  EXPECT_FALSE(diags.has_errors()) << diags.str();
  auto du = analyze_defuse(sub, cfg);
  auto dg = DepGraph::build(sub, cfg, du);
  return {std::move(sub), std::move(cfg), std::move(du), std::move(dg)};
}

/// The dependence of `kind` from `src` to `dst` on the variable named
/// `var` ("" for control), or nullptr.
const Dependence* find_dep(const Built& b, DepKind kind,
                           const lang::Stmt* src, const lang::Stmt* dst,
                           std::string_view var) {
  const int sym = var.empty() ? -1 : b.sub.symbol(var);
  for (const auto& d : b.dg.all())
    if (d.kind == kind && d.src == src && d.dst == dst && d.var == sym)
      return &d;
  return nullptr;
}

TEST(DepGraph, TrueDependence) {
  auto b = build(
      "      subroutine foo(a,b)\n"
      "      real a,b,x\n"
      "      x = a\n"
      "      b = x\n"
      "      end\n");
  const auto& s = b.cfg.statements();
  const Dependence* d = find_dep(b, DepKind::kTrue, s[0], s[1], "x");
  ASSERT_NE(d, nullptr);
  EXPECT_FALSE(d->is_carried());
  // Parameter flow: entry (nullptr src) -> first statement.
  EXPECT_NE(find_dep(b, DepKind::kTrue, nullptr, s[0], "a"), nullptr);
}

TEST(DepGraph, AntiDependence) {
  auto b = build(
      "      subroutine foo(a,b)\n"
      "      real a,b,x\n"
      "      b = x\n"
      "      x = a\n"
      "      end\n");
  const auto& s = b.cfg.statements();
  EXPECT_NE(find_dep(b, DepKind::kAnti, s[0], s[1], "x"), nullptr);
}

TEST(DepGraph, OutputDependence) {
  auto b = build(
      "      subroutine foo(a)\n"
      "      real a,x\n"
      "      x = 1.0\n"
      "      x = 2.0\n"
      "      end\n");
  const auto& s = b.cfg.statements();
  EXPECT_NE(find_dep(b, DepKind::kOutput, s[0], s[1], "x"), nullptr);
}

TEST(DepGraph, ControlDependence) {
  auto b = build(
      "      subroutine foo(c,x)\n"
      "      real c,x\n"
      "      if (c .gt. 0.0) then\n"
      "        x = 1.0\n"
      "      end if\n"
      "      x = 2.0\n"
      "      end\n");
  const auto& s = b.cfg.statements();
  // The guarded statement is control-dependent on the if.
  EXPECT_NE(find_dep(b, DepKind::kControl, s[0], s[1], ""), nullptr);
  // The statement after the if is not.
  EXPECT_EQ(find_dep(b, DepKind::kControl, s[0], s[2], ""), nullptr);
}

TEST(DepGraph, LoopControlsItsBody) {
  auto b = build(
      "      subroutine foo(n)\n"
      "      integer n,i\n"
      "      real x(10)\n"
      "      do i = 1,n\n"
      "        x(i) = 0.0\n"
      "      end do\n"
      "      end\n");
  const auto& s = b.cfg.statements();
  // The DO header has two successors (body, after-loop), so the body is
  // control-dependent on it.
  EXPECT_NE(find_dep(b, DepKind::kControl, s[0], s[1], ""), nullptr);
}

TEST(DepGraph, ElementwiseLoopHasNoCarriedDeps) {
  auto b = build(
      "      subroutine foo(n)\n"
      "      integer n,i\n"
      "      real x(10),y(10)\n"
      "      do i = 1,n\n"
      "        x(i) = y(i)\n"
      "        y(i) = x(i)\n"
      "      end do\n"
      "      end\n");
  const lang::Stmt* loop = b.cfg.statements()[0];
  EXPECT_TRUE(b.dg.carried_by(*loop).empty());
}

TEST(DepGraph, ScalarAccumulationIsCarried) {
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
  const lang::Stmt* loop = s[1];
  const lang::Stmt* red = s[2];
  const Dependence* d = find_dep(b, DepKind::kTrue, red, red, "s");
  ASSERT_NE(d, nullptr);
  ASSERT_EQ(d->carried_by.size(), 1u);
  EXPECT_EQ(d->carried_by[0], loop);
}

TEST(DepGraph, PrivatizableTempIsNotCarried) {
  auto b = build(
      "      subroutine foo(n)\n"
      "      integer n,i\n"
      "      real x(10),t\n"
      "      do i = 1,n\n"
      "        t = x(i)\n"
      "        x(i) = t * 2.0\n"
      "      end do\n"
      "      end\n");
  const auto& s = b.cfg.statements();
  const lang::Stmt* def_t = s[1];
  const lang::Stmt* use_t = s[2];
  const Dependence* d = find_dep(b, DepKind::kTrue, def_t, use_t, "t");
  ASSERT_NE(d, nullptr);
  // The def is killed at the top of every iteration before the use.
  EXPECT_FALSE(d->is_carried());
  // But the anti dependence use->def wraps around the iteration.
  const Dependence* anti = find_dep(b, DepKind::kAnti, use_t, def_t, "t");
  ASSERT_NE(anti, nullptr);
  EXPECT_TRUE(anti->is_carried());
}

TEST(DepGraph, IndirectScatterIsCarried) {
  auto b = build(
      "      subroutine foo(n,k)\n"
      "      integer n,i\n"
      "      integer k(10)\n"
      "      real x(10)\n"
      "      do i = 1,n\n"
      "        x(k(i)) = x(k(i)) + 1.0\n"
      "      end do\n"
      "      end\n");
  const auto& s = b.cfg.statements();
  const lang::Stmt* loop = s[0];
  const lang::Stmt* upd = s[1];
  const Dependence* d = find_dep(b, DepKind::kTrue, upd, upd, "x");
  ASSERT_NE(d, nullptr);
  ASSERT_EQ(d->carried_by.size(), 1u);
  EXPECT_EQ(d->carried_by[0], loop);
}

TEST(DepGraph, ShiftedAccessDirectionSuppressesBackwardTrueDep) {
  // a(i) written, a(i+1) read: the value read was never written by this
  // loop (it would have to flow backwards in time), so there is no true
  // dependence — only the forward-carried anti dependence.
  auto b = build(
      "      subroutine foo(n,bb,c)\n"
      "      integer n,i\n"
      "      real a(11),bb(10),c(10)\n"
      "      do i = 1,n\n"
      "        a(i) = bb(i)\n"
      "        c(i) = a(i+1)\n"
      "      end do\n"
      "      end\n");
  const auto& s = b.cfg.statements();
  const lang::Stmt* loop = s[0];
  const lang::Stmt* write_a = s[1];
  const lang::Stmt* read_a = s[2];
  EXPECT_EQ(find_dep(b, DepKind::kTrue, write_a, read_a, "a"), nullptr);
  const Dependence* anti = find_dep(b, DepKind::kAnti, read_a, write_a, "a");
  ASSERT_NE(anti, nullptr);
  ASSERT_EQ(anti->carried_by.size(), 1u);
  EXPECT_EQ(anti->carried_by[0], loop);
}

TEST(DepGraph, ShiftedAccessForwardTrueDepIsCarried) {
  // a(i) written, a(i-1) read: iteration i reads what iteration i-1 wrote —
  // a carried true dependence; and no anti dependence (the overwrite of
  // a(i-1) happened one iteration earlier).
  auto b = build(
      "      subroutine foo(n,bb,c)\n"
      "      integer n,i\n"
      "      real a(11),bb(10),c(10)\n"
      "      do i = 1,n\n"
      "        a(i) = bb(i)\n"
      "        c(i) = a(i-1)\n"
      "      end do\n"
      "      end\n");
  const auto& s = b.cfg.statements();
  const lang::Stmt* write_a = s[1];
  const lang::Stmt* read_a = s[2];
  const Dependence* d = find_dep(b, DepKind::kTrue, write_a, read_a, "a");
  ASSERT_NE(d, nullptr);
  EXPECT_TRUE(d->is_carried());
  EXPECT_EQ(find_dep(b, DepKind::kAnti, read_a, write_a, "a"), nullptr);
}

TEST(DepGraph, EqualShiftsAreLoopIndependent) {
  auto b = build(
      "      subroutine foo(n,bb)\n"
      "      integer n,i\n"
      "      real a(11),bb(10)\n"
      "      do i = 1,n\n"
      "        a(i+1) = bb(i)\n"
      "        bb(i) = a(i+1)\n"
      "      end do\n"
      "      end\n");
  const auto& s = b.cfg.statements();
  const Dependence* d =
      find_dep(b, DepKind::kTrue, s[1], s[2], "a");
  ASSERT_NE(d, nullptr);
  EXPECT_FALSE(d->is_carried());
}

TEST(DepGraph, TesttScatterLoopCarriesOnlyAllowedDeps) {
  DiagnosticEngine diags;
  lang::Subroutine sub = lang::parse_subroutine(lang::testt_source(), diags);
  Cfg cfg = Cfg::build(sub, diags);
  auto du = analyze_defuse(sub, cfg);
  auto dg = DepGraph::build(sub, cfg, du);
  // Find the triangle loop (do i = 1,ntri).
  const lang::Stmt* tri_loop = nullptr;
  for (const lang::Stmt* s : cfg.statements())
    if (s->kind == lang::StmtKind::kDo && s->do_hi->name == "ntri")
      tri_loop = s;
  ASSERT_NE(tri_loop, nullptr);
  // Every dependence carried by the triangle loop involves either the
  // assembled array NEW or the privatizable temps s1..s3, vm.
  for (const Dependence* d : dg.carried_by(*tri_loop)) {
    const std::string& var = sub.symbols[d->var];
    bool expected = var == "new" || var == "s1" || var == "s2" ||
                    var == "s3" || var == "vm";
    EXPECT_TRUE(expected) << to_string(d->kind) << " dep on " << var;
  }
}

TEST(DepGraph, AntiDependenceAcrossGotoBackEdgeOnly) {
  // x is read after its only definition, so the use reaches the def only
  // around the GOTO back edge: the anti dependence appears on the second
  // pass of the exposed-use dataflow, never on the first.
  auto b = build(
      "      subroutine foo(a,b,eps)\n"
      "      real a,b,eps,x\n"
      "100   x = a\n"
      "      b = b + x\n"
      "      if (b .lt. eps) goto 100\n"
      "      end\n");
  const auto& s = b.cfg.statements();
  const Dependence* anti = find_dep(b, DepKind::kAnti, s[1], s[0], "x");
  ASSERT_NE(anti, nullptr);
  EXPECT_FALSE(anti->is_carried());  // no DO loop encloses the GOTO cycle
  // The same flow gives b's read its anti dependence on b's own write.
  EXPECT_NE(find_dep(b, DepKind::kAnti, s[1], s[1], "b"), nullptr);
}

TEST(DepGraph, StrongScalarRedefinitionKillsExposedUse) {
  auto b = build(
      "      subroutine foo(a,b,c)\n"
      "      real a,b,c,x\n"
      "      b = x\n"
      "      x = a\n"
      "      x = c\n"
      "      end\n");
  const auto& s = b.cfg.statements();
  EXPECT_NE(find_dep(b, DepKind::kAnti, s[0], s[1], "x"), nullptr);
  // The scalar write x = a kills the exposed read of x: nothing past it
  // is anti-dependent on that read.
  EXPECT_EQ(find_dep(b, DepKind::kAnti, s[0], s[2], "x"), nullptr);
}

TEST(DepGraph, TwoReadsOfOneArrayGiveOneAntiDependence) {
  // c(i) = a(i) + a(i+1) reads a twice; the later write a(i) overwrites
  // both. Statements are the dependence units, so there is one anti
  // dependence, and it uses find_access's choice (the last elementwise
  // read, a(i+1)): distance +1, carried forward by the loop.
  auto b = build(
      "      subroutine foo(n,bb,c)\n"
      "      integer n,i\n"
      "      real a(11),bb(10),c(10)\n"
      "      do i = 1,n\n"
      "        c(i) = a(i) + a(i+1)\n"
      "        a(i) = bb(i)\n"
      "      end do\n"
      "      end\n");
  const auto& s = b.cfg.statements();
  const lang::Stmt* loop = s[0];
  int count = 0;
  for (const auto& d : b.dg.all())
    if (d.kind == DepKind::kAnti && d.src == s[1] && d.dst == s[2] &&
        d.var == b.sub.symbol("a"))
      ++count;
  EXPECT_EQ(count, 1);
  const Dependence* anti = find_dep(b, DepKind::kAnti, s[1], s[2], "a");
  ASSERT_NE(anti, nullptr);
  ASSERT_EQ(anti->carried_by.size(), 1u);
  EXPECT_EQ(anti->carried_by[0], loop);
}

/// FNV-1a over the ordered list: (kind, var name, src id, dst id,
/// carried_by ids) per dependence, with -1 for the entry and exit endpoints
/// and an empty name for control.
std::uint64_t hash_deps(const lang::Subroutine& sub, const DepGraph& dg) {
  std::uint64_t h = 14695981039346656037ull;
  auto feed = [&](const std::string& field) {
    for (unsigned char c : field) {
      h ^= c;
      h *= 1099511628211ull;
    }
    h ^= 0xff;  // field separator: no field contains this byte
    h *= 1099511628211ull;
  };
  for (const Dependence& d : dg.all()) {
    feed(to_string(d.kind));
    feed(d.var < 0 ? "" : sub.symbols[d.var]);
    feed(std::to_string(d.src ? d.src->id : -1));
    feed(std::to_string(d.dst ? d.dst->id : -1));
    std::string carried;
    for (const lang::Stmt* l : d.carried_by)
      carried += std::to_string(l->id) + ",";
    feed(carried);
  }
  return h;
}

TEST(DepGraph, SyntheticDependenceListIsPinned) {
  // The ordered dependence list of the synthetic corpus, pinned by hash:
  // any change to which dependences exist, their carrying loops or their
  // order shows up here (DESIGN.md §5).
  struct Pin {
    int stages;
    std::size_t count;
    std::uint64_t hash;
  };
  const Pin pinned[] = {
      {1, 168, 0x6a91ce53e23422e9ull},
      {3, 448, 0xfb7ff4af245a9e6eull},
      {9, 1960, 0x8fd3743f1ad5029eull},
      {24, 10150, 0x55092ae9b325320full},
      {32, 17094, 0x8286b943b3dec6a3ull},
  };
  for (const Pin& pin : pinned) {
    SCOPED_TRACE(pin.stages);
    auto b = build(lang::synthetic_source(pin.stages));
    EXPECT_EQ(b.dg.all().size(), pin.count);
    EXPECT_EQ(hash_deps(b.sub, b.dg), pin.hash);
  }
}

}  // namespace
}  // namespace meshpar::dfg
