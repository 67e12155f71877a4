// Loop fission (§3.2: "making two loops out of the first loop may transform
// case d into case f") and the edge-based 2-D extension.
#include "placement/fission.hpp"

#include <gtest/gtest.h>

#include "placement/tool.hpp"

namespace meshpar::placement {
namespace {

// The classic case-d shape: the loop writes a(i) and reads a(i+1) — only an
// anti dependence, carried forward across one iteration, no cycle. (With an
// indirection like a(k(i)) the direction is unknowable and the conservative
// true+anti pair forms a cycle: genuinely non-distributable, see
// PipelineRecurrenceCannotBeFissioned.)
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

TEST(Fission, CaseDLoopIsRejectedThenFixedByFission) {
  DiagnosticEngine diags;
  auto model = ProgramModel::build(kFissionableSource, kFissionSpec, diags);
  ASSERT_NE(model, nullptr) << diags.str();
  // The original is rejected: the anti dependence (read a(i+1), overwrite
  // a(i+1) one iteration later) is carried by the partitioned loop.
  EXPECT_FALSE(check_applicability(*model).ok());

  auto fissioned = fission_forbidden_loops(*model);
  ASSERT_TRUE(fissioned.has_value());
  EXPECT_EQ(fissioned->loops_fissioned, 1);
  EXPECT_EQ(fissioned->pieces, 2);
  // The reading piece must come first (all reads before all overwrites).
  EXPECT_LT(fissioned->source.find("c(i)"), fissioned->source.find("a(i) ="));

  // The transformed program is accepted and placeable: the dependence now
  // runs between two partitioned loops (case f).
  Compiled c = compile_frontend(fissioned->source, kFissionSpec);
  ASSERT_TRUE(c.ok()) << c.diags.str();
  EXPECT_FALSE(enumerate_placements(*c.model, *c.fg).placements.empty());
}

TEST(Fission, PipelineRecurrenceCannotBeFissioned) {
  // y(i) = t; t = x(i): anti (same iteration) + carried true dependences
  // form a cycle — the paper's case a — so no fission applies.
  DiagnosticEngine diags;
  auto model = ProgramModel::build(
      "      subroutine f(nsom,x,y,t)\n"
      "      integer nsom,i\n"
      "      real x(10),y(10),t\n"
      "      do i = 1,nsom\n"
      "        y(i) = t\n"
      "        t = x(i)\n"
      "      end do\n"
      "      end\n",
      "pattern overlap-triangle-layer\n"
      "loopvar i over nsom partition nodes\n"
      "array x nodes\narray y nodes\n"
      "input x coherent\ninput t replicated\ninput nsom replicated\n",
      diags);
  ASSERT_NE(model, nullptr) << diags.str();
  EXPECT_FALSE(check_applicability(*model).ok());
  EXPECT_FALSE(fission_forbidden_loops(*model).has_value());
}

TEST(Fission, AcceptedProgramNeedsNoFission) {
  DiagnosticEngine diags;
  auto model = ProgramModel::build(
      "      subroutine f(nsom,x,y)\n"
      "      integer nsom,i\n"
      "      real x(10),y(10)\n"
      "      do i = 1,nsom\n"
      "        y(i) = x(i)\n"
      "      end do\n"
      "      end\n",
      "pattern overlap-triangle-layer\n"
      "loopvar i over nsom partition nodes\n"
      "array x nodes\narray y nodes\n"
      "input x coherent\ninput nsom replicated\n",
      diags);
  ASSERT_NE(model, nullptr);
  EXPECT_TRUE(check_applicability(*model).ok());
  EXPECT_FALSE(fission_forbidden_loops(*model).has_value());
}

TEST(Fission, LocalizedTempKeepsPiecesTogether) {
  // The temp v binds its producer and the a(i) write into one piece; the
  // shifted read splits off as its own loop.
  DiagnosticEngine diags;
  auto model = ProgramModel::build(
      "      subroutine f(nsom,b,c)\n"
      "      integer nsom,i\n"
      "      real a(1001),b(1000),c(1000),v\n"
      "      do i = 1,nsom\n"
      "        v = b(i) * 2.0\n"
      "        a(i) = v\n"
      "        c(i) = a(i+1)\n"
      "      end do\n"
      "      end\n",
      kFissionSpec, diags);
  ASSERT_NE(model, nullptr) << diags.str();
  auto fissioned = fission_forbidden_loops(*model);
  ASSERT_TRUE(fissioned.has_value());
  EXPECT_EQ(fissioned->pieces, 2);  // {c(i)=a(i+1)} and {v=..., a(i)=v}
  Compiled c = compile_frontend(fissioned->source, kFissionSpec);
  ASSERT_TRUE(c.model != nullptr) << c.diags.str();
  EXPECT_TRUE(c.applicability.ok());
}

// ---------------------------------------------------------------------------
// Edge-based 2-D programs (the "overlap-triangle-layer-edges" automaton)
// ---------------------------------------------------------------------------

constexpr const char* kEdgeFluxSource =
    "      subroutine edgeflux(u,result,nsom,nseg,nubo,vol,maxloop)\n"
    "      integer nsom,nseg,maxloop\n"
    "      integer nubo(3000,2)\n"
    "      real u(1000),result(1000),vol(1000)\n"
    "      integer i,loop,s1,s2\n"
    "      real f\n"
    "      real rhs(1000)\n"
    "      loop = 0\n"
    "100   loop = loop + 1\n"
    "      do i = 1,nsom\n"
    "        rhs(i) = 0.0\n"
    "      end do\n"
    "      do i = 1,nseg\n"
    "        s1 = nubo(i,1)\n"
    "        s2 = nubo(i,2)\n"
    "        f = u(s2) - u(s1)\n"
    "        rhs(s1) = rhs(s1) + f\n"
    "        rhs(s2) = rhs(s2) - f\n"
    "      end do\n"
    "      do i = 1,nsom\n"
    "        u(i) = u(i) + rhs(i) / vol(i)\n"
    "      end do\n"
    "      if (loop .lt. maxloop) goto 100\n"
    "      do i = 1,nsom\n"
    "        result(i) = u(i)\n"
    "      end do\n"
    "      end\n";

constexpr const char* kEdgeFluxSpec =
    "pattern overlap-triangle-layer-edges\n"
    "loopvar i over nsom partition nodes\n"
    "loopvar i over nseg partition edges\n"
    "array u nodes\narray result nodes\narray vol nodes\narray rhs nodes\n"
    "array nubo edges\n"
    "input u coherent\ninput nubo coherent\ninput vol coherent\n"
    "input nsom replicated\ninput nseg replicated\n"
    "input maxloop replicated\n"
    "output result coherent\n";

TEST(EdgeFlux, SubtractiveAssemblyIsRecognized) {
  DiagnosticEngine diags;
  auto model = ProgramModel::build(kEdgeFluxSource, kEdgeFluxSpec, diags);
  ASSERT_NE(model, nullptr) << diags.str();
  // Both rhs(s1) += f and rhs(s2) -= f are additive assemblies.
  int rhs_assemblies = 0;
  for (const auto& a : model->patterns().assemblies())
    if (a.var == model->sub().symbol("rhs")) ++rhs_assemblies;
  EXPECT_EQ(rhs_assemblies, 2);
  EXPECT_TRUE(check_applicability(*model).ok());
}

TEST(EdgeFlux, PlacementUsesEdgeStates) {
  ToolOptions opt;
  opt.engine.max_solutions = 512;
  Compiled c = compile_frontend(kEdgeFluxSource, kEdgeFluxSpec);
  ASSERT_TRUE(c.ok()) << c.diags.str();
  EnumerationResult r = enumerate_placements(*c.model, *c.fg, opt);
  ASSERT_FALSE(r.placements.empty());
  // The update of u must sit inside the iterative loop: the edge gather
  // needs coherent node values every step.
  const auto& best = r.placements.front();
  bool u_update_in_cycle = false;
  for (const auto& s : best.syncs)
    if (s.var == "u" && s.in_cycle &&
        s.action == automaton::CommAction::kUpdateCopy)
      u_update_in_cycle = true;
  EXPECT_TRUE(u_update_in_cycle);
  // The edge loop iterates its overlap domain.
  for (const auto& dmn : best.domains) {
    const LoopRule* rule = c.model->partition_rule(*dmn.loop);
    if (rule->entity == automaton::EntityKind::kEdge) {
      EXPECT_EQ(dmn.layers, 1);
    }
  }
}

}  // namespace
}  // namespace meshpar::placement
