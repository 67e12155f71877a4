#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <sstream>
#include <string>

#include "lang/corpus.hpp"
#include "lang/parser.hpp"
#include "placement/check.hpp"
#include "placement/model.hpp"
#include "support/strings.hpp"

namespace meshpar::placement {
namespace {

using automaton::EntityKind;

constexpr const char* kMiniSpec =
    "pattern overlap-triangle-layer\n"
    "loopvar i over nsom partition nodes\n"
    "loopvar i over ntri partition triangles\n"
    "array x nodes\n"
    "array y nodes\n"
    "array k triangles\n"
    "input x coherent\n"
    "input k coherent\n"
    "input nsom replicated\n"
    "input ntri replicated\n"
    "output y coherent\n";

std::unique_ptr<ProgramModel> build(std::string_view src,
                                    std::string_view spec = kMiniSpec) {
  DiagnosticEngine diags;
  auto m = ProgramModel::build(src, spec, diags);
  EXPECT_NE(m, nullptr) << diags.str();
  return m;
}

// ---------------------------------------------------------------------------
// ProgramModel
// ---------------------------------------------------------------------------

TEST(Model, TesttPartitionedLoops) {
  auto m = build(lang::testt_source(), lang::testt_spec());
  ASSERT_NE(m, nullptr);
  // All six DO loops are partitioned.
  EXPECT_EQ(m->partitioned_loops().size(), 6u);
  for (const lang::Stmt* l : m->partitioned_loops())
    EXPECT_TRUE(m->is_partitioned(*l));
}

TEST(Model, ShapesInTestt) {
  auto m = build(lang::testt_source(), lang::testt_spec());
  ASSERT_NE(m, nullptr);
  const lang::Stmt* tri_loop = nullptr;
  for (const lang::Stmt* l : m->partitioned_loops())
    if (m->partition_rule(*l)->entity == EntityKind::kTriangle) tri_loop = l;
  ASSERT_NE(tri_loop, nullptr);
  const lang::Stmt* vm_stmt = tri_loop->body[3].get();
  ASSERT_EQ(vm_stmt->lhs->name, "vm");
  auto shape = [&](std::string_view var) {
    return m->shape_at(m->sub().symbol(var), *vm_stmt);
  };
  // Localized scalar in a triangle loop is triangle-shaped.
  EXPECT_EQ(shape("vm"), EntityKind::kTriangle);
  EXPECT_EQ(shape("s1"), EntityKind::kTriangle);
  // Arrays take their declared entity.
  EXPECT_EQ(shape("old"), EntityKind::kNode);
  EXPECT_EQ(shape("som"), EntityKind::kTriangle);
  // Non-localized scalars are scalar.
  EXPECT_EQ(shape("sqrdiff"), EntityKind::kScalar);
  EXPECT_EQ(shape("epsilon"), EntityKind::kScalar);
}

TEST(Model, RejectsUnknownPattern) {
  DiagnosticEngine diags;
  auto m = ProgramModel::build(
      "      subroutine f(a)\n      real a\n      end\n",
      "pattern no-such-pattern\n", diags);
  EXPECT_EQ(m, nullptr);
  EXPECT_TRUE(diags.has_errors());
}

TEST(Model, RejectsPartitionedLoopNotStartingAtOne) {
  DiagnosticEngine diags;
  auto m = ProgramModel::build(
      "      subroutine f(nsom)\n"
      "      integer nsom,i\n"
      "      real x(10)\n"
      "      do i = 2,nsom\n"
      "        x(i) = 0.0\n"
      "      end do\n"
      "      end\n",
      "pattern overlap-triangle-layer\n"
      "loopvar i over nsom partition nodes\n"
      "array x nodes\n",
      diags);
  EXPECT_EQ(m, nullptr);
}

TEST(Model, RejectsSpecPartitioningAScalar) {
  DiagnosticEngine diags;
  auto m = ProgramModel::build(
      "      subroutine f(a)\n      real a\n      end\n",
      "pattern overlap-triangle-layer\narray a nodes\n", diags);
  EXPECT_EQ(m, nullptr);
}

// ---------------------------------------------------------------------------
// Applicability (Figure 4)
// ---------------------------------------------------------------------------

/// Adds the (variable, bound) pair of every DO loop in `body`, nested
/// ones included, to `loops`.
void collect_loops(const std::vector<lang::StmtPtr>& body,
                   std::set<std::pair<std::string, std::string>>& loops) {
  for (const lang::StmtPtr& s : body) {
    if (s->kind == lang::StmtKind::kDo &&
        s->do_hi->kind == lang::ExprKind::kVarRef)
      loops.insert({s->do_var, s->do_hi->name});
    collect_loops(s->body, loops);
    collect_loops(s->then_body, loops);
    collect_loops(s->else_body, loops);
  }
}

/// kMiniSpec covers the variables and loops of all the mini programs
/// below. A spec naming a variable the subroutine never mentions, or a
/// loopvar rule that matches no DO loop, is an error, so each program gets
/// only the lines of its own variables and loops.
std::string spec_for(std::string_view src, std::string_view spec) {
  DiagnosticEngine diags;
  const lang::Subroutine sub = lang::parse_subroutine(src, diags);
  std::set<std::pair<std::string, std::string>> loops;
  collect_loops(sub.body, loops);
  std::string out;
  for (const std::string& line : split(spec, '\n')) {
    std::istringstream words(line);
    std::string kind, name, over, bound;
    words >> kind >> name >> over >> bound;
    if ((kind == "array" || kind == "input" || kind == "output") &&
        sub.symbol(name) < 0)
      continue;
    if (kind == "loopvar" && !loops.count({name, bound})) continue;
    out += line + "\n";
  }
  return out;
}

ApplicabilityReport check(std::string_view src,
                          std::string_view spec = kMiniSpec) {
  auto m = build(src, spec_for(src, spec));
  EXPECT_NE(m, nullptr);
  return check_applicability(*m);
}

bool has_forbidden_case(const ApplicabilityReport& r, Fig4Case c) {
  for (const auto& f : r.findings)
    if (f.fig4 == c && f.verdict == Verdict::kForbidden) return true;
  return false;
}

TEST(Applicability, TesttIsAccepted) {
  auto m = build(lang::testt_source(), lang::testt_spec());
  ASSERT_NE(m, nullptr);
  ApplicabilityReport r = check_applicability(*m);
  EXPECT_TRUE(r.ok()) << [&] {
    std::string s;
    for (const auto& f : r.findings)
      if (f.verdict == Verdict::kForbidden) s += render(f, m->sub()) + "\n";
    return s;
  }();
  // The removal passes must actually have been used.
  EXPECT_GT(r.count(Verdict::kRemovedLocalization), 0u);
  EXPECT_GT(r.count(Verdict::kRemovedReduction), 0u);
  EXPECT_GT(r.count(Verdict::kRemovedAssembly), 0u);
}

TEST(Applicability, CaseA_CarriedRecurrenceForbidden) {
  // x(i) depends on x(i-1)-style recurrence through a scalar.
  auto r = check(
      "      subroutine f(nsom)\n"
      "      integer nsom,i\n"
      "      real x(10),c\n"
      "      c = 0.0\n"
      "      do i = 1,nsom\n"
      "        c = c * 0.5\n"
      "        x(i) = c\n"
      "      end do\n"
      "      end\n");
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(has_forbidden_case(r, Fig4Case::kA) ||
              has_forbidden_case(r, Fig4Case::kD) ||
              has_forbidden_case(r, Fig4Case::kC));
}

TEST(Applicability, CaseB_IndependentInsideLoopOk) {
  auto r = check(
      "      subroutine f(nsom,x,y)\n"
      "      integer nsom,i\n"
      "      real x(10),y(10),t\n"
      "      do i = 1,nsom\n"
      "        t = x(i) * 2.0\n"
      "        y(i) = t\n"
      "      end do\n"
      "      end\n");
  EXPECT_TRUE(r.ok());
}

TEST(Applicability, CaseC_RemovedByLocalization) {
  // The temp t has carried anti/output dependences; localization removes
  // them.
  auto r = check(
      "      subroutine f(nsom,x,y)\n"
      "      integer nsom,i\n"
      "      real x(10),y(10),t\n"
      "      do i = 1,nsom\n"
      "        t = x(i)\n"
      "        y(i) = t\n"
      "      end do\n"
      "      end\n");
  EXPECT_TRUE(r.ok());
  EXPECT_GT(r.count(Verdict::kRemovedLocalization), 0u);
}

TEST(Applicability, CaseD_CarriedTrueDepForbidden) {
  // Software-pipeline shape: y(i) consumes the t produced by the previous
  // iteration. Acyclic, carried, not removable (t is upward-exposed).
  auto r = check(
      "      subroutine f(nsom,x,y,t)\n"
      "      integer nsom,i\n"
      "      real x(10),y(10),t\n"
      "      do i = 1,nsom\n"
      "        y(i) = t\n"
      "        t = x(i)\n"
      "      end do\n"
      "      end\n");
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(has_forbidden_case(r, Fig4Case::kD) ||
              has_forbidden_case(r, Fig4Case::kG));
}

TEST(Applicability, MultiplicativeArrayUpdateIsAssembly) {
  // x(k(i)) = x(k(i)) * 2.0: per-cell multiplicative updates commute, so
  // the assembly recognition accepts the carried dependence.
  auto r = check(
      "      subroutine f(nsom,ntri,k)\n"
      "      integer nsom,ntri,i\n"
      "      integer k(10)\n"
      "      real x(10)\n"
      "      do i = 1,ntri\n"
      "        x(k(i)) = x(k(i)) * 2.0\n"
      "      end do\n"
      "      end\n",
      "pattern overlap-triangle-layer\n"
      "loopvar i over ntri partition triangles\n"
      "array x nodes\narray k triangles\n"
      "input k coherent\ninput ntri replicated\ninput nsom replicated\n");
  EXPECT_TRUE(r.ok());
  EXPECT_GT(r.count(Verdict::kRemovedAssembly), 0u);
}

TEST(Applicability, AssemblyIsAllowed) {
  auto r = check(
      "      subroutine f(nsom,ntri,k)\n"
      "      integer nsom,ntri,i\n"
      "      integer k(10)\n"
      "      real x(10)\n"
      "      do i = 1,ntri\n"
      "        x(k(i)) = x(k(i)) + 2.0\n"
      "      end do\n"
      "      end\n",
      "pattern overlap-triangle-layer\n"
      "loopvar i over ntri partition triangles\n"
      "array x nodes\n"
      "array k triangles\n"
      "input k coherent\n"
      "input ntri replicated\n");
  EXPECT_TRUE(r.ok());
  EXPECT_GT(r.count(Verdict::kRemovedAssembly), 0u);
}

TEST(Applicability, CaseG_ScalarEscapeForbidden) {
  // x assigned in the partitioned loop, read after it: the value belongs to
  // one particular iteration.
  auto r = check(
      "      subroutine f(nsom,x,out)\n"
      "      integer nsom,i\n"
      "      real x(10),t,out\n"
      "      do i = 1,nsom\n"
      "        t = x(i)\n"
      "      end do\n"
      "      out = t\n"
      "      end\n");
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(has_forbidden_case(r, Fig4Case::kG));
}

TEST(Applicability, CaseG_ReductionEscapeAllowed) {
  auto r = check(
      "      subroutine f(nsom,x,out)\n"
      "      integer nsom,i\n"
      "      real x(10),s,out\n"
      "      s = 0.0\n"
      "      do i = 1,nsom\n"
      "        s = s + x(i)\n"
      "      end do\n"
      "      out = s\n"
      "      end\n");
  EXPECT_TRUE(r.ok());
  EXPECT_GT(r.count(Verdict::kRemovedReduction), 0u);
}

TEST(Applicability, CaseG_ProductReductionEscapeAllowed) {
  // Multiplicative reduction with the proper identity start value.
  auto r = check(
      "      subroutine f(nsom,x,out)\n"
      "      integer nsom,i\n"
      "      real x(10),s,out\n"
      "      s = 1.0\n"
      "      do i = 1,nsom\n"
      "        s = s * x(i)\n"
      "      end do\n"
      "      out = s\n"
      "      end\n");
  EXPECT_TRUE(r.ok());
  EXPECT_GT(r.count(Verdict::kRemovedReduction), 0u);
}

TEST(Applicability, CaseG_SubtractionAccumulationEscapeAllowed) {
  // s = s - x(i) accumulates a negated sum; the recognizer normalizes the
  // operator to an additive reduction.
  auto r = check(
      "      subroutine f(nsom,x,out)\n"
      "      integer nsom,i\n"
      "      real x(10),s,out\n"
      "      s = 0.0\n"
      "      do i = 1,nsom\n"
      "        s = s - x(i)\n"
      "      end do\n"
      "      out = s\n"
      "      end\n");
  EXPECT_TRUE(r.ok());
  EXPECT_GT(r.count(Verdict::kRemovedReduction), 0u);
}

TEST(Applicability, CaseG_NonIdentityInitIsNotAReduction) {
  // SPMD reductions combine per-processor partials, which only equals the
  // sequential accumulation when the start value is the operator's
  // identity. Starting from 5.0 the combine would count it once per rank,
  // so the escape must stay forbidden.
  auto r = check(
      "      subroutine f(nsom,x,out)\n"
      "      integer nsom,i\n"
      "      real x(10),s,out\n"
      "      s = 5.0\n"
      "      do i = 1,nsom\n"
      "        s = s + x(i)\n"
      "      end do\n"
      "      out = s\n"
      "      end\n");
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(has_forbidden_case(r, Fig4Case::kG));
  EXPECT_EQ(r.count(Verdict::kRemovedReduction), 0u);
}

TEST(Applicability, CaseG_PartialSumConsumedInLoopForbidden) {
  // y(i) = s observes the running partial, which differs between the
  // sequential and the per-rank accumulation orders: not a reduction.
  auto r = check(
      "      subroutine f(nsom,x,y,out)\n"
      "      integer nsom,i\n"
      "      real x(10),y(10),s,out\n"
      "      s = 0.0\n"
      "      do i = 1,nsom\n"
      "        s = s + x(i)\n"
      "        y(i) = s\n"
      "      end do\n"
      "      out = s\n"
      "      end\n");
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(has_forbidden_case(r, Fig4Case::kG) ||
              has_forbidden_case(r, Fig4Case::kD) ||
              has_forbidden_case(r, Fig4Case::kA));
  EXPECT_EQ(r.count(Verdict::kRemovedReduction), 0u);
}

TEST(Applicability, CaseG_ElementReadOutsideLoopForbidden) {
  auto r = check(
      "      subroutine f(nsom,x,out)\n"
      "      integer nsom,i\n"
      "      real x(10),out\n"
      "      do i = 1,nsom\n"
      "        x(i) = 1.0\n"
      "      end do\n"
      "      out = x(5)\n"
      "      end\n");
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(has_forbidden_case(r, Fig4Case::kG));
}

TEST(Applicability, CaseF_BetweenLoopsOk) {
  auto r = check(
      "      subroutine f(nsom,x,y)\n"
      "      integer nsom,i\n"
      "      real x(10),y(10)\n"
      "      do i = 1,nsom\n"
      "        x(i) = 1.0\n"
      "      end do\n"
      "      do i = 1,nsom\n"
      "        y(i) = x(i)\n"
      "      end do\n"
      "      end\n");
  EXPECT_TRUE(r.ok());
  bool has_f = false;
  for (const auto& f : r.findings)
    if (f.fig4 == Fig4Case::kF) has_f = true;
  EXPECT_TRUE(has_f);
}

TEST(Applicability, CaseHI_SequentialCodeOk) {
  auto r = check(
      "      subroutine f(nsom,x)\n"
      "      integer nsom,i\n"
      "      real x(10),c\n"
      "      c = 2.0\n"
      "      c = c * 3.0\n"
      "      do i = 1,nsom\n"
      "        x(i) = c\n"
      "      end do\n"
      "      end\n");
  EXPECT_TRUE(r.ok());
  bool has_h = false, has_i = false;
  for (const auto& f : r.findings) {
    if (f.fig4 == Fig4Case::kH) has_h = true;
    if (f.fig4 == Fig4Case::kI) has_i = true;
  }
  EXPECT_TRUE(has_h);
  EXPECT_TRUE(has_i);
}

TEST(Applicability, ElementwiseEntityMismatchForbidden) {
  // A node array accessed elementwise inside a triangle loop.
  auto r = check(
      "      subroutine f(ntri,x)\n"
      "      integer ntri,i\n"
      "      real x(10)\n"
      "      do i = 1,ntri\n"
      "        x(i) = 0.0\n"
      "      end do\n"
      "      end\n");
  EXPECT_FALSE(r.ok());
}

TEST(Applicability, WholeArrayInCallForbidden) {
  auto r = check(
      "      subroutine f(nsom,x)\n"
      "      integer nsom,i\n"
      "      real x(10)\n"
      "      do i = 1,nsom\n"
      "        x(i) = 0.0\n"
      "      end do\n"
      "      call helper(x)\n"
      "      end\n");
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(has_forbidden_case(r, Fig4Case::kG));
}

TEST(Applicability, NestedPartitionedLoopsForbidden) {
  auto r = check(
      "      subroutine f(nsom,ntri)\n"
      "      integer nsom,ntri,i\n"
      "      real x(10)\n"
      "      do i = 1,nsom\n"
      "        do i = 1,ntri\n"
      "          x(i) = 0.0\n"
      "        end do\n"
      "      end do\n"
      "      end\n",
      "pattern overlap-triangle-layer\n"
      "loopvar i over nsom partition nodes\n"
      "loopvar i over ntri partition triangles\n"
      "array x triangles\n"
      "input nsom replicated\ninput ntri replicated\n");
  EXPECT_FALSE(r.ok());
}

/// FNV-1a over every finding in order, respected ones included: its
/// Figure-4 case, its verdict and its rendered line.
std::uint64_t hash_findings(const ApplicabilityReport& r,
                            const lang::Subroutine& sub) {
  std::uint64_t h = 14695981039346656037ull;
  auto feed = [&](const std::string& field) {
    for (unsigned char c : field) {
      h ^= c;
      h *= 1099511628211ull;
    }
    h ^= 0xff;  // field separator: no field contains this byte
    h *= 1099511628211ull;
  };
  for (const Finding& f : r.findings) {
    feed(to_string(f.fig4));
    feed(to_string(f.verdict));
    feed(render(f, sub));
  }
  return h;
}

TEST(Applicability, FindingsTextIsPinned) {
  // The classification and the text of every finding, pinned by hash over
  // the synthetic corpus and both bundled examples.
  struct Pin {
    const char* name;
    std::string source, spec;
    std::size_t count;
    std::uint64_t hash;
  };
  const Pin pinned[] = {
      {"synthetic 1", lang::synthetic_source(1), lang::synthetic_spec(1),
       168, 0x5ece7df07bfa59d2ull},
      {"synthetic 9", lang::synthetic_source(9), lang::synthetic_spec(9),
       1960, 0xf5e18e142313adf0ull},
      {"synthetic 24", lang::synthetic_source(24), lang::synthetic_spec(24),
       10150, 0x920817c052521e9eull},
      {"testt", lang::testt_source(), lang::testt_spec(), 168,
       0x43a8550abf79040cull},
      {"coupled", lang::coupled_source(), lang::coupled_spec(), 290,
       0xe9a4f33d8e5572b0ull},
  };
  for (const Pin& pin : pinned) {
    SCOPED_TRACE(pin.name);
    auto m = build(pin.source, pin.spec);
    ASSERT_NE(m, nullptr);
    const ApplicabilityReport r = check_applicability(*m);
    EXPECT_EQ(r.findings.size(), pin.count);
    EXPECT_EQ(hash_findings(r, m->sub()), pin.hash)
        << std::hex << "0x" << hash_findings(r, m->sub());
  }
}

}  // namespace
}  // namespace meshpar::placement
