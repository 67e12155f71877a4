#include "codegen/annotate.hpp"

#include <gtest/gtest.h>

#include "lang/corpus.hpp"
#include "placement/tool.hpp"

namespace meshpar::codegen {
namespace {

const placement::Compiled& testt() {
  static const placement::Compiled c =
      placement::compile_frontend(lang::testt_source(), lang::testt_spec());
  return c;
}

/// The default enumeration over testt(); empty if its front end failed.
const placement::EnumerationResult& testt_placements() {
  static const placement::EnumerationResult e =
      testt().ok()
          ? placement::enumerate_placements(*testt().model, *testt().fg)
          : placement::EnumerationResult{};
  return e;
}

TEST(Annotate, BestPlacementLooksLikeFigure9) {
  const placement::Compiled& c = testt();
  ASSERT_TRUE(c.ok()) << c.diags.str();
  const placement::EnumerationResult& r = testt_placements();
  ASSERT_FALSE(r.placements.empty());
  // Find the figure-9 placement: exactly the two grouped syncs and an
  // OVERLAP copy loop.
  const placement::Placement* fig9 = nullptr;
  for (const auto& p : r.placements) {
    if (p.syncs.size() == 2 && p.sync_locations() == 1) {
      fig9 = &p;
      break;
    }
  }
  ASSERT_NE(fig9, nullptr);
  std::string src = annotate(*c.model, *fig9);
  EXPECT_NE(src.find("C$SYNCHRONIZE METHOD: overlap-som ON ARRAY: new"),
            std::string::npos);
  EXPECT_NE(src.find("C$SYNCHRONIZE METHOD: + reduction ON SCALAR: sqrdiff"),
            std::string::npos);
  EXPECT_NE(src.find("C$ITERATION DOMAIN: OVERLAP"), std::string::npos);
  EXPECT_NE(src.find("C$ITERATION DOMAIN: KERNEL"), std::string::npos);
  // The sync annotations precede the convergence test, as in the paper.
  EXPECT_LT(src.find("C$SYNCHRONIZE METHOD: overlap-som"),
            src.find("if (sqrdiff .lt. epsilon)"));
  // Annotated source still contains the unmodified computation.
  EXPECT_NE(src.find("vm = old(s1) + old(s2) + old(s3)"), std::string::npos);
}

TEST(Annotate, EndOfProgramSyncIsEmittedAfterLastStatement) {
  const placement::Compiled& c = testt();
  ASSERT_TRUE(c.ok()) << c.diags.str();
  const placement::EnumerationResult& r = testt_placements();
  ASSERT_FALSE(r.placements.empty());
  const placement::Placement* with_end = nullptr;
  for (const auto& p : r.placements) {
    for (const auto& s : p.syncs)
      if (s.before == nullptr) with_end = &p;
    if (with_end) break;
  }
  ASSERT_NE(with_end, nullptr) << "no placement with an end-of-program sync";
  std::string src = annotate(*c.model, *with_end);
  auto sync_pos = src.find("C$SYNCHRONIZE METHOD: overlap-som ON ARRAY: result");
  ASSERT_NE(sync_pos, std::string::npos);
  EXPECT_GT(sync_pos, src.find("result(i) = new(i)"));
}

TEST(Annotate, EveryPartitionedLoopGetsADomain) {
  const placement::Compiled& c = testt();
  ASSERT_TRUE(c.ok()) << c.diags.str();
  const placement::EnumerationResult& r = testt_placements();
  ASSERT_FALSE(r.placements.empty());
  std::string src = annotate(*c.model, r.placements.front());
  std::size_t count = 0, pos = 0;
  while ((pos = src.find("C$ITERATION DOMAIN:", pos)) != std::string::npos) {
    ++count;
    ++pos;
  }
  EXPECT_EQ(count, c.model->partitioned_loops().size());
}

TEST(Annotate, CommPlanMirrorsPlacement) {
  const placement::Compiled& c = testt();
  ASSERT_TRUE(c.ok()) << c.diags.str();
  const placement::EnumerationResult& r = testt_placements();
  ASSERT_FALSE(r.placements.empty());
  const auto& p = r.placements.front();
  CommPlan plan = comm_plan(p);
  EXPECT_EQ(plan.steps.size(), p.syncs.size());
  EXPECT_EQ(plan.domains.size(), p.domains.size());
}

TEST(Annotate, DomainTextVariants) {
  const placement::Compiled& c = testt();
  ASSERT_TRUE(c.ok()) << c.diags.str();
  const placement::EnumerationResult& r = testt_placements();
  ASSERT_FALSE(r.placements.empty());
  EXPECT_EQ(domain_text(*c.model, 0), "KERNEL");
  EXPECT_EQ(domain_text(*c.model, 1), "OVERLAP");

  std::string spec = lang::testt_spec();
  auto pos = spec.find("overlap-triangle-layer");
  spec.replace(pos, std::string("overlap-triangle-layer").size(),
               "overlap-node-boundary");
  placement::Compiled c2 =
      placement::compile_frontend(lang::testt_source(), spec);
  ASSERT_TRUE(c2.ok()) << c2.diags.str();
  placement::EnumerationResult r2 =
      placement::enumerate_placements(*c2.model, *c2.fg);
  ASSERT_FALSE(r2.placements.empty());
  EXPECT_EQ(domain_text(*c2.model, 0), "OWNED");
  EXPECT_EQ(domain_text(*c2.model, 1), "ALL");
}

TEST(Annotate, DeepHaloDomainText) {
  std::string spec = lang::synthetic_spec(2);
  auto pos = spec.find("overlap-triangle-layer");
  spec.replace(pos, std::string("overlap-triangle-layer").size(),
               "overlap-triangle-layer-2");
  placement::ToolOptions opt;
  opt.engine.max_solutions = 1024;
  placement::Compiled c =
      placement::compile_frontend(lang::synthetic_source(2), spec);
  ASSERT_TRUE(c.ok()) << c.diags.str();
  placement::EnumerationResult r =
      placement::enumerate_placements(*c.model, *c.fg, opt);
  ASSERT_FALSE(r.placements.empty());
  EXPECT_EQ(domain_text(*c.model, 0), "KERNEL");
  EXPECT_EQ(domain_text(*c.model, 1), "OVERLAP:1");
  EXPECT_EQ(domain_text(*c.model, 2), "OVERLAP:2");
  std::string src = annotate(*c.model, r.placements.front());
  EXPECT_NE(src.find("C$ITERATION DOMAIN: OVERLAP:2"), std::string::npos);
}

TEST(Annotate, AssemblyPatternAnnotations) {
  std::string spec = lang::testt_spec();
  auto pos = spec.find("overlap-triangle-layer");
  spec.replace(pos, std::string("overlap-triangle-layer").size(),
               "overlap-node-boundary");
  placement::Compiled c =
      placement::compile_frontend(lang::testt_source(), spec);
  ASSERT_TRUE(c.ok()) << c.diags.str();
  placement::EnumerationResult r =
      placement::enumerate_placements(*c.model, *c.fg);
  ASSERT_FALSE(r.placements.empty());
  std::string src = annotate(*c.model, r.placements.front());
  EXPECT_NE(src.find("C$SYNCHRONIZE METHOD: assemble-som ON ARRAY: new"),
            std::string::npos);
  EXPECT_NE(src.find("C$ITERATION DOMAIN: OWNED"), std::string::npos);
  EXPECT_NE(src.find("C$ITERATION DOMAIN: ALL"), std::string::npos);
}

}  // namespace
}  // namespace meshpar::codegen
