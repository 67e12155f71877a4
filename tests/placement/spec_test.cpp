#include "placement/spec.hpp"

#include <gtest/gtest.h>

#include "lang/corpus.hpp"
#include "lang/parser.hpp"

namespace meshpar::placement {
namespace {

using automaton::EntityKind;

TEST(Spec, ParsesTesttSpec) {
  DiagnosticEngine diags;
  PartitionSpec spec = parse_spec(lang::testt_spec(), diags);
  EXPECT_FALSE(diags.has_errors()) << diags.str();
  EXPECT_EQ(spec.pattern_name, "overlap-triangle-layer");
  ASSERT_EQ(spec.loop_rules.size(), 2u);
  EXPECT_EQ(spec.loop_rules[0].entity, EntityKind::kNode);
  EXPECT_EQ(spec.loop_rules[1].entity, EntityKind::kTriangle);
  EXPECT_EQ(spec.arrays.at("old"), EntityKind::kNode);
  EXPECT_EQ(spec.arrays.at("som"), EntityKind::kTriangle);
  EXPECT_FALSE(spec.arrays.count("sqrdiff"));
  EXPECT_EQ(spec.inputs.at("init"), 0);
  EXPECT_EQ(spec.outputs.at("result"), 0);
}

TEST(Spec, CommentsAndBlankLines) {
  DiagnosticEngine diags;
  PartitionSpec spec = parse_spec(
      "# a comment\n"
      "pattern overlap-triangle-layer\n"
      "\n"
      "array x nodes  # trailing comment\n",
      diags);
  EXPECT_FALSE(diags.has_errors()) << diags.str();
  EXPECT_EQ(spec.arrays.at("x"), EntityKind::kNode);
}

TEST(Spec, MissingPatternIsError) {
  DiagnosticEngine diags;
  parse_spec("array x nodes\n", diags);
  EXPECT_TRUE(diags.has_errors());
}

TEST(Spec, UnknownDirectiveIsError) {
  DiagnosticEngine diags;
  parse_spec("pattern p\nfrobnicate x\n", diags);
  EXPECT_TRUE(diags.has_errors());
}

TEST(Spec, MalformedLoopvarIsError) {
  DiagnosticEngine diags;
  parse_spec("pattern p\nloopvar i nsom nodes\n", diags);
  EXPECT_TRUE(diags.has_errors());
}

TEST(Spec, UnknownEntityIsError) {
  DiagnosticEngine diags;
  parse_spec("pattern p\narray x hexahedra\n", diags);
  EXPECT_TRUE(diags.has_errors());
}

TEST(Spec, DuplicateInputIsError) {
  DiagnosticEngine diags;
  parse_spec("pattern p\ninput x coherent\ninput x replicated\n", diags);
  EXPECT_TRUE(diags.has_errors());
}

TEST(Spec, NumericLevels) {
  DiagnosticEngine diags;
  PartitionSpec spec = parse_spec(
      "pattern overlap-triangle-layer-2\ninput x 2\noutput y 0\n", diags);
  EXPECT_FALSE(diags.has_errors()) << diags.str();
  EXPECT_EQ(spec.inputs.at("x"), 2);
  EXPECT_EQ(spec.outputs.at("y"), 0);
}

TEST(Spec, EntityNamesSingularAndPlural) {
  EXPECT_EQ(parse_entity("node"), EntityKind::kNode);
  EXPECT_EQ(parse_entity("Nodes"), EntityKind::kNode);
  EXPECT_EQ(parse_entity("edges"), EntityKind::kEdge);
  EXPECT_EQ(parse_entity("TRIANGLE"), EntityKind::kTriangle);
  EXPECT_EQ(parse_entity("tetrahedra"), EntityKind::kTetra);
  EXPECT_FALSE(parse_entity("prism").has_value());
}

TEST(Spec, RuleForMatchesVarAndBound) {
  DiagnosticEngine diags;
  PartitionSpec spec = parse_spec(
      "pattern p\nloopvar i over nsom partition nodes\n", diags);
  lang::Subroutine sub = lang::parse_subroutine(
      "      subroutine f(nsom,ntri)\n"
      "      integer nsom,ntri,i,j\n"
      "      real x(10)\n"
      "      do i = 1,nsom\n"
      "        x(i) = 0.0\n"
      "      end do\n"
      "      do i = 1,ntri\n"
      "        x(i) = 0.0\n"
      "      end do\n"
      "      do j = 1,nsom\n"
      "        x(j) = 0.0\n"
      "      end do\n"
      "      end\n",
      diags);
  ASSERT_FALSE(diags.has_errors());
  EXPECT_NE(spec.rule_for(*sub.body[0]), nullptr);  // do i = 1,nsom
  EXPECT_EQ(spec.rule_for(*sub.body[1]), nullptr);  // do i = 1,ntri
  EXPECT_EQ(spec.rule_for(*sub.body[2]), nullptr);  // do j = 1,nsom
}

}  // namespace
}  // namespace meshpar::placement
