// Negative-path tests of the independent placement verifier: each check
// must fire on a deliberately corrupted placement and stay silent on the
// engine's own output.
#include <gtest/gtest.h>

#include "lang/corpus.hpp"
#include "placement/tool.hpp"
#include "placement/verify.hpp"

namespace meshpar::placement {
namespace {

using automaton::CommAction;

const Compiled& testt() {
  static const Compiled c =
      compile_frontend(lang::testt_source(), lang::testt_spec());
  return c;
}

/// The default enumeration over testt(); empty if its front end failed.
const EnumerationResult& testt_placements() {
  static const EnumerationResult e =
      testt().ok()
          ? enumerate_placements(*testt().model, *testt().fg)
          : EnumerationResult{};
  return e;
}

TEST(Verify, EveryEnumeratedPlacementIsClean) {
  const Compiled& c = testt();
  ASSERT_TRUE(c.ok()) << c.diags.str();
  const EnumerationResult& r = testt_placements();
  ASSERT_FALSE(r.placements.empty());
  for (std::size_t i = 0; i < r.placements.size(); ++i) {
    VerifyReport rep = verify_placement(*c.model, *c.fg, r.placements[i]);
    EXPECT_TRUE(rep.findings.empty())
        << "placement #" << i << ": " << rep.findings.front().message;
  }
}

TEST(Verify, DroppedArrayUpdateIsMissingCommunication) {
  const Compiled& c = testt();
  ASSERT_TRUE(c.ok()) << c.diags.str();
  const EnumerationResult& r = testt_placements();
  ASSERT_FALSE(r.placements.empty());
  Placement bad = r.placements.front();
  auto it = bad.syncs.begin();
  while (it != bad.syncs.end() && it->action != CommAction::kUpdateCopy) ++it;
  ASSERT_NE(it, bad.syncs.end()) << "expected an overlap update to drop";
  std::string var = it->var;
  bad.syncs.erase(it);
  VerifyReport rep = verify_placement(*c.model, *c.fg, bad);
  EXPECT_FALSE(rep.ok());
  ASSERT_TRUE(rep.has(kVerifyMissingComm));
  bool names_var = false;
  for (const auto& f : rep.findings)
    if (f.code == kVerifyMissingComm &&
        f.message.find("'" + var + "'") != std::string::npos)
      names_var = true;
  EXPECT_TRUE(names_var) << "MP-V001 must name the uncovered variable";
}

TEST(Verify, DroppedScalarReductionIsMissingCommunication) {
  const Compiled& c = testt();
  ASSERT_TRUE(c.ok()) << c.diags.str();
  const EnumerationResult& r = testt_placements();
  ASSERT_FALSE(r.placements.empty());
  Placement bad = r.placements.front();
  auto it = bad.syncs.begin();
  while (it != bad.syncs.end() && it->action != CommAction::kReduceScalar)
    ++it;
  ASSERT_NE(it, bad.syncs.end());
  bad.syncs.erase(it);
  VerifyReport rep = verify_placement(*c.model, *c.fg, bad);
  EXPECT_TRUE(rep.has(kVerifyMissingComm));
}

TEST(Verify, TamperedIterationDomainIsReported) {
  const Compiled& c = testt();
  ASSERT_TRUE(c.ok()) << c.diags.str();
  const EnumerationResult& r = testt_placements();
  ASSERT_FALSE(r.placements.empty());
  Placement bad = r.placements.front();
  ASSERT_FALSE(bad.domains.empty());
  bad.domains.front().layers = bad.domains.front().layers == 0 ? 1 : 0;
  VerifyReport rep = verify_placement(*c.model, *c.fg, bad);
  EXPECT_TRUE(rep.has(kVerifyDomainMismatch));
}

TEST(Verify, TamperedOutputStateIsBoundaryMismatch) {
  const Compiled& c = testt();
  ASSERT_TRUE(c.ok()) << c.diags.str();
  const EnumerationResult& r = testt_placements();
  ASSERT_FALSE(r.placements.empty());
  Placement bad = r.placements.front();
  int out = c.fg->output_occ(c.model->sub().symbol("result"));
  ASSERT_GE(out, 0);
  auto nod1 = c.model->autom().find_state("Nod1");
  ASSERT_TRUE(nod1.has_value());
  bad.assignment.state_of[out] = *nod1;
  VerifyReport rep = verify_placement(*c.model, *c.fg, bad);
  EXPECT_TRUE(rep.has(kVerifyBoundaryState));
}

TEST(Verify, ScalarOccurrenceInNodeStateIsShapeMismatch) {
  const Compiled& c = testt();
  ASSERT_TRUE(c.ok()) << c.diags.str();
  const EnumerationResult& r = testt_placements();
  ASSERT_FALSE(r.placements.empty());
  Placement bad = r.placements.front();
  int scalar_occ = -1;
  for (const Occurrence& o : c.fg->occs())
    if (o.shape == automaton::EntityKind::kScalar) {
      scalar_occ = o.id;
      break;
    }
  ASSERT_GE(scalar_occ, 0);
  auto nod0 = c.model->autom().find_state("Nod0");
  ASSERT_TRUE(nod0.has_value());
  bad.assignment.state_of[scalar_occ] = *nod0;
  VerifyReport rep = verify_placement(*c.model, *c.fg, bad);
  EXPECT_TRUE(rep.has(kVerifyShapeMismatch));
}

TEST(Verify, TruncatedAssignmentIsStructurallyRejected) {
  const Compiled& c = testt();
  ASSERT_TRUE(c.ok()) << c.diags.str();
  const EnumerationResult& r = testt_placements();
  ASSERT_FALSE(r.placements.empty());
  Placement bad = r.placements.front();
  bad.assignment.state_of.pop_back();
  VerifyReport rep = verify_placement(*c.model, *c.fg, bad);
  EXPECT_FALSE(rep.ok());
  EXPECT_TRUE(rep.has(kVerifyShapeMismatch));
}

TEST(Verify, FindingsFlowIntoTheDiagnosticSink) {
  const Compiled& c = testt();
  ASSERT_TRUE(c.ok()) << c.diags.str();
  const EnumerationResult& r = testt_placements();
  ASSERT_FALSE(r.placements.empty());
  Placement bad = r.placements.front();
  auto it = bad.syncs.begin();
  while (it != bad.syncs.end() && it->action != CommAction::kUpdateCopy) ++it;
  ASSERT_NE(it, bad.syncs.end());
  bad.syncs.erase(it);
  DiagnosticEngine sink;
  VerifyReport rep = verify_placement(*c.model, *c.fg, bad, &sink);
  EXPECT_TRUE(sink.has_code(kVerifyMissingComm));
  EXPECT_EQ(sink.error_count(), rep.errors());
  EXPECT_NE(sink.str().find("MP-V001"), std::string::npos);
}

}  // namespace
}  // namespace meshpar::placement
