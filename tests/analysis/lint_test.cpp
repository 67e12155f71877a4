// Tests of the static coherence analyzer: silence on every engine-emitted
// placement, provable findings on deliberately corrupted placements, the
// static/dynamic agreement contract (every provably-stale read the lint
// pass reports is also caught by the MP-S001 sanitizer when the program
// actually runs), and the fixpoint-core properties (widening terminates,
// the report is worklist-order independent).
#include "analysis/lint.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "interp/spmd.hpp"
#include "lang/corpus.hpp"
#include "mesh/generators.hpp"
#include "overlap/decompose.hpp"
#include "partition/partition.hpp"
#include "placement/tool.hpp"
#include "runtime/world.hpp"

namespace meshpar::analysis {
namespace {

using automaton::CommAction;
using placement::Placement;

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

/// Drops the first sync with the given action from a copy of `p`.
Placement drop_sync(const Placement& p, CommAction action,
                    std::string* var = nullptr) {
  Placement bad = p;
  auto it = bad.syncs.begin();
  while (it != bad.syncs.end() && it->action != action) ++it;
  EXPECT_NE(it, bad.syncs.end());
  if (var) *var = it->var;
  bad.syncs.erase(it);
  return bad;
}

/// Renders findings as comparable strings (code, location, message).
std::vector<std::string> rendered(const LintReport& rep) {
  std::vector<std::string> out;
  for (const Diagnostic& f : rep.findings)
    out.push_back(f.code + " " + to_string(f.loc) + " " + f.message);
  return out;
}

TEST(Lint, EveryEnumeratedTesttPlacementIsCoherent) {
  const placement::Compiled& c = testt();
  ASSERT_TRUE(c.ok()) << c.diags.str();
  const placement::EnumerationResult& r = testt_placements();
  ASSERT_FALSE(r.placements.empty());
  for (std::size_t i = 0; i < r.placements.size(); ++i) {
    LintReport rep = lint_placement(*c.model, r.placements[i]);
    EXPECT_TRUE(rep.clean())
        << "placement #" << i << ": " << rep.findings.front().message;
    EXPECT_GT(rep.stats.nodes, 0u);
    EXPECT_GT(rep.stats.iterations, rep.stats.nodes)
        << "the cyclic program must need more than one pass";
  }
}

TEST(Lint, EveryEnumeratedCoupledPlacementIsCoherent) {
  placement::Compiled c =
      placement::compile_frontend(lang::coupled_source(), lang::coupled_spec());
  ASSERT_TRUE(c.ok()) << c.diags.str();
  placement::EnumerationResult r =
      placement::enumerate_placements(*c.model, *c.fg);
  ASSERT_FALSE(r.placements.empty());
  for (std::size_t i = 0; i < r.placements.size(); ++i) {
    LintReport rep = lint_placement(*c.model, r.placements[i]);
    EXPECT_TRUE(rep.clean())
        << "placement #" << i << ": " << rep.findings.front().message;
  }
}

TEST(Lint, SyntheticPlacementsAreCoherent) {
  placement::ToolOptions opt;
  opt.k_best = true;
  opt.engine.max_solutions = 10;
  placement::Compiled c = placement::compile_frontend(
      lang::synthetic_source(3), lang::synthetic_spec(3));
  ASSERT_TRUE(c.ok()) << c.diags.str();
  placement::EnumerationResult r =
      placement::enumerate_placements(*c.model, *c.fg, opt);
  ASSERT_FALSE(r.placements.empty());
  for (std::size_t i = 0; i < r.placements.size(); ++i) {
    LintReport rep = lint_placement(*c.model, r.placements[i]);
    EXPECT_TRUE(rep.clean())
        << "placement #" << i << ": " << rep.findings.front().message;
  }
}

TEST(Lint, DeletedUpdateIsProvablyStaleOnEveryPath) {
  const placement::Compiled& c = testt();
  ASSERT_TRUE(c.ok()) << c.diags.str();
  const placement::EnumerationResult& r = testt_placements();
  ASSERT_FALSE(r.placements.empty());
  std::string var;
  Placement bad = drop_sync(r.placements.front(), CommAction::kUpdateCopy,
                            &var);
  LintReport rep = lint_placement(*c.model, bad);
  ASSERT_TRUE(rep.has(kLintStaleEveryPath))
      << "deleting the only update of '" << var
      << "' must be provably stale";
  EXPECT_FALSE(rep.ok());
  bool names_var = false;
  for (const Diagnostic& f : rep.findings)
    if (f.code == kLintStaleEveryPath) {
      EXPECT_EQ(f.severity, Severity::kError);
      if (f.message.find("'" + var + "'") != std::string::npos)
        names_var = true;
    }
  EXPECT_TRUE(names_var) << "MP-L001 must name the stale variable";
}

TEST(Lint, ProvablyStaleFindingsAgreeWithDynamicSanitizer) {
  // The agreement contract: every read the static pass calls provably
  // stale (MP-L001 at a known source location) must also trip the dynamic
  // MP-S001 sanitizer at that exact statement when the crippled placement
  // actually runs.
  const placement::Compiled& c = testt();
  ASSERT_TRUE(c.ok()) << c.diags.str();
  const placement::EnumerationResult& r = testt_placements();
  ASSERT_FALSE(r.placements.empty());
  Placement bad = drop_sync(r.placements.front(), CommAction::kUpdateCopy);

  // The static pass anchors at the reading use, the dynamic sanitizer at
  // the enclosing statement: agreement is per source line.
  LintReport rep = lint_placement(*c.model, bad);
  std::set<std::uint32_t> static_lines;
  for (const Diagnostic& f : rep.findings)
    if (f.code == kLintStaleEveryPath && f.loc.known())
      static_lines.insert(f.loc.line);
  ASSERT_FALSE(static_lines.empty());

  mesh::Mesh2D m = mesh::rectangle(10, 10);
  const int parts = 3;
  auto part = partition::partition_nodes(m, parts,
                                         partition::Algorithm::kRcb);
  auto d = c.model->autom().pattern() ==
                   automaton::PatternKind::kNodeBoundary
               ? overlap::decompose_node_boundary(m, part)
               : overlap::decompose_entity_layer(
                     m, part, c.model->autom().halo_depth());
  interp::MeshBinding binding = interp::synthetic_binding(*c.model, m);
  runtime::World world(parts);
  interp::StalenessReport dyn;
  interp::RunResult run = interp::run_spmd_sanitized(
      world, *c.model, bad, d, m, binding, &dyn);
  ASSERT_TRUE(run.ok) << run.error;
  ASSERT_FALSE(dyn.clean());
  std::set<std::uint32_t> dynamic_lines;
  for (const Diagnostic& f : dyn.findings) dynamic_lines.insert(f.loc.line);
  for (std::uint32_t line : static_lines)
    EXPECT_TRUE(dynamic_lines.count(line))
        << "static MP-L001 at line " << line
        << " was not confirmed by any dynamic MP-S001 finding";
}

TEST(Lint, RetargetedSyncIsDeadCommunication) {
  // Move an overlap update to just before the loop that (re)initializes
  // its variable: the refreshed overlap values are overwritten before any
  // read, which is exactly MP-L003.
  const placement::Compiled& c = testt();
  ASSERT_TRUE(c.ok()) << c.diags.str();
  const placement::EnumerationResult& r = testt_placements();
  ASSERT_FALSE(r.placements.empty());
  Placement bad = r.placements.front();
  auto it = bad.syncs.begin();
  while (it != bad.syncs.end() && it->action != CommAction::kUpdateCopy)
    ++it;
  ASSERT_NE(it, bad.syncs.end());
  const int var = c.model->sub().symbol(it->var);
  const lang::Stmt* killer_loop = nullptr;
  for (const lang::Stmt* s : c.model->cfg().statements()) {
    const auto& du = c.model->defuse(*s);
    if (!du.def || du.def->var != var ||
        du.def->shape != dfg::AccessShape::kElementwise)
      continue;
    bool reads_self = false;
    for (const auto& use : du.uses)
      if (use.var == var) reads_self = true;
    if (reads_self) continue;
    killer_loop = c.model->enclosing_partitioned(*s);
    if (killer_loop) break;
  }
  ASSERT_NE(killer_loop, nullptr)
      << "expected an elementwise overwrite loop for '" << var << "'";
  it->before = killer_loop;
  LintReport rep = lint_placement(*c.model, bad);
  EXPECT_TRUE(rep.has(kLintDeadComm))
      << "an update refreshing '" << var
      << "' right before it is overwritten must be dead";
}

TEST(Lint, DuplicatedSyncIsRedundant) {
  const placement::Compiled& c = testt();
  ASSERT_TRUE(c.ok()) << c.diags.str();
  const placement::EnumerationResult& r = testt_placements();
  ASSERT_FALSE(r.placements.empty());
  Placement bad = r.placements.front();
  auto it = bad.syncs.begin();
  while (it != bad.syncs.end() && it->action != CommAction::kUpdateCopy)
    ++it;
  ASSERT_NE(it, bad.syncs.end());
  bad.syncs.push_back(*it);  // second identical sync at the same point
  LintReport rep = lint_placement(*c.model, bad);
  ASSERT_TRUE(rep.has(kLintRedundantSync));
  for (const Diagnostic& f : rep.findings) {
    if (f.code == kLintRedundantSync) {
      EXPECT_EQ(f.severity, Severity::kWarning);
    }
  }
  EXPECT_TRUE(rep.ok()) << "redundancy is advice, not an error";
}

TEST(Lint, WerrorPromotesAdviceToErrors) {
  const placement::Compiled& c = testt();
  ASSERT_TRUE(c.ok()) << c.diags.str();
  const placement::EnumerationResult& r = testt_placements();
  ASSERT_FALSE(r.placements.empty());
  Placement bad = r.placements.front();
  auto it = bad.syncs.begin();
  while (it != bad.syncs.end() && it->action != CommAction::kUpdateCopy)
    ++it;
  ASSERT_NE(it, bad.syncs.end());
  bad.syncs.push_back(*it);
  LintOptions opt;
  opt.werror = true;
  LintReport rep = lint_placement(*c.model, bad, opt);
  ASSERT_TRUE(rep.has(kLintRedundantSync));
  EXPECT_FALSE(rep.ok());
  for (const Diagnostic& f : rep.findings) {
    if (f.code == kLintRedundantSync) {
      EXPECT_EQ(f.severity, Severity::kError);
    }
  }
}

TEST(Lint, ShrunkIterationDomainIsCaught) {
  // Shrink every overlap-iterating loop domain to kernel-only, one at a
  // time. Some corruptions stay coherent (a later communication re-covers
  // the variable — the domain/assignment mismatch is the verifier's MP-V002
  // business, not a coherence bug), but across the enumeration the lint
  // pass must prove both flavors of staleness: every-path (MP-L001) and
  // single-path (MP-L002, with the offending path attached as a note).
  const placement::Compiled& c = testt();
  ASSERT_TRUE(c.ok()) << c.diags.str();
  const placement::EnumerationResult& r = testt_placements();
  ASSERT_FALSE(r.placements.empty());
  std::size_t corrupted = 0, every_path = 0, some_path_with_note = 0;
  for (const Placement& p : r.placements) {
    for (std::size_t d = 0; d < p.domains.size(); ++d) {
      if (p.domains[d].layers == 0) continue;
      Placement bad = p;
      bad.domains[d].layers = 0;
      ++corrupted;
      LintReport rep = lint_placement(*c.model, bad);
      if (rep.has(kLintStaleEveryPath)) ++every_path;
      if (rep.has(kLintStaleSomePath)) {
        bool note = false;
        for (const Diagnostic& f : rep.findings) {
          if (f.severity == Severity::kNote &&
              f.message.find("path") != std::string::npos)
            note = true;
        }
        EXPECT_TRUE(note) << "MP-L002 must attach the offending path";
        if (note) ++some_path_with_note;
      }
    }
  }
  ASSERT_GT(corrupted, 0u);
  EXPECT_GT(every_path, 0u);
  EXPECT_GT(some_path_with_note, 0u)
      << "expected at least one corruption to be path-dependent";
}

TEST(Lint, WideningTerminatesAndStaysSound) {
  // With the widening threshold at its minimum every revisit snaps the
  // moving bounds, so the fixpoint is reached in a bounded number of
  // visits even on deeply chained programs. Widening only loses precision
  // (may bounds go up, must bounds go down) — it must never invent an
  // every-path error on a correct placement.
  placement::ToolOptions opt;
  opt.k_best = true;
  opt.engine.max_solutions = 5;
  placement::Compiled c = placement::compile_frontend(
      lang::synthetic_source(6), lang::synthetic_spec(6));
  ASSERT_TRUE(c.ok()) << c.diags.str();
  placement::EnumerationResult r =
      placement::enumerate_placements(*c.model, *c.fg, opt);
  ASSERT_FALSE(r.placements.empty());
  LintOptions lopt;
  lopt.widen_after = 1;
  for (const Placement& p : r.placements) {
    LintReport rep = lint_placement(*c.model, p, lopt);
    EXPECT_TRUE(rep.ok())
        << "widening must not introduce errors: "
        << rep.findings.front().message;
    EXPECT_LT(rep.stats.iterations, rep.stats.nodes * 64)
        << "widening must bound the fixpoint iteration count";
  }
}

TEST(Lint, WideningEngagesOnLowThreshold) {
  const placement::Compiled& c = testt();
  ASSERT_TRUE(c.ok()) << c.diags.str();
  const placement::EnumerationResult& r = testt_placements();
  ASSERT_FALSE(r.placements.empty());
  LintOptions lopt;
  lopt.widen_after = 1;
  LintReport rep = lint_placement(*c.model, r.placements.front(), lopt);
  EXPECT_GT(rep.stats.widenings, 0u)
      << "the convergence cycle must revisit nodes past the threshold";
}

TEST(Lint, ReportIsWorklistOrderIndependent) {
  // The join is commutative/associative and the transfers are monotone, so
  // FIFO and LIFO processing must converge to the same least fixpoint and
  // therefore the same report — on clean and on corrupted placements.
  const placement::Compiled& c = testt();
  ASSERT_TRUE(c.ok()) << c.diags.str();
  const placement::EnumerationResult& r = testt_placements();
  ASSERT_FALSE(r.placements.empty());
  LintOptions fifo, lifo;
  lifo.reverse_worklist = true;
  for (const Placement& p : r.placements) {
    EXPECT_EQ(rendered(lint_placement(*c.model, p, fifo)),
              rendered(lint_placement(*c.model, p, lifo)));
  }
  Placement bad = drop_sync(r.placements.front(), CommAction::kUpdateCopy);
  auto a = rendered(lint_placement(*c.model, bad, fifo));
  auto b = rendered(lint_placement(*c.model, bad, lifo));
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b);
}

TEST(Lint, UnreachableLoopIsReported) {
  // A loop parked behind an unconditional GOTO constrains the placement
  // through its occurrences but never executes: MP-L005, independent of
  // the placement chosen.
  std::string src = lang::testt_source();
  std::size_t at = src.find("      goto 100");
  ASSERT_NE(at, std::string::npos);
  std::size_t eol = src.find('\n', at);
  src.insert(eol + 1,
             "      do i = 1,nsom\n"
             "        old(i) = new(i)\n"
             "      end do\n");
  placement::ToolOptions opt;
  opt.k_best = true;
  opt.engine.max_solutions = 3;
  placement::Compiled c = placement::compile_frontend(src, lang::testt_spec());
  ASSERT_TRUE(c.ok()) << c.diags.str();
  placement::EnumerationResult r =
      placement::enumerate_placements(*c.model, *c.fg, opt);
  ASSERT_FALSE(r.placements.empty());
  for (const Placement& p : r.placements) {
    LintReport rep = lint_placement(*c.model, p);
    EXPECT_TRUE(rep.has(kLintUnreachable));
    std::size_t l005 = 0;
    for (const Diagnostic& f : rep.findings)
      if (f.code == kLintUnreachable) ++l005;
    EXPECT_EQ(l005, 1u) << "consecutive unreachable statements must be "
                           "reported once, at the head of the run";
  }
}

TEST(Lint, FindingsFlowIntoTheDiagnosticSink) {
  const placement::Compiled& c = testt();
  ASSERT_TRUE(c.ok()) << c.diags.str();
  const placement::EnumerationResult& r = testt_placements();
  ASSERT_FALSE(r.placements.empty());
  Placement bad = drop_sync(r.placements.front(), CommAction::kUpdateCopy);
  DiagnosticEngine sink;
  LintReport rep = lint_placement(*c.model, bad, {}, &sink);
  ASSERT_FALSE(rep.clean());
  EXPECT_TRUE(sink.has_code(kLintStaleEveryPath));
  EXPECT_EQ(sink.all().size(), rep.findings.size());
  EXPECT_NE(sink.str().find("MP-L001"), std::string::npos);
}

}  // namespace
}  // namespace meshpar::analysis
