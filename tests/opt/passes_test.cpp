// Tests of the post-placement communication optimizer (DESIGN.md §14):
// exact per-pass rewrites on a corruption matrix of hand-built placements
// (a known dead sync, a mergeable duplicate pair, a hoistable in-cycle
// sync, a vectorizable same-point pair), the refusal cases that keep the
// passes semantics-preserving (assemblies are never coalesced or hoisted,
// duplicate variables are never fused), and the end-to-end proof-carrying
// pipeline on both bundled examples.
#include "opt/passes.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "lang/corpus.hpp"
#include "opt/proof.hpp"
#include "placement/cost.hpp"
#include "placement/tool.hpp"

namespace meshpar::opt {
namespace {

using automaton::CommAction;
using placement::Placement;
using placement::SyncPoint;

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

const placement::Compiled& coupled() {
  static const placement::Compiled c =
      placement::compile_frontend(lang::coupled_source(), lang::coupled_spec());
  return c;
}

/// The default enumeration over coupled(); empty if its front end failed.
const placement::EnumerationResult& coupled_placements() {
  static const placement::EnumerationResult e =
      coupled().ok()
          ? placement::enumerate_placements(*coupled().model, *coupled().fg)
          : placement::EnumerationResult{};
  return e;
}

/// First sync with the given action (the tests corrupt copies of it).
const SyncPoint& first_sync(const Placement& p, CommAction action) {
  for (const SyncPoint& sp : p.syncs)
    if (sp.action == action) return sp;
  ADD_FAILURE() << "no sync with the requested action";
  static SyncPoint none;
  return none;
}

/// A partitioned loop that elementwise-overwrites `var` without reading it
/// — an update placed right before it is provably dead (MP-L003).
const lang::Stmt* killer_loop(const placement::ProgramModel& model,
                              const std::string& name) {
  const int var = model.sub().symbol(name);
  for (const lang::Stmt* s : model.cfg().statements()) {
    const auto& du = model.defuse(*s);
    if (!du.def || du.def->var != var ||
        du.def->shape != dfg::AccessShape::kElementwise)
      continue;
    bool reads_self = false;
    for (const auto& use : du.uses)
      if (use.var == var) reads_self = true;
    if (reads_self) continue;
    if (const lang::Stmt* loop = model.enclosing_partitioned(*s))
      return loop;
  }
  return nullptr;
}

/// The statement `loop = 0` — testt's unique pre-header of the GOTO-formed
/// convergence cycle (a scalar def of `loop` with no reads).
const lang::Stmt* testt_preheader(const placement::ProgramModel& model) {
  for (const lang::Stmt* s : model.cfg().statements()) {
    const auto& du = model.defuse(*s);
    if (du.def && du.def->var == model.sub().symbol("loop") && du.uses.empty())
      return s;
  }
  return nullptr;
}

TEST(OptPasses, DeadSyncIsErasedExactly) {
  const placement::Compiled& c = testt();
  ASSERT_TRUE(c.ok()) << c.diags.str();
  const placement::EnumerationResult& r = testt_placements();
  ASSERT_FALSE(r.placements.empty());
  const Placement& orig = r.placements.front();
  Placement bad = orig;
  SyncPoint dead = first_sync(orig, CommAction::kUpdateCopy);
  dead.before = killer_loop(*c.model, dead.var);
  ASSERT_NE(dead.before, nullptr);
  bad.syncs.push_back(dead);

  // The audit pinpoints the injected sync and only it.
  const analysis::SyncAudit audit = analysis::audit_syncs(*c.model, bad);
  ASSERT_EQ(audit.judgments.size(), bad.syncs.size());
  EXPECT_EQ(audit.judgments.back(), analysis::SyncJudgment::kDead);
  for (std::size_t i = 0; i + 1 < audit.judgments.size(); ++i)
    EXPECT_EQ(audit.judgments[i], analysis::SyncJudgment::kNeeded) << i;

  const PassResult res = eliminate_dead_comms(*c.model, bad);
  EXPECT_EQ(res.removed, 1u);
  EXPECT_EQ(bad.key(), orig.key()) << "only the injected sync may go";
  EXPECT_TRUE(analysis::lint_placement(*c.model, bad).clean());
}

TEST(OptPasses, CoalesceMergesDuplicateUpdatePair) {
  const placement::Compiled& c = testt();
  ASSERT_TRUE(c.ok()) << c.diags.str();
  const placement::EnumerationResult& r = testt_placements();
  ASSERT_FALSE(r.placements.empty());
  const Placement& orig = r.placements.front();
  Placement bad = orig;
  bad.syncs.push_back(first_sync(orig, CommAction::kUpdateCopy));

  const analysis::SyncAudit audit = analysis::audit_syncs(*c.model, bad);
  EXPECT_EQ(audit.judgments.back(), analysis::SyncJudgment::kRedundant);

  const PassResult res = coalesce_redundant_syncs(*c.model, bad);
  EXPECT_EQ(res.removed, 1u);
  EXPECT_EQ(bad.key(), orig.key());
  EXPECT_TRUE(analysis::lint_placement(*c.model, bad).clean());
}

TEST(OptPasses, CoalesceRefusesAssemblies) {
  // An assembly placed where its variable is already coherent is flagged
  // MP-L004 by the lint pass, but erasing it would drop one round of
  // partial sums — assembly is not idempotent. The coalescer must leave it
  // in place.
  const placement::Compiled& c = testt();
  ASSERT_TRUE(c.ok()) << c.diags.str();
  const placement::EnumerationResult& r = testt_placements();
  ASSERT_FALSE(r.placements.empty());
  Placement bad = r.placements.front();
  SyncPoint assembly = first_sync(bad, CommAction::kUpdateCopy);
  assembly.action = CommAction::kAssembleAdd;
  bad.syncs.push_back(assembly);
  ASSERT_EQ(analysis::audit_syncs(*c.model, bad).judgments.back(),
            analysis::SyncJudgment::kRedundant);
  const std::size_t before = bad.syncs.size();

  const PassResult res = coalesce_redundant_syncs(*c.model, bad);
  EXPECT_EQ(res.removed, 0u);
  EXPECT_EQ(bad.syncs.size(), before);
}

TEST(OptPasses, HoistMovesLoopInvariantUpdateToPreheader) {
  const placement::Compiled& c = testt();
  ASSERT_TRUE(c.ok()) << c.diags.str();
  const placement::EnumerationResult& r = testt_placements();
  ASSERT_FALSE(r.placements.empty());
  const lang::Stmt* header = c.model->cfg().labeled(100);
  ASSERT_NE(header, nullptr);
  const lang::Stmt* pre = testt_preheader(*c.model);
  ASSERT_NE(pre, nullptr);

  // 'airesom' is a coherent input, never written: an update of it inside
  // the convergence cycle is loop-invariant and hoistable.
  Placement bad = r.placements.front();
  const std::size_t originals = bad.syncs.size();
  SyncPoint inv;
  inv.action = CommAction::kUpdateCopy;
  inv.var = "airesom";
  inv.before = header;
  inv.in_cycle = true;
  bad.syncs.push_back(inv);

  const PassResult res = hoist_invariant_syncs(*c.model, bad);
  EXPECT_EQ(res.hoisted, 1u);
  ASSERT_EQ(bad.syncs.size(), originals + 1);
  const SyncPoint& hoisted = bad.syncs.back();
  EXPECT_EQ(hoisted.before, pre) << "must land on the unique pre-header";
  EXPECT_FALSE(hoisted.in_cycle);
  // The engine's own syncs must not move (their variables are all written
  // inside the cycle, or they are assemblies/reductions).
  for (std::size_t i = 0; i < originals; ++i) {
    EXPECT_EQ(bad.syncs[i].before, r.placements.front().syncs[i].before);
    EXPECT_EQ(bad.syncs[i].in_cycle, r.placements.front().syncs[i].in_cycle);
  }
}

TEST(OptPasses, HoistRefusesVariablesWrittenInsideTheCycle) {
  const placement::Compiled& c = testt();
  ASSERT_TRUE(c.ok()) << c.diags.str();
  const placement::EnumerationResult& r = testt_placements();
  ASSERT_FALSE(r.placements.empty());
  const lang::Stmt* header = c.model->cfg().labeled(100);
  ASSERT_NE(header, nullptr);

  // 'old' is rewritten every iteration (old := new): its exchanged values
  // are NOT loop-invariant, so the pass must refuse.
  Placement bad = r.placements.front();
  SyncPoint sp;
  sp.action = CommAction::kUpdateCopy;
  sp.var = "old";
  sp.before = header;
  sp.in_cycle = true;
  bad.syncs.push_back(sp);

  const PassResult res = hoist_invariant_syncs(*c.model, bad);
  EXPECT_EQ(res.hoisted, 0u);
  EXPECT_EQ(bad.syncs.back().before, header);
  EXPECT_TRUE(bad.syncs.back().in_cycle);
}

TEST(OptPasses, VectorizeFusesCoupledSamePointUpdates) {
  const placement::Compiled& c = coupled();
  ASSERT_TRUE(c.ok()) << c.diags.str();
  const placement::EnumerationResult& r = coupled_placements();
  ASSERT_FALSE(r.placements.empty());
  const Placement& orig = r.placements.front();
  Placement p = orig;
  const overlap::Decomposition d = placement::example_decomposition(*c.model);
  const placement::CostReport before =
      placement::simulate_cost(*c.model, p, d);

  const PassResult res = vectorize_messages(*c.model, p);
  EXPECT_EQ(res.fused, 2u) << "coupled updates ru and rv at one point";

  std::vector<std::string> fused_vars;
  for (const SyncPoint& sp : p.syncs) {
    if (sp.fuse_group < 0) continue;
    EXPECT_EQ(sp.fuse_group, 0);
    EXPECT_EQ(sp.action, CommAction::kUpdateCopy);
    fused_vars.push_back(sp.var);
  }
  std::sort(fused_vars.begin(), fused_vars.end());
  EXPECT_EQ(fused_vars, (std::vector<std::string>{"ru", "rv"}));

  // Identity is unchanged (fuse groups are cost/runtime annotations)...
  EXPECT_EQ(p.key(), orig.key());
  // ...but one exchange's messages are saved; payload volume is not.
  const placement::CostReport after =
      placement::simulate_cost(*c.model, p, d);
  EXPECT_EQ(after.messages, before.messages - d.exchange_messages());
  EXPECT_EQ(after.bytes, before.bytes);
  EXPECT_EQ(after.syncs, before.syncs);
}

TEST(OptPasses, VectorizeRefusesDuplicateVariables) {
  // Two same-variable updates at one point cannot ride one message (the
  // payload would be shipped twice); only distinct variables fuse.
  const placement::Compiled& c = testt();
  ASSERT_TRUE(c.ok()) << c.diags.str();
  const placement::EnumerationResult& r = testt_placements();
  ASSERT_FALSE(r.placements.empty());
  Placement p = r.placements.front();
  p.syncs.push_back(first_sync(p, CommAction::kUpdateCopy));

  const PassResult res = vectorize_messages(*c.model, p);
  EXPECT_EQ(res.fused, 0u);
  for (const SyncPoint& sp : p.syncs) EXPECT_LT(sp.fuse_group, 0);
}

TEST(OptProof, PipelineCertifiesCoupledWithFewerMessages) {
  const placement::Compiled& c = coupled();
  ASSERT_TRUE(c.ok()) << c.diags.str();
  const placement::EnumerationResult& r = coupled_placements();
  ASSERT_FALSE(r.placements.empty());
  const OptimizeReport rep =
      optimize_placement(*c.model, *c.fg, r.placements.front());
  EXPECT_TRUE(rep.ok());
  EXPECT_TRUE(rep.verify_ok);
  EXPECT_TRUE(rep.lint_clean);
  EXPECT_TRUE(rep.cost_monotone);
  EXPECT_TRUE(rep.dynamic_ran);
  EXPECT_TRUE(rep.dynamic_identical)
      << "fused exchanges must be bitwise-identical to per-field ones";
  EXPECT_TRUE(rep.sanitizer_clean);
  EXPECT_LT(rep.cost_opt.messages, rep.cost_raw.messages);
  EXPECT_EQ(rep.cost_opt.bytes, rep.cost_raw.bytes);
  EXPECT_EQ(rep.fused(), 2u);

  // Per-step monotonicity: each kept step's traffic never exceeds the
  // previous step's.
  long long msgs = rep.cost_raw.messages, bytes = rep.cost_raw.bytes;
  for (const PassStep& s : rep.steps) {
    EXPECT_LE(s.cost_after.messages, msgs);
    EXPECT_LE(s.cost_after.bytes, bytes);
    msgs = s.cost_after.messages;
    bytes = s.cost_after.bytes;
  }
}

TEST(OptProof, PipelineIsIdentityOnCleanTestt) {
  // testt's best placement has nothing to remove, hoist or fuse: the
  // pipeline must certify it unchanged.
  const placement::Compiled& c = testt();
  ASSERT_TRUE(c.ok()) << c.diags.str();
  const placement::EnumerationResult& r = testt_placements();
  ASSERT_FALSE(r.placements.empty());
  const OptimizeReport rep =
      optimize_placement(*c.model, *c.fg, r.placements.front());
  EXPECT_TRUE(rep.ok());
  EXPECT_EQ(rep.removed(), 0u);
  EXPECT_EQ(rep.hoisted(), 0u);
  EXPECT_EQ(rep.fused(), 0u);
  EXPECT_EQ(rep.optimized.key(), r.placements.front().key());
  EXPECT_EQ(rep.cost_opt.messages, rep.cost_raw.messages);
  EXPECT_EQ(rep.cost_opt.bytes, rep.cost_raw.bytes);
}

TEST(OptProof, PipelineHealsTheFullCorruptionMatrix) {
  // One placement carrying all three removable corruptions at once: a dead
  // update, a duplicated update, and a redundant loop-invariant in-cycle
  // update. The pipeline must strip all three, reach the original
  // placement, and still discharge the full certificate (the corrupted
  // placement computes the same values — extra updates only rewrite bytes
  // that are already coherent — so the dynamic proof compares equal).
  const placement::Compiled& c = testt();
  ASSERT_TRUE(c.ok()) << c.diags.str();
  const placement::EnumerationResult& r = testt_placements();
  ASSERT_FALSE(r.placements.empty());
  const Placement& orig = r.placements.front();
  const lang::Stmt* header = c.model->cfg().labeled(100);
  ASSERT_NE(header, nullptr);

  Placement bad = orig;
  SyncPoint dead = first_sync(orig, CommAction::kUpdateCopy);
  dead.before = killer_loop(*c.model, dead.var);
  ASSERT_NE(dead.before, nullptr);
  bad.syncs.push_back(dead);
  bad.syncs.push_back(first_sync(orig, CommAction::kUpdateCopy));
  SyncPoint inv;
  inv.action = CommAction::kUpdateCopy;
  inv.var = "airesom";
  inv.before = header;
  inv.in_cycle = true;
  bad.syncs.push_back(inv);

  const OptimizeReport rep = optimize_placement(*c.model, *c.fg, bad);
  EXPECT_TRUE(rep.ok());
  EXPECT_EQ(rep.removed(), 3u);
  EXPECT_EQ(rep.optimized.key(), orig.key());
  EXPECT_LE(rep.cost_opt.messages, rep.cost_raw.messages);
  EXPECT_TRUE(rep.dynamic_identical);
}

TEST(OptProof, PipelineRefusesToCertifyAnUnfixableAssembly) {
  // A redundant assembly cannot be removed (not idempotent), so its
  // MP-L004 finding survives every pass: the pipeline must keep the sync
  // AND report the placement uncertified rather than paper over it.
  const placement::Compiled& c = testt();
  ASSERT_TRUE(c.ok()) << c.diags.str();
  const placement::EnumerationResult& r = testt_placements();
  ASSERT_FALSE(r.placements.empty());
  Placement bad = r.placements.front();
  SyncPoint assembly = first_sync(bad, CommAction::kUpdateCopy);
  assembly.action = CommAction::kAssembleAdd;
  bad.syncs.push_back(assembly);
  const std::size_t syncs_before = bad.syncs.size();

  const OptimizeReport rep = optimize_placement(*c.model, *c.fg, bad);
  EXPECT_EQ(rep.optimized.syncs.size(), syncs_before);
  EXPECT_FALSE(rep.lint_clean);
  EXPECT_FALSE(rep.ok());
  // The rewrites it could not prove away are still semantics-preserving:
  // the optimized placement runs bit-identically to the corrupted input.
  EXPECT_TRUE(rep.dynamic_ran);
  EXPECT_TRUE(rep.dynamic_identical);
}

}  // namespace
}  // namespace meshpar::opt
