// The self-healing run loop (DESIGN.md §12): every injected fault class is
// either healed — transport retransmission, checkpoint-validated rollback
// replay, shrink-to-survivors — or surfaces as a clean structured failure
// (MP-R005 unrecoverable transport, MP-R006 replay divergence). Healing is
// bitwise-deterministic for a fixed seed.
#include "interp/recovery.hpp"

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "interp/checkpoint.hpp"
#include "interp/soak.hpp"
#include "lang/corpus.hpp"
#include "mesh/generators.hpp"
#include "overlap/decompose.hpp"
#include "partition/partition.hpp"
#include "placement/tool.hpp"
#include "runtime/world.hpp"

namespace meshpar::interp {
namespace {

/// The soak campaign's setup: TESTT on a synthetic 8x8 mesh, 3 ranks,
/// deterministic synthetic binding (decomposition-independent control
/// flow).
struct Fixture {
  mesh::Mesh2D m;
  placement::Compiled compiled;
  placement::EnumerationResult enumerated;
  partition::NodePartition part;
  overlap::Decomposition d;
  MeshBinding binding;

  Fixture() {
    m = mesh::rectangle(8, 8);
    compiled =
        placement::compile_frontend(lang::testt_source(), lang::testt_spec());
    EXPECT_TRUE(compiled.ok()) << compiled.diags.str();
    enumerated =
        placement::enumerate_placements(*compiled.model, *compiled.fg);
    EXPECT_FALSE(enumerated.placements.empty());
    part = partition::partition_nodes(m, 3, partition::Algorithm::kRcb);
    d = compiled.model->autom().pattern() ==
                automaton::PatternKind::kNodeBoundary
            ? overlap::decompose_node_boundary(m, part)
            : overlap::decompose_entity_layer(
                  m, part, compiled.model->autom().halo_depth());
    binding = synthetic_binding(*compiled.model, m);
  }

  RecoveryOutcome recover(const runtime::FaultPlan* plan,
                          const runtime::RecoveryPolicy& policy = {}) const {
    return run_spmd_recovering(*compiled.model,
                               enumerated.placements.front(), d, m, binding,
                               plan, policy);
  }

  /// First campaign fault of `kind` for this fixture's baseline trace.
  runtime::Fault campaign_fault(runtime::FaultKind kind,
                                std::uint64_t seed = 7) const {
    runtime::World w(3);
    StalenessReport rep;
    RunResult base = run_spmd_sanitized(w, *compiled.model,
                                        enumerated.placements.front(), d, m,
                                        binding, &rep);
    EXPECT_TRUE(base.ok) << base.error;
    auto campaign = runtime::make_campaign(w.trace(), seed, 200,
                                           base.sync_executions);
    for (const runtime::Fault& f : campaign)
      if (f.kind == kind) return f;
    ADD_FAILURE() << "campaign never sampled the requested fault kind";
    return {};
  }
};

TEST(Recovery, DroppedMessageHealsThroughTransport) {
  Fixture fx;
  runtime::FaultPlan plan(fx.campaign_fault(runtime::FaultKind::kDrop));
  RecoveryOutcome oc = fx.recover(&plan);
  ASSERT_TRUE(oc.ok) << oc.code << ": " << oc.detail;
  EXPECT_EQ(oc.healer, Healer::kTransport);
  EXPECT_EQ(oc.survivors, 3);
  EXPECT_GE(oc.result.stats.retransmits, 1);
  EXPECT_EQ(oc.result.stats.rollbacks, 0);
  EXPECT_EQ(oc.result.stats.shrinks, 0);
}

TEST(Recovery, HealedRunIsBitwiseDeterministic) {
  Fixture fx;
  runtime::FaultPlan plan(fx.campaign_fault(runtime::FaultKind::kDrop));
  RecoveryOutcome first = fx.recover(&plan);
  ASSERT_TRUE(first.ok) << first.code << ": " << first.detail;
  for (int i = 0; i < 3; ++i) {
    RecoveryOutcome again = fx.recover(&plan);
    ASSERT_TRUE(again.ok) << again.code << ": " << again.detail;
    EXPECT_EQ(again.result.node_outputs, first.result.node_outputs);
    EXPECT_EQ(again.result.scalars, first.result.scalars);
    EXPECT_EQ(again.result.stats, first.result.stats);
  }
}

TEST(Recovery, ElidedSyncHealsThroughRollbackReplay) {
  Fixture fx;
  runtime::FaultPlan plan(
      fx.campaign_fault(runtime::FaultKind::kElideSync));
  RecoveryOutcome oc = fx.recover(&plan);
  ASSERT_TRUE(oc.ok) << oc.code << ": " << oc.detail;
  EXPECT_EQ(oc.healer, Healer::kRollback);
  EXPECT_EQ(oc.result.stats.rollbacks, 1);
  EXPECT_EQ(oc.result.stats.replays, 1);
}

TEST(Recovery, KilledRankHealsByShrinkingToSurvivors) {
  Fixture fx;
  runtime::FaultPlan plan(
      fx.campaign_fault(runtime::FaultKind::kKillRank));
  RecoveryOutcome oc = fx.recover(&plan);
  ASSERT_TRUE(oc.ok) << oc.code << ": " << oc.detail;
  EXPECT_EQ(oc.healer, Healer::kShrink);
  EXPECT_EQ(oc.survivors, 2);
  EXPECT_EQ(oc.result.stats.shrinks, 1);
}

TEST(Recovery, UnrecoverableLossRaisesUnderRaisePolicy) {
  Fixture fx;
  runtime::FaultPlan plan(fx.campaign_fault(runtime::FaultKind::kDrop));
  runtime::RecoveryPolicy policy;
  policy.retain_window = 0;  // no retransmit log: the loss is final
  policy.max_retries = 1;
  policy.backoff_base_us = 1;
  RecoveryOutcome oc = fx.recover(&plan, policy);
  EXPECT_FALSE(oc.ok);
  EXPECT_EQ(oc.code, "MP-R005");
}

TEST(Recovery, UnrecoverableLossHealsUnderRollbackPolicy) {
  Fixture fx;
  runtime::FaultPlan plan(fx.campaign_fault(runtime::FaultKind::kDrop));
  runtime::RecoveryPolicy policy;
  policy.retain_window = 0;
  policy.max_retries = 1;
  policy.backoff_base_us = 1;
  policy.on_unrecoverable =
      runtime::RecoveryPolicy::OnUnrecoverable::kRollback;
  RecoveryOutcome oc = fx.recover(&plan, policy);
  ASSERT_TRUE(oc.ok) << oc.code << ": " << oc.detail;
  EXPECT_EQ(oc.healer, Healer::kRollback);
  EXPECT_EQ(oc.result.stats.rollbacks, 1);
}

TEST(Recovery, PoisonedCheckpointIsReplayDivergence) {
  // Damage one recorded value between record and replay: the verify pass
  // must catch the mismatch — this is what makes a "successful" rollback
  // trustworthy.
  Fixture fx;
  CheckpointStore store(3);
  runtime::World w1(3);
  StalenessReport rep1;
  RunResult record = run_spmd_sanitized(w1, *fx.compiled.model,
                                        fx.enumerated.placements.front(), fx.d,
                                        fx.m, fx.binding, &rep1, &store);
  ASSERT_TRUE(record.ok) << record.error;
  ASSERT_GE(store.complete_epochs(), 1);
  const long long epoch = store.last_complete_epoch();
  const std::string var = fx.enumerated.placements.front().syncs.front().var;

  store.poison(epoch, var, /*entity=*/0, /*value=*/1e42);
  store.set_mode(CheckpointStore::Mode::kVerify);
  runtime::World w2(3);
  StalenessReport rep2;
  RunResult replay = run_spmd_sanitized(w2, *fx.compiled.model,
                                        fx.enumerated.placements.front(), fx.d,
                                        fx.m, fx.binding, &rep2, &store);
  ASSERT_TRUE(replay.ok) << replay.error;
  auto div = store.divergences();
  ASSERT_FALSE(div.empty());
  EXPECT_NE(div.front().find("checkpoint epoch"), std::string::npos);
}

TEST(Recovery, CleanReplayReportsNoDivergence) {
  Fixture fx;
  CheckpointStore store(3);
  runtime::World w1(3);
  StalenessReport rep1;
  RunResult record = run_spmd_sanitized(w1, *fx.compiled.model,
                                        fx.enumerated.placements.front(), fx.d,
                                        fx.m, fx.binding, &rep1, &store);
  ASSERT_TRUE(record.ok) << record.error;
  store.set_mode(CheckpointStore::Mode::kVerify);
  runtime::World w2(3);
  StalenessReport rep2;
  RunResult replay = run_spmd_sanitized(w2, *fx.compiled.model,
                                        fx.enumerated.placements.front(), fx.d,
                                        fx.m, fx.binding, &rep2, &store);
  ASSERT_TRUE(replay.ok) << replay.error;
  EXPECT_TRUE(store.divergences().empty());
}

TEST(Recovery, CorruptionMatrixEveryFaultClassIsHealed) {
  // The acceptance matrix: a whole seeded campaign over drop, duplicate,
  // delay, corrupt, kill-rank and elide-sync, each run healed and checked
  // against the fault-free baseline. Seed 7 samples all three healers.
  placement::Compiled c =
      placement::compile_frontend(lang::testt_source(), lang::testt_spec());
  ASSERT_TRUE(c.ok()) << c.diags.str();
  placement::EnumerationResult enumerated =
      placement::enumerate_placements(*c.model, *c.fg);
  ASSERT_FALSE(enumerated.placements.empty());
  SoakOptions opts;
  opts.seed = 7;
  opts.faults = 25;
  opts.recover = true;
  SoakReport report;
  std::string error;
  ASSERT_TRUE(run_soak(*c.model, enumerated.placements.front(), opts, &report,
                       &error))
      << error;
  EXPECT_TRUE(report.all_healed()) << report.str();
  std::set<std::string> healers;
  for (const SoakCase& sc : report.cases) healers.insert(sc.healer);
  EXPECT_TRUE(healers.count("transport"));
  EXPECT_TRUE(healers.count("rollback"));
  EXPECT_TRUE(healers.count("shrink"));
}

TEST(Recovery, RecoveryCampaignReportIsDeterministic) {
  placement::Compiled c =
      placement::compile_frontend(lang::testt_source(), lang::testt_spec());
  ASSERT_TRUE(c.ok()) << c.diags.str();
  placement::EnumerationResult enumerated =
      placement::enumerate_placements(*c.model, *c.fg);
  ASSERT_FALSE(enumerated.placements.empty());
  SoakOptions opts;
  opts.seed = 11;
  opts.faults = 12;
  opts.recover = true;
  SoakReport a, b;
  std::string error;
  ASSERT_TRUE(run_soak(*c.model, enumerated.placements.front(), opts, &a,
                       &error))
      << error;
  ASSERT_TRUE(run_soak(*c.model, enumerated.placements.front(), opts, &b,
                       &error))
      << error;
  EXPECT_EQ(a.json(), b.json());
}

}  // namespace
}  // namespace meshpar::interp
