#include "placement/cost.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <utility>
#include <vector>

#include "interp/spmd.hpp"
#include "lang/corpus.hpp"
#include "placement/tool.hpp"
#include "runtime/world.hpp"
#include "support/trace.hpp"

namespace meshpar::placement {
namespace {

/// Messages/doubles one sweep should move, derived independently of
/// simulate_cost straight from the sync actions.
std::pair<long long, long long> expected_traffic(
    const Placement& p, const overlap::Decomposition& d) {
  long long msgs = 0, doubles = 0;
  for (const SyncPoint& sp : p.syncs) {
    switch (sp.action) {
      case automaton::CommAction::kUpdateCopy:
      case automaton::CommAction::kAssembleAdd:
        msgs += d.exchange_messages();
        doubles += d.exchange_volume();
        break;
      case automaton::CommAction::kReduceScalar:
        msgs += 2 * (d.parts() - 1);
        doubles += 2 * (d.parts() - 1);
        break;
      case automaton::CommAction::kNone:
        break;
    }
  }
  return {msgs, doubles};
}

TEST(Cost, ExampleDecompositionIsValidAndMatchesVerifySetup) {
  Compiled fe = compile_frontend(lang::testt_source(), lang::testt_spec());
  ASSERT_TRUE(fe.ok()) << fe.diags.str();
  EnumerationResult r = enumerate_placements(*fe.model, *fe.fg);
  ASSERT_FALSE(r.placements.empty());
  mesh::Mesh2D m;
  overlap::Decomposition d = example_decomposition(*fe.model, &m);
  EXPECT_EQ(d.parts(), 3);
  EXPECT_EQ(m.num_nodes(), 121);  // the 10x10 rectangle of `verify --dynamic`
  EXPECT_EQ(overlap::validate(m, d), "");
}

TEST(Cost, SimulateCostMatchesScheduleArithmetic) {
  Compiled fe = compile_frontend(lang::testt_source(), lang::testt_spec());
  ASSERT_TRUE(fe.ok()) << fe.diags.str();
  EnumerationResult r = enumerate_placements(*fe.model, *fe.fg);
  ASSERT_FALSE(r.placements.empty());
  overlap::Decomposition d = example_decomposition(*fe.model);
  for (const Placement& p : r.placements) {
    CostReport c = simulate_cost(*fe.model, p, d);
    auto [msgs, doubles] = expected_traffic(p, d);
    EXPECT_EQ(c.messages, msgs);
    EXPECT_EQ(c.bytes, doubles * 8);
    EXPECT_EQ(c.syncs, p.syncs.size());
    EXPECT_EQ(c.syncs_in_cycle, p.syncs_in_cycle());
    EXPECT_FALSE(c.loops.empty());
    for (const LoopCost& lc : c.loops) {
      // Redundant computation is monotone in the domain extension: layers=0
      // means kernel-only, deeper extensions can only add cells.
      EXPECT_GE(lc.domain_cells, lc.kernel_cells) << lc.loop;
      if (lc.layers == 0) {
        EXPECT_EQ(lc.domain_cells, lc.kernel_cells);
      }
      EXPECT_TRUE(lc.entity == "node" || lc.entity == "triangle");
    }
  }
}

TEST(Cost, CheaperRankedPlacementNeverCostsMoreMessages) {
  // The engine ranks by abstract cost; grounding the ranking in simulated
  // traffic must not invert it for the paper's example: placement #0 (the
  // emitted one) moves no more messages per sweep than any other.
  Compiled fe = compile_frontend(lang::testt_source(), lang::testt_spec());
  ASSERT_TRUE(fe.ok()) << fe.diags.str();
  EnumerationResult r = enumerate_placements(*fe.model, *fe.fg);
  ASSERT_FALSE(r.placements.empty());
  overlap::Decomposition d = example_decomposition(*fe.model);
  CostReport best = simulate_cost(*fe.model, r.placements[0], d);
  for (std::size_t i = 1; i < r.placements.size(); ++i) {
    CostReport c = simulate_cost(*fe.model, r.placements[i], d);
    EXPECT_LE(best.messages, c.messages) << "placement #" << i;
  }
}

long long arg_of(const trace::Event& ev, const char* key) {
  for (const trace::Arg& a : ev.args)
    if (a.key == key) return std::atoll(a.value.c_str());
  return 0;
}

std::string str_arg_of(const trace::Event& ev, const char* key) {
  for (const trace::Arg& a : ev.args)
    if (a.key == key) return a.value;
  return "";
}

TEST(Cost, PerEdgeTrafficMatchesOverlapSchedule) {
  // Cross-validates three independent layers on the real example: the
  // decomposition's communication schedule (what SHOULD move), the traced
  // per-sync edge deltas (what the interpreter attributed), and the
  // runtime's edge counters (what was actually sent). Sync-attributed
  // traffic must equal executions x schedule exactly, per directed edge.
  Compiled fe = compile_frontend(lang::testt_source(), lang::testt_spec());
  ASSERT_TRUE(fe.ok()) << fe.diags.str();
  EnumerationResult r = enumerate_placements(*fe.model, *fe.fg);
  ASSERT_FALSE(r.placements.empty());
  mesh::Mesh2D m;
  overlap::Decomposition d = example_decomposition(*fe.model, &m);
  interp::MeshBinding binding = interp::synthetic_binding(*fe.model, m);

  trace::Tracer tracer;
  trace::ScopedInstall guard(&tracer);
  runtime::World world(d.parts());  // edge metrics forced on by the tracer
  interp::RunResult run =
      interp::run_spmd(world, *fe.model, r.placements[0], d, m, binding);
  ASSERT_TRUE(run.ok) << run.error;

  // Per-rank sync executions and per-edge sync-attributed sends, from the
  // trace the run emitted.
  std::vector<long long> exch_execs(d.parts(), 0), red_execs(d.parts(), 0);
  std::map<std::pair<int, int>, runtime::EdgeCounters> traced;
  for (const trace::Event& ev : tracer.events()) {
    if (ev.cat != "spmd") continue;
    if (ev.phase == 'X' && ev.name.rfind("sync:", 0) == 0) {
      const int rank = static_cast<int>(arg_of(ev, "rank"));
      ASSERT_LT(rank, d.parts());
      if (ev.name.find("reduction") != std::string::npos)
        ++red_execs[rank];
      else
        ++exch_execs[rank];
    } else if (ev.phase == 'C' && ev.name == "comm/edge" &&
               str_arg_of(ev, "dir") == "send") {
      auto& ec = traced[{static_cast<int>(arg_of(ev, "rank")),
                         static_cast<int>(arg_of(ev, "peer"))}];
      ec.msgs += arg_of(ev, "msgs");
      ec.bytes += arg_of(ev, "bytes");
    }
  }
  ASSERT_GT(exch_execs[0], 0);
  ASSERT_GT(red_execs[0], 0);

  // What the schedule says those executions cost, edge by edge. Every
  // update/assembly runs the full exchange; every reduction gathers one
  // double to rank 0 and broadcasts one back.
  std::map<std::pair<int, int>, runtime::EdgeCounters> expect;
  for (int rank = 0; rank < d.parts(); ++rank) {
    for (const overlap::Message& msg : d.sends[rank]) {
      auto& ec = expect[{rank, msg.peer}];
      ec.msgs += exch_execs[rank];
      ec.bytes += exch_execs[rank] * 8 *
                  static_cast<long long>(msg.indices.size());
    }
    if (rank != 0) {
      expect[{rank, 0}].msgs += red_execs[rank];
      expect[{rank, 0}].bytes += red_execs[rank] * 8;
    } else {
      for (int peer = 1; peer < d.parts(); ++peer) {
        expect[{0, peer}].msgs += red_execs[0];
        expect[{0, peer}].bytes += red_execs[0] * 8;
      }
    }
  }
  ASSERT_EQ(traced.size(), expect.size());
  for (const auto& [edge, want] : expect) {
    const runtime::EdgeCounters& got = traced[edge];
    EXPECT_EQ(got.msgs, want.msgs)
        << edge.first << " -> " << edge.second;
    EXPECT_EQ(got.bytes, want.bytes)
        << edge.first << " -> " << edge.second;
  }

  // The runtime's own per-edge counters cover the sync traffic plus the
  // final result collection; totals must reconcile with the world counters.
  long long edge_msgs = 0, edge_bytes = 0;
  for (const runtime::EdgeTraffic& e : world.edge_traffic()) {
    edge_msgs += e.msgs;
    edge_bytes += e.bytes;
    auto it = traced.find({e.src, e.dst});
    if (it != traced.end()) {
      EXPECT_GE(e.msgs, it->second.msgs);
      EXPECT_GE(e.bytes, it->second.bytes);
    }
  }
  EXPECT_EQ(edge_msgs, world.total_msgs());
  EXPECT_EQ(edge_bytes, world.total_bytes());
}

TEST(Cost, EdgeMetricsAreOffByDefault) {
  // Without a tracer and without edge_metrics the runtime must not pay for
  // (or populate) per-edge accounting.
  Compiled fe = compile_frontend(lang::testt_source(), lang::testt_spec());
  ASSERT_TRUE(fe.ok()) << fe.diags.str();
  EnumerationResult r = enumerate_placements(*fe.model, *fe.fg);
  ASSERT_FALSE(r.placements.empty());
  mesh::Mesh2D m;
  overlap::Decomposition d = example_decomposition(*fe.model, &m);
  interp::MeshBinding binding = interp::synthetic_binding(*fe.model, m);
  runtime::World world(d.parts());
  interp::RunResult run =
      interp::run_spmd(world, *fe.model, r.placements[0], d, m, binding);
  ASSERT_TRUE(run.ok) << run.error;
  EXPECT_TRUE(world.edge_traffic().empty());
}

}  // namespace
}  // namespace meshpar::placement
