// End-to-end validation of the tool's generated placements: the SPMD
// interpretation of EVERY enumerated placement of TESTT must compute the
// same result as the sequential interpretation of the original program —
// this is the paper's central correctness claim, executed.
#include "interp/spmd.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>

#include "lang/corpus.hpp"
#include "mesh/generators.hpp"
#include "placement/cost.hpp"
#include "placement/tool.hpp"
#include "solver/testt.hpp"

namespace meshpar::interp {
namespace {

struct Fixture {
  mesh::Mesh2D m;
  placement::Compiled compiled;
  placement::EnumerationResult enumerated;
  MeshBinding binding;

  explicit Fixture(int nx = 8, int ny = 7, double epsilon = 1e-9,
                   int maxloop = 12) {
    m = mesh::rectangle(nx, ny);
    Rng rng(13);
    mesh::jitter(m, rng, 0.15);
    placement::ToolOptions opt;
    opt.engine.max_solutions = 0;
    compiled =
        placement::compile_frontend(lang::testt_source(), lang::testt_spec());
    if (compiled.ok())
      enumerated =
          placement::enumerate_placements(*compiled.model, *compiled.fg, opt);
    binding = testt_binding(m);
    std::vector<double> init(m.num_nodes());
    for (int n = 0; n < m.num_nodes(); ++n)
      init[n] = std::sin(2.0 * m.x[n]) + std::cos(3.0 * m.y[n]);
    binding.node_fields["init"] = std::move(init);
    binding.scalars["epsilon"] = epsilon;
    binding.scalars["maxloop"] = maxloop;
  }
};

double max_abs_diff(const std::vector<double>& a,
                    const std::vector<double>& b) {
  EXPECT_EQ(a.size(), b.size());
  double d = 0;
  for (std::size_t i = 0; i < a.size(); ++i)
    d = std::max(d, std::fabs(a[i] - b[i]));
  return d;
}

TEST(SpmdInterp, SequentialInterpretationMatchesNativeSolver) {
  Fixture fx;
  ASSERT_TRUE(fx.compiled.ok()) << fx.compiled.diags.str();
  ASSERT_FALSE(fx.enumerated.placements.empty());
  RunResult seq = run_sequential(*fx.compiled.model, fx.m, fx.binding);
  ASSERT_TRUE(seq.ok) << seq.error;

  solver::TesttParams params{1e-9, 12};
  auto native =
      solver::testt_sequential(fx.m, fx.binding.node_fields.at("init"),
                               params);
  ASSERT_TRUE(seq.node_outputs.count("result"));
  EXPECT_LT(max_abs_diff(seq.node_outputs.at("result"), native.result),
            1e-12);
  EXPECT_DOUBLE_EQ(seq.scalars.at("loop"), native.loops);
}

TEST(SpmdInterp, BestPlacementMatchesSequential) {
  Fixture fx;
  ASSERT_TRUE(fx.compiled.ok()) << fx.compiled.diags.str();
  ASSERT_FALSE(fx.enumerated.placements.empty());
  RunResult seq = run_sequential(*fx.compiled.model, fx.m, fx.binding);
  ASSERT_TRUE(seq.ok) << seq.error;

  auto p = partition::partition_nodes(fx.m, 4, partition::Algorithm::kRcb);
  auto d = overlap::decompose_entity_layer(fx.m, p);
  runtime::World w(4);
  RunResult par = run_spmd(w, *fx.compiled.model,
                           fx.enumerated.placements.front(), d, fx.m,
                           fx.binding);
  ASSERT_TRUE(par.ok) << par.error;
  EXPECT_LT(max_abs_diff(par.node_outputs.at("result"),
                         seq.node_outputs.at("result")),
            1e-10);
  EXPECT_DOUBLE_EQ(par.scalars.at("loop"), seq.scalars.at("loop"));
}

TEST(SpmdInterp, EveryEnumeratedPlacementIsCorrect) {
  // The property behind §4: all (M_n, M_a) solutions are valid SPMD
  // programs. Execute each distinct placement and compare.
  Fixture fx(7, 6, /*epsilon=*/1e-9, /*maxloop=*/8);
  ASSERT_TRUE(fx.compiled.ok()) << fx.compiled.diags.str();
  ASSERT_FALSE(fx.enumerated.placements.empty());
  RunResult seq = run_sequential(*fx.compiled.model, fx.m, fx.binding);
  ASSERT_TRUE(seq.ok) << seq.error;

  auto p = partition::partition_nodes(fx.m, 3, partition::Algorithm::kRcb);
  auto d = overlap::decompose_entity_layer(fx.m, p);
  ASSERT_TRUE(overlap::validate(fx.m, d).empty());

  ASSERT_GT(fx.enumerated.placements.size(), 10u);
  for (const auto& placement : fx.enumerated.placements) {
    runtime::World w(3);
    RunResult par =
        run_spmd(w, *fx.compiled.model, placement, d, fx.m, fx.binding);
    ASSERT_TRUE(par.ok) << par.error;
    EXPECT_LT(max_abs_diff(par.node_outputs.at("result"),
                           seq.node_outputs.at("result")),
              1e-10)
        << "placement key: " << placement.key();
  }
}

TEST(SpmdInterp, NodeBoundaryPatternPlacementsAreCorrect) {
  Fixture fx(7, 6, 1e-9, 8);
  std::string spec = lang::testt_spec();
  auto pos = spec.find("overlap-triangle-layer");
  spec.replace(pos, std::string("overlap-triangle-layer").size(),
               "overlap-node-boundary");
  placement::ToolOptions opt;
  opt.engine.max_solutions = 0;
  placement::Compiled c =
      placement::compile_frontend(lang::testt_source(), spec);
  ASSERT_TRUE(c.ok()) << c.diags.str();
  placement::EnumerationResult tool =
      placement::enumerate_placements(*c.model, *c.fg, opt);
  ASSERT_FALSE(tool.placements.empty());

  RunResult seq = run_sequential(*c.model, fx.m, fx.binding);
  ASSERT_TRUE(seq.ok) << seq.error;

  auto p = partition::partition_nodes(fx.m, 4, partition::Algorithm::kRcb);
  auto d = overlap::decompose_node_boundary(fx.m, p);
  for (const auto& placement : tool.placements) {
    runtime::World w(4);
    RunResult par = run_spmd(w, *c.model, placement, d, fx.m, fx.binding);
    ASSERT_TRUE(par.ok) << par.error;
    EXPECT_LT(max_abs_diff(par.node_outputs.at("result"),
                           seq.node_outputs.at("result")),
              1e-9);
  }
}

TEST(SpmdInterp, SyntheticTwoStageUnderDeepHalo) {
  // The two-layer pattern executes the 2-stage synthetic program with one
  // update per time step; the result must still match.
  std::string deep_spec = lang::synthetic_spec(2);
  auto pos = deep_spec.find("overlap-triangle-layer");
  deep_spec.replace(pos, std::string("overlap-triangle-layer").size(),
                    "overlap-triangle-layer-2");
  placement::ToolOptions opt;
  opt.engine.max_solutions = 4096;
  placement::Compiled c =
      placement::compile_frontend(lang::synthetic_source(2), deep_spec);
  ASSERT_TRUE(c.ok()) << c.diags.str();
  placement::EnumerationResult tool =
      placement::enumerate_placements(*c.model, *c.fg, opt);
  ASSERT_FALSE(tool.placements.empty());

  auto m = mesh::rectangle(8, 8);
  MeshBinding binding = testt_binding(m);
  std::vector<double> init(m.num_nodes());
  for (int n = 0; n < m.num_nodes(); ++n) init[n] = m.x[n] * m.y[n] + 1.0;
  binding.node_fields["init"] = std::move(init);
  binding.scalars["epsilon"] = 1e-12;
  binding.scalars["maxloop"] = 6;

  RunResult seq = run_sequential(*c.model, m, binding);
  ASSERT_TRUE(seq.ok) << seq.error;

  auto p = partition::partition_nodes(m, 3, partition::Algorithm::kRcb);
  auto d = overlap::decompose_entity_layer(m, p, /*depth=*/2);
  ASSERT_TRUE(overlap::validate(m, d).empty());

  // Use the cheapest placement (one in-cycle update).
  runtime::World w(3);
  RunResult par =
      run_spmd(w, *c.model, tool.placements.front(), d, m, binding);
  ASSERT_TRUE(par.ok) << par.error;
  EXPECT_LT(max_abs_diff(par.node_outputs.at("result"),
                         seq.node_outputs.at("result")),
            1e-10);
}

TEST(SpmdSanitizer, EveryEnumeratedPlacementRunsClean) {
  // The staleness sanitizer must not flag any placement the engine
  // produced — every overlap read is covered by a communication or by a
  // domain restriction.
  Fixture fx(7, 6, 1e-9, 8);
  ASSERT_TRUE(fx.compiled.ok()) << fx.compiled.diags.str();
  ASSERT_FALSE(fx.enumerated.placements.empty());
  auto p = partition::partition_nodes(fx.m, 3, partition::Algorithm::kRcb);
  auto d = overlap::decompose_entity_layer(fx.m, p);
  for (const auto& placement : fx.enumerated.placements) {
    runtime::World w(3);
    StalenessReport report;
    RunResult par = run_spmd_sanitized(w, *fx.compiled.model, placement, d,
                                       fx.m, fx.binding, &report);
    ASSERT_TRUE(par.ok) << par.error;
    EXPECT_TRUE(report.clean())
        << "placement key " << placement.key() << ": "
        << report.findings.front().message;
  }
}

TEST(SpmdSanitizer, SuppressedExchangeTriggersStaleReadFinding) {
  // Drop the overlap update of NEW from the Figure-9-style placement: the
  // ranks now read stale overlap copies, and the sanitizer must say which
  // statement read which variable.
  Fixture fx(7, 6, 1e-9, 8);
  ASSERT_TRUE(fx.compiled.ok()) << fx.compiled.diags.str();
  ASSERT_FALSE(fx.enumerated.placements.empty());
  placement::Placement crippled = fx.enumerated.placements.front();
  auto it = crippled.syncs.begin();
  while (it != crippled.syncs.end() &&
         it->action != automaton::CommAction::kUpdateCopy)
    ++it;
  ASSERT_NE(it, crippled.syncs.end());
  std::string var = it->var;
  crippled.syncs.erase(it);

  auto p = partition::partition_nodes(fx.m, 3, partition::Algorithm::kRcb);
  auto d = overlap::decompose_entity_layer(fx.m, p);
  runtime::World w(3);
  StalenessReport report;
  RunResult par = run_spmd_sanitized(w, *fx.compiled.model, crippled, d, fx.m,
                                     fx.binding, &report);
  ASSERT_TRUE(par.ok) << par.error;
  ASSERT_FALSE(report.clean());
  const Diagnostic& f = report.findings.front();
  EXPECT_EQ(f.code, "MP-S001");
  EXPECT_TRUE(f.loc.known()) << "finding must name the reading statement";
  EXPECT_NE(f.message.find("'" + var + "("), std::string::npos)
      << "finding must name the stale variable: " << f.message;
  EXPECT_NE(f.message.find("generation"), std::string::npos);
}

TEST(SpmdSanitizer, FindingsAreDeterministicAcrossRuns) {
  Fixture fx(7, 6, 1e-9, 8);
  ASSERT_TRUE(fx.compiled.ok()) << fx.compiled.diags.str();
  ASSERT_FALSE(fx.enumerated.placements.empty());
  placement::Placement crippled = fx.enumerated.placements.front();
  auto it = crippled.syncs.begin();
  while (it != crippled.syncs.end() &&
         it->action != automaton::CommAction::kUpdateCopy)
    ++it;
  ASSERT_NE(it, crippled.syncs.end());
  crippled.syncs.erase(it);
  auto p = partition::partition_nodes(fx.m, 3, partition::Algorithm::kRcb);
  auto d = overlap::decompose_entity_layer(fx.m, p);

  auto run_once = [&] {
    runtime::World w(3);
    StalenessReport report;
    run_spmd_sanitized(w, *fx.compiled.model, crippled, d, fx.m, fx.binding,
                       &report);
    std::vector<std::string> msgs;
    for (const auto& f : report.findings)
      msgs.push_back(to_string(f.loc) + " " + f.message);
    return msgs;
  };
  auto a = run_once();
  auto b = run_once();
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b) << "rank scheduling must not affect the report";
}

TEST(SpmdInterp, PlacementCountersDifferAsRanked) {
  // The cheaper of two placements (per the cost model) should not send more
  // in-cycle messages than the expensive one.
  Fixture fx(8, 8, 0.0, 10);  // fixed 10 steps
  ASSERT_TRUE(fx.compiled.ok()) << fx.compiled.diags.str();
  ASSERT_FALSE(fx.enumerated.placements.empty());
  auto p = partition::partition_nodes(fx.m, 4, partition::Algorithm::kRcb);
  auto d = overlap::decompose_entity_layer(fx.m, p);

  runtime::World w_best(4), w_worst(4);
  run_spmd(w_best, *fx.compiled.model, fx.enumerated.placements.front(), d,
           fx.m, fx.binding);
  run_spmd(w_worst, *fx.compiled.model, fx.enumerated.placements.back(), d,
           fx.m, fx.binding);
  EXPECT_LE(w_best.total_msgs(), w_worst.total_msgs());
}

TEST(SpmdFaults, ElidedSyncIsCaughtByStalenessSanitizer) {
  // kElideSync skips the same coherence synchronization on every rank —
  // the dynamic equivalent of the placement tool forgetting a
  // communication. The sanitizer must flag the resulting stale read.
  Fixture fx(7, 6, 1e-9, 8);
  ASSERT_TRUE(fx.compiled.ok()) << fx.compiled.diags.str();
  ASSERT_FALSE(fx.enumerated.placements.empty());
  auto p = partition::partition_nodes(fx.m, 3, partition::Algorithm::kRcb);
  auto d = overlap::decompose_entity_layer(fx.m, p);

  runtime::Fault fault;
  fault.kind = runtime::FaultKind::kElideSync;
  fault.op = 0;  // the first overlap update of the run
  runtime::FaultPlan plan(fault);
  runtime::WorldOptions wopts;
  wopts.faults = &plan;
  runtime::World w(3, wopts);
  StalenessReport report;
  RunResult par = run_spmd_sanitized(w, *fx.compiled.model,
                                     fx.enumerated.placements.front(), d, fx.m,
                                     fx.binding, &report);
  ASSERT_TRUE(par.ok) << par.error;
  ASSERT_FALSE(report.clean());
  EXPECT_EQ(report.findings.front().code, "MP-S001");
}

TEST(SpmdFaults, KilledRankSurfacesStructuredFailure) {
  // A rank death mid-run must come back as RunResult::failure with the
  // kill (MP-R004) and the deadlock it strands the other ranks in — not as
  // a hang or a std::terminate.
  Fixture fx(7, 6, 1e-9, 8);
  ASSERT_TRUE(fx.compiled.ok()) << fx.compiled.diags.str();
  ASSERT_FALSE(fx.enumerated.placements.empty());
  auto p = partition::partition_nodes(fx.m, 3, partition::Algorithm::kRcb);
  auto d = overlap::decompose_entity_layer(fx.m, p);

  runtime::Fault fault;
  fault.kind = runtime::FaultKind::kKillRank;
  fault.rank = 1;
  fault.op = 2;
  runtime::FaultPlan plan(fault);
  runtime::WorldOptions wopts;
  wopts.faults = &plan;
  runtime::World w(3, wopts);
  RunResult par = run_spmd(w, *fx.compiled.model,
                           fx.enumerated.placements.front(), d, fx.m,
                           fx.binding);
  EXPECT_FALSE(par.ok);
  ASSERT_TRUE(par.failure.has_value());
  EXPECT_EQ(par.failure->code(), "MP-R004");
  bool killed = false;
  for (const runtime::RankFailure& f : par.failure->failures)
    if (f.rank == 1 && f.kind == runtime::RankFailure::Kind::kKilled)
      killed = true;
  EXPECT_TRUE(killed);
  EXPECT_NE(par.error.find("MP-R004"), std::string::npos);
}

TEST(SpmdFaults, BaselineRunCountsSyncExecutions) {
  Fixture fx(7, 6, 1e-9, 8);
  ASSERT_TRUE(fx.compiled.ok()) << fx.compiled.diags.str();
  ASSERT_FALSE(fx.enumerated.placements.empty());
  auto p = partition::partition_nodes(fx.m, 3, partition::Algorithm::kRcb);
  auto d = overlap::decompose_entity_layer(fx.m, p);
  runtime::World w(3);
  RunResult par = run_spmd(w, *fx.compiled.model,
                           fx.enumerated.placements.front(), d, fx.m,
                           fx.binding);
  ASSERT_TRUE(par.ok) << par.error;
  // One overlap update per convergence iteration; the run converges after
  // at least one iteration, so the kElideSync ordinal space is non-empty.
  EXPECT_GT(par.sync_executions, 0);
}

TEST(SpmdSanitizer, ElidedSyncFindingsArePinned) {
  // The sanitizer's observable behaviour, pinned by hash: for the four
  // cheapest placements of TESTT and COUPLED on the `verify --dynamic`
  // configuration, one clean run and one run per elided coherence-sync
  // ordinal. Each run feeds its sorted MP-S001 (loc, message) list,
  // first_stale_sync, sync_executions and every scalar's name and bit
  // pattern; the scalar names pin the set of bindings the interpreter
  // materializes.
  struct Pin {
    const char* name;
    std::string source, spec;
    long long runs;
    std::uint64_t hash;
  };
  const Pin pins[] = {
      {"testt", lang::testt_source(), lang::testt_spec(), 17,
       0xe37b79518cd2a0ceull},
      {"coupled", lang::coupled_source(), lang::coupled_spec(), 28,
       0x9651a46f2153297full},
  };
  for (const Pin& pin : pins) {
    SCOPED_TRACE(pin.name);
    placement::Compiled c = placement::compile_frontend(pin.source, pin.spec);
    ASSERT_TRUE(c.ok()) << c.diags.str();
    placement::ToolOptions opt;
    opt.k_best = true;
    opt.engine.max_solutions = 4;
    const placement::EnumerationResult set =
        placement::enumerate_placements(*c.model, *c.fg, opt);
    ASSERT_EQ(set.placements.size(), 4u);
    mesh::Mesh2D m;
    const overlap::Decomposition d =
        placement::example_decomposition(*c.model, &m);
    const MeshBinding binding = synthetic_binding(*c.model, m);

    std::uint64_t h = 14695981039346656037ull;
    long long stale_runs = 0;
    auto feed = [&](const std::string& field) {
      for (unsigned char ch : field) {
        h ^= ch;
        h *= 1099511628211ull;
      }
      h ^= 0xff;  // field separator: no field contains this byte
      h *= 1099511628211ull;
    };
    auto run = [&](const placement::Placement& p, long long elide) {
      runtime::FaultPlan plan;
      if (elide >= 0) {
        runtime::Fault fault;
        fault.kind = runtime::FaultKind::kElideSync;
        fault.op = elide;
        plan.add(fault);
      }
      runtime::WorldOptions wopts;
      wopts.faults = &plan;
      runtime::World w(static_cast<int>(d.subs.size()), wopts);
      StalenessReport report;
      RunResult r =
          run_spmd_sanitized(w, *c.model, p, d, m, binding, &report);
      std::vector<std::string> findings;
      for (const Diagnostic& f : report.findings)
        findings.push_back(to_string(f.loc) + " " + f.message);
      std::sort(findings.begin(), findings.end());
      if (!findings.empty()) ++stale_runs;
      feed(r.ok ? "ok" : "failed");
      for (const std::string& f : findings) feed(f);
      feed(std::to_string(r.first_stale_sync));
      feed(std::to_string(r.sync_executions));
      for (const auto& [name, v] : r.scalars)
        feed(name + "=" + std::to_string(std::bit_cast<std::uint64_t>(v)));
      return r;
    };
    long long runs = 0;
    for (const placement::Placement& p : set.placements) {
      const RunResult clean = run(p, -1);
      ASSERT_TRUE(clean.ok) << clean.error;
      ++runs;
      for (long long k = 0; k < clean.sync_executions; ++k, ++runs)
        run(p, k);
    }
    EXPECT_EQ(runs, pin.runs);
    EXPECT_GT(stale_runs, 0) << "no elision produced a finding to pin";
    EXPECT_EQ(h, pin.hash) << std::hex << "0x" << h;
  }
}

TEST(RunComparison, BitwiseIdenticalComparesBitPatterns) {
  RunResult a;
  a.node_outputs["new"] = {1.5, 0.0, -2.25};
  a.scalars["resu"] = 0.125;
  EXPECT_TRUE(bitwise_identical(a, a));

  // -0.0 == 0.0 as doubles, but the bit patterns differ.
  RunResult b = a;
  b.node_outputs["new"][1] = -0.0;
  EXPECT_FALSE(bitwise_identical(a, b));
  b = a;
  b.scalars["resu"] = 0.0;
  a.scalars["resu"] = -0.0;
  EXPECT_FALSE(bitwise_identical(a, b));
  a.scalars["resu"] = 0.125;

  // A NaN is unequal to itself as a double, but an identical NaN has the
  // same bits.
  RunResult n = a;
  n.node_outputs["new"][2] = std::nan("");
  n.scalars["resu"] = std::nan("");
  EXPECT_TRUE(bitwise_identical(n, RunResult(n)));

  // A missing output or scalar differs, in either direction.
  RunResult missing = a;
  missing.node_outputs.erase("new");
  EXPECT_FALSE(bitwise_identical(a, missing));
  EXPECT_FALSE(bitwise_identical(missing, a));
  missing = a;
  missing.scalars.erase("resu");
  EXPECT_FALSE(bitwise_identical(a, missing));
  EXPECT_FALSE(bitwise_identical(missing, a));
  // So does a renamed one, and a field of another length.
  RunResult renamed = a;
  renamed.scalars = {{"resv", 0.125}};
  EXPECT_FALSE(bitwise_identical(a, renamed));
  RunResult longer = a;
  longer.node_outputs["new"].push_back(0.0);
  EXPECT_FALSE(bitwise_identical(a, longer));
}

}  // namespace
}  // namespace meshpar::interp
